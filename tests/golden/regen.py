"""Rebuild the golden corpus of the CLI commands: inputs and manifest.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

The inputs are `mine gen` files, a few seeds per family, in one directory
per corpus.  `drawn/` holds small Potts files with circle-layout
coordinates added, so they have no crossings; `shifted/` holds one
submodular file with every node id moved up by 5; `solutions/` holds `mine
solve` output on reduced instances, once with its `value` line left out
and once as printed (`mine sigma` reads both), and planar-0's with its
last auxiliary node labelled 7, outside its 3 labels.  `far/` holds a drawing
with a coordinate beyond float range and one whose coordinates are in
range but whose span is not.  `overflow/` holds a hand-written instance
whose elimination leaves int64, `grid/` a 6x6 3-label Potts grid, and
`repeated/` an instance with two constant records.
Every command in COMMANDS then runs in order in a scratch copy of the
inputs, and manifest.json records what `tests/test_golden.py::run_command`
saw.
"""

import io
import json
import os
import random
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import run_command  # noqa: E402

from mine.cli import run_cli  # noqa: E402
from mine.fileformat import (parse_instance, parse_solution, serialize_instance,  # noqa: E402
                             serialize_solution)
from mine.geometry import circle_layout  # noqa: E402
from mine.instance import make_instance  # noqa: E402
from mine.solvers import BRUTE_LIMIT_ENV  # noqa: E402

# (family, corpus directory, seeds); seeds are chosen small enough to enumerate.
GEN = [
    ("w3sat", "w3sat", (0, 1, 2, 3)),
    ("submodular", "submodular", (5, 8, 16, 42)),
    ("submodular", "positive", (7, 13, 28)),  # positive optima
    ("potts", "potts", (0, 21, 50)),          # 3 labels, no coordinates
    ("random3label", "crossed", (0, 1, 2)),   # 1-3 crossings each
]
MALFORMED_MINE = "MINE 1\nnodes 1\nlabels 2\nunary 0 0 x\n"
MALFORMED_WCNF3 = "p wcnf3 3 1\nw 1 1\n1 2 3 0\n"
REPEATED_MINE = "MINE 1\nnodes 1\nlabels 2\nconstant 3\nconstant 9\nunary 0 0 1\n"
UNKNOWN_TRACE = '{"aux_nodes": [], "kind": "mystery", "original_nodes": [0, 1]}\n'
FAR_MINE = f"MINE 1\nnodes 2\nlabels 2 2\ncoord 0 0 0\ncoord 1 {'9' * 400} 1\nedge 0 1 0 1 1 0\n"
# Each coordinate converts to a float, but their span (2 * 10^308) does not.
WIDE_MINE = (f"MINE 1\nnodes 2\nlabels 2 2\ncoord 0 -1{'0' * 308} 0\n"
             f"coord 1 1{'0' * 308} 0\nedge 0 1 0 1 1 0\n")
# A triangle whose sum leaves int64 at two entries of node 0's bucket; the
# error names the first in the sorted separator's row order.
OVERFLOW_MINE = ("MINE 1\nnodes 3\nlabels 1 2 2\nunary 0 4611686018427387904\n"
                 "edge 0 1 0 4611686018427387903\nedge 0 2 1 4611686018427387909\n"
                 "edge 1 2 0 0 0 0\n")
GEN_FAMILIES = ("w3sat", "potts", "submodular", "random3label")
# (reduction, source, solution name, solve method) for `mine sigma` inputs
SOLVED = [
    ("w3sat-to-qpbo", "w3sat/0.wcnf3", "w3sat-0", "brute"),
    ("qpbo-to-klabel", "submodular/5.mine", "klabel-5", "elim"),
    ("planarize", "crossed/0.mine", "planar-0", "elim"),
    ("qpbo-to-klabel", "shifted/5.mine", "klabel-shifted-5", "elim"),
]


def _reduce(kind, source, name, *extra):
    return [f"reduce-{name}", "reduce", kind, source, f"{name}.mine",
            "--trace", f"{name}.json", *extra]


def _sigma(name, source, trace, solution):
    return [f"sigma-{name}", "sigma", source, "--trace", trace, "--solution", solution]


def _verify(name, kind, corpus, *extra):
    return [f"verify-ap-{name}", "verify-ap", "--reduction", kind, "--corpus", corpus, *extra]


# Each command: [id, *argv], or (env, [id, *argv]); run in this order.
COMMANDS = [
    _reduce("w3sat-to-qpbo", "w3sat/0.wcnf3", "w3sat-0"),
    _reduce("w3sat-to-qpbo", "w3sat/1.wcnf3", "w3sat-1"),
    _reduce("qpbo-to-klabel", "submodular/5.mine", "klabel-5"),
    _reduce("qpbo-to-klabel", "submodular/16.mine", "klabel-16"),
    _reduce("qpbo-to-klabel", "submodular/42.mine", "klabel4-42", "--k", "4"),
    _reduce("planarize", "crossed/0.mine", "planar-0"),
    _reduce("planarize", "crossed/1.mine", "planar-1"),
    _reduce("planarize", "crossed/2.mine", "planar-2"),
    _reduce("planarize", "drawn/50.mine", "planar-drawn-50"),
    ["reduce-no-trace", "reduce", "qpbo-to-klabel", "submodular/8.mine", "klabel-8.mine"],
    ["reduce-three-labels", "reduce", "qpbo-to-klabel", "potts/0.mine", "x.mine"],
    ["reduce-k-below-2", "reduce", "qpbo-to-klabel", "submodular/5.mine", "x.mine", "--k", "1"],
    ["reduce-planarize-no-coordinates", "reduce", "planarize", "potts/0.mine", "x.mine"],
    ["reduce-missing-file", "reduce", "planarize", "nowhere.mine", "x.mine"],
    ["reduce-malformed-mine", "reduce", "qpbo-to-klabel", "malformed/0.mine", "x.mine"],
    ["reduce-malformed-wcnf3", "reduce", "w3sat-to-qpbo", "malformed/0.wcnf3", "x.mine"],
    ["reduce-instance-as-formula", "reduce", "w3sat-to-qpbo", "submodular/5.mine", "x.mine"],
    ["reduce-unknown-kind", "reduce", "bogus", "submodular/5.mine", "x.mine"],
    ["solve-w3sat-0", "solve", "w3sat-0.mine", "--method", "brute"],
    ["solve-klabel-5", "solve", "klabel-5.mine", "--method", "elim"],
    ["solve-planar-0", "solve", "planar-0.mine", "--method", "elim"],
    _sigma("w3sat-0", "w3sat/0.wcnf3", "w3sat-0.json", "solutions/w3sat-0.sol"),
    _sigma("klabel-5", "submodular/5.mine", "klabel-5.json", "solutions/klabel-5.sol"),
    _sigma("planar-0", "crossed/0.mine", "planar-0.json", "solutions/planar-0.sol"),
    _sigma("solve-output", "crossed/0.mine", "planar-0.json", "solutions/planar-0.raw.sol"),
    _sigma("unknown-kind", "submodular/5.mine", "traces/unknown.json",
           "solutions/klabel-5.sol"),
    _sigma("unknown-kind-malformed-input", "malformed/0.mine", "traces/unknown.json",
           "solutions/klabel-5.sol"),
    _sigma("other-formula", "w3sat/1.wcnf3", "w3sat-0.json", "solutions/w3sat-0.sol"),
    _sigma("other-drawing", "crossed/1.mine", "planar-0.json", "solutions/planar-0.sol"),
    _sigma("formula-as-instance", "w3sat/0.wcnf3", "klabel-5.json", "solutions/klabel-5.sol"),
    _sigma("missing-trace", "w3sat/0.wcnf3", "nowhere.json", "solutions/w3sat-0.sol"),
    _verify("w3sat", "w3sat-to-qpbo", "w3sat"),
    _verify("w3sat-stats", "w3sat-to-qpbo", "w3sat", "--stats"),
    _verify("klabel", "qpbo-to-klabel", "submodular"),
    _verify("klabel-k4", "qpbo-to-klabel", "positive", "--k", "4"),
    _verify("alpha-0", "qpbo-to-klabel", "positive", "--alpha", "0"),
    _verify("planarize-drawn", "planarize", "drawn"),
    _verify("planarize-crossed", "planarize", "crossed"),
    _verify("planarize-no-coordinates", "planarize", "potts"),
    _verify("three-labels", "qpbo-to-klabel", "potts"),
    _verify("k-below-2", "qpbo-to-klabel", "submodular", "--k", "1"),
    ({BRUTE_LIMIT_ENV: "4"}, _verify("w3sat-limit", "w3sat-to-qpbo", "w3sat")),
    ({BRUTE_LIMIT_ENV: "16"}, _verify("klabel-limit", "qpbo-to-klabel", "submodular")),
    _verify("malformed-mine", "qpbo-to-klabel", "malformed"),
    _verify("malformed-wcnf3", "w3sat-to-qpbo", "malformed"),
    _verify("mixed-klabel", "qpbo-to-klabel", "mixed"),
    _verify("mixed-planarize", "planarize", "mixed"),
    _verify("no-files", "w3sat-to-qpbo", "submodular"),
    _verify("unknown-kind", "bogus", "w3sat"),
    _sigma("trace-not-an-object", "submodular/5.mine", "traces/list.json",
           "solutions/klabel-5.sol"),
    _sigma("klabel-other-node-ids", "shifted/5.mine", "klabel-5.json",
           "solutions/klabel-shifted-5.sol"),
    _sigma("planar-aux-label-out-of-range", "crossed/0.mine", "planar-0.json",
           "solutions/planar-0-aux-label.sol"),
    ["plot-crossed-0", "plot", "crossed/0.mine", "--out", "crossed-0.svg"],
    ["plot-crossed-1", "plot", "crossed/1.mine", "--out", "crossed-1.svg"],
    ["plot-drawn-50", "plot", "drawn/50.mine", "--out", "drawn-50.svg"],
    ["plot-circle-layout", "plot", "potts/0.mine", "--out", "potts-0.svg"],
    ["plot-beyond-float-range", "plot", "far/0.mine", "--out", "far-0.svg"],
    ["plot-span-beyond-float-range", "plot", "far/1.mine", "--out", "far-1.svg"],
    # each solver where it applies, then where it raises
    ["solve-tree-potts-21", "solve", "potts/21.mine", "--method", "tree"],
    ["solve-tree-cycle", "solve", "potts/0.mine", "--method", "tree"],
    ["solve-mincut-submodular-5", "solve", "submodular/5.mine", "--method", "mincut"],
    ["solve-mincut-not-submodular", "solve", "w3sat-0.mine", "--method", "mincut"],
    ["solve-alphaexp-potts-0", "solve", "potts/0.mine", "--method", "alphaexp"],
    ["solve-alphaexp-infinite-entry", "solve", "planar-0.mine", "--method", "alphaexp"],
    # elimination's labeling and stats, and the value its overflow error names
    ["solve-elim-stats-crossed-0", "solve", "crossed/0.mine", "--method", "elim", "--stats"],
    ["solve-elim-stats-grid-6x6", "solve", "grid/6x6.mine", "--method", "elim", "--stats"],
    ["solve-elim-overflow", "solve", "overflow/0.mine", "--method", "elim"],
    # classify reads instances, so the w3sat family is classified reduced
    ["classify-w3sat-0", "classify", "w3sat-0.mine"],
    ["classify-formula", "classify", "w3sat/0.wcnf3"],
    ["classify-submodular-5", "classify", "submodular/5.mine"],
    ["classify-potts-0", "classify", "potts/0.mine"],
    ["classify-drawn-50", "classify", "drawn/50.mine"],
    ["classify-random3label-0", "classify", "crossed/0.mine"],
    *(["gen-" + family, "gen", "--family", family, "--seed", "0", "--out", f"gen-{family}.txt"]
      for family in GEN_FAMILIES),
    *([f"gen-{family}-{seed}", "gen", "--family", family, "--seed", seed,
       "--out", f"gen-{family}-{seed}.txt"]
      for family in GEN_FAMILIES for seed in ("1", "2", "3")),
    ["solve-repeated-constant", "solve", "repeated/0.mine", "--method", "brute"],
]


def _potts_grid_text(side, k, seed) -> str:
    """A side x side 4-neighbour Potts grid: unary costs 0-20, edge weights 1-10."""
    rng = random.Random(seed)
    n = side * side
    unary = {u: tuple(rng.randint(0, 20) for _ in range(k)) for u in range(n)}
    pairwise = {}
    for u in range(n):
        for v in ([u + 1] if (u + 1) % side else []) + ([u + side] if u + side < n else []):
            w = rng.randint(1, 10)
            pairwise[(u, v)] = tuple(tuple(0 if a == b else w for b in range(k))
                                     for a in range(k))
    return serialize_instance(make_instance({u: k for u in range(n)}, unary, pairwise))


def _cli(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        if run_cli(argv) != 0:
            raise SystemExit(f"mine {' '.join(argv)} failed")
    return out.getvalue()


def build_inputs(inputs: Path) -> None:
    """Write the golden inputs afresh under inputs."""
    shutil.rmtree(inputs, ignore_errors=True)
    for family, corpus, seeds in GEN:
        (inputs / corpus).mkdir(parents=True)
        suffix = ".wcnf3" if family == "w3sat" else ".mine"
        for seed in seeds:
            _cli(["gen", "--family", family, "--seed", str(seed),
                  "--out", str(inputs / corpus / f"{seed}{suffix}")])
    (inputs / "drawn").mkdir()
    for path in sorted((inputs / "potts").iterdir()):
        instance, _ = parse_instance(path.read_text())
        (inputs / "drawn" / path.name).write_text(
            serialize_instance(instance, circle_layout(instance.nodes)))
    for corpus, files in [("malformed", {"0.mine": MALFORMED_MINE, "0.wcnf3": MALFORMED_WCNF3}),
                          ("mixed", {"0.mine": (inputs / "potts/0.mine").read_text(),
                                     "1.mine": MALFORMED_MINE}),
                          ("traces", {"unknown.json": UNKNOWN_TRACE, "list.json": "[]\n"}),
                          ("far", {"0.mine": FAR_MINE, "1.mine": WIDE_MINE}),
                          ("overflow", {"0.mine": OVERFLOW_MINE}),
                          ("grid", {"6x6.mine": _potts_grid_text(6, 3, 6)}),
                          ("repeated", {"0.mine": REPEATED_MINE})]:
        (inputs / corpus).mkdir()
        for name, text in files.items():
            (inputs / corpus / name).write_text(text)
    (inputs / "shifted").mkdir()
    instance, _ = parse_instance((inputs / "submodular/5.mine").read_text())
    (inputs / "shifted/5.mine").write_text(serialize_instance(make_instance(
        {u + 5: k for u, k in instance.labels.items()},
        {u + 5: t for u, t in instance.unary.items()},
        {(u + 5, v + 5): t for (u, v), t in instance.pairwise.items()}, instance.constant)))
    (inputs / "solutions").mkdir()
    with tempfile.TemporaryDirectory() as scratch:
        for kind, source, name, method in SOLVED:
            target = str(Path(scratch) / f"{name}.mine")
            _cli(["reduce", kind, str(inputs / source), target])
            printed = _cli(["solve", target, "--method", method])
            (inputs / "solutions" / f"{name}.raw.sol").write_text(printed)
            (inputs / "solutions" / f"{name}.sol").write_text(
                "".join(line for line in printed.splitlines(keepends=True)
                        if not line.startswith("value ")))
    y, _ = parse_solution((inputs / "solutions/planar-0.sol").read_text())
    y[max(y)] = 7
    (inputs / "solutions/planar-0-aux-label.sol").write_text(serialize_solution(y))


def build_manifest(inputs: Path) -> list[dict]:
    """Run COMMANDS in order in a scratch copy of inputs; one entry each."""
    manifest = []
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(inputs, work, dirs_exist_ok=True)
        os.chdir(work)
        try:
            for command in COMMANDS:
                env, (name, *argv) = command if isinstance(command, tuple) else ({}, command)
                manifest.append(run_command({"id": name, "argv": argv, "env": env}))
        finally:
            os.chdir(cwd)
    return manifest


def main() -> None:
    os.environ.pop(BRUTE_LIMIT_ENV, None)
    build_inputs(HERE / "inputs")
    manifest = build_manifest(HERE / "inputs")
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{len(manifest)} entries")


if __name__ == "__main__":
    main()
