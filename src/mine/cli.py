"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 precondition
violation, 4 verification found a counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .classify import classify
from .costs import CostOverflowError
from .fileformat import (ParseError, parse_instance, parse_solution, parse_wcnf3,
                         read_trace, serialize_instance, serialize_solution,
                         serialize_wcnf3, write_trace)
from .geometry import GeometryError, circle_layout
from .instance import InstanceError, evaluate
from .generate import (GenerationError, random_crossed_3label, random_potts,
                       random_submodular, random_w3sat)
from .plot import render_svg
from .poly import PolyError
from .reductions import (ENERGY_SOURCE, SAT_SOURCE, PlanarizeError, SatError,
                         SourceAdapter, klabel_sigma, planar_sigma, planarize,
                         qpbo_to_klabel, verify_ap_reduction, w3sat_sigma,
                         w3sat_to_qpbo)
from .solvers import (SolverError, alpha_expansion, solve_brute_force,
                      solve_elimination, solve_submodular_qpbo, solve_tree_dp)

USAGE_EXIT = 1
PARSE_EXIT = 2
PRECONDITION_EXIT = 3
COUNTEREXAMPLE_EXIT = 4

_PRECONDITION_ERRORS = (InstanceError, SolverError, GeometryError, SatError,
                        PolyError, PlanarizeError, GenerationError,
                        CostOverflowError, OSError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="mine", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser("reduce", help="apply a forward reduction")
    reduce_p.add_argument("reduction",
                          choices=["w3sat-to-qpbo", "qpbo-to-klabel", "planarize"])
    reduce_p.add_argument("input")
    reduce_p.add_argument("output")
    reduce_p.add_argument("--k", type=int, default=3,
                          help="target label count for qpbo-to-klabel")
    reduce_p.add_argument("--trace", help="write the reduction trace JSON here")

    sigma_p = sub.add_parser("sigma", help="apply the reverse map of a trace")
    sigma_p.add_argument("input", help="the source-side file the trace came from")
    sigma_p.add_argument("--trace", required=True)
    sigma_p.add_argument("--solution", required=True,
                         help="solution file for the reduced instance")

    solve_p = sub.add_parser("solve", help="minimize an instance file")
    solve_p.add_argument("input")
    solve_p.add_argument("--method", required=True,
                         choices=["brute", "elim", "tree", "mincut", "alphaexp"])
    solve_p.add_argument("--stats", action="store_true",
                         help="also write the solver's counters as one JSON line on stderr")

    classify_p = sub.add_parser("classify", help="complexity report for an instance")
    classify_p.add_argument("input")

    verify_p = sub.add_parser("verify-ap", help="check AP-reduction properties on a corpus")
    verify_p.add_argument("--reduction", required=True,
                          choices=["w3sat-to-qpbo", "qpbo-to-klabel", "planarize"])
    verify_p.add_argument("--corpus", required=True)
    verify_p.add_argument("--alpha", type=int, default=1)
    verify_p.add_argument("--k", type=int, default=3)
    verify_p.add_argument("--stats", action="store_true",
                          help="also write the harness's counters as one JSON line on stderr")

    gen_p = sub.add_parser("gen", help="emit a seeded random instance")
    gen_p.add_argument("--family", required=True,
                       choices=["w3sat", "potts", "submodular", "random3label"])
    gen_p.add_argument("--seed", required=True)
    gen_p.add_argument("--out", help="output file (default stdout)")

    plot_p = sub.add_parser("plot", help="render the straight-line drawing as SVG")
    plot_p.add_argument("input")
    plot_p.add_argument("--out", required=True)
    return p


def _read(path: str | Path) -> str:
    """A file's text; bytes that are not UTF-8 are a parse error at their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1,
                         f"not UTF-8 text: {exc.reason}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_reduce(args) -> int:
    if args.reduction == "w3sat-to-qpbo":
        sat = parse_wcnf3(_read(args.input))
        target, trace = w3sat_to_qpbo(sat)
        drawing = None
    elif args.reduction == "qpbo-to-klabel":
        instance, drawing = parse_instance(_read(args.input))
        target, trace = qpbo_to_klabel(instance, args.k)
    else:
        instance, drawing = parse_instance(_read(args.input))
        if drawing is None:
            raise InstanceError("planarize needs coordinates in the input file")
        target, drawing, trace = planarize(instance, drawing)
    _emit(serialize_instance(target, drawing), args.output)
    if args.trace:
        _emit(write_trace(trace), args.trace)
    return 0


def _cmd_sigma(args) -> int:
    trace = read_trace(_read(args.trace))
    y, _ = parse_solution(_read(args.solution))
    if trace.kind == "w3sat-to-qpbo":
        sat = parse_wcnf3(_read(args.input))
        x = w3sat_sigma(sat, trace)(y)
        labeling = {i: int(x[i]) for i in x}
        sys.stdout.write(serialize_solution(labeling))
        sys.stdout.write(f"measure {sat.measure(x)}\n")
        return 0
    original, _ = parse_instance(_read(args.input))
    if trace.kind == "qpbo-to-klabel":
        x = klabel_sigma(original, trace)(y)
    elif trace.kind == "planarize":
        x = planar_sigma(original, trace, y)
    else:
        raise InstanceError(f"unknown trace kind {trace.kind!r}")
    sys.stdout.write(serialize_solution(x, evaluate(original, x)))
    return 0


_SOLVERS = {
    "brute": solve_brute_force,
    "elim": solve_elimination,
    "tree": solve_tree_dp,
    "mincut": solve_submodular_qpbo,
    "alphaexp": alpha_expansion,
}


def _cmd_solve(args) -> int:
    instance, _ = parse_instance(_read(args.input))
    result = _SOLVERS[args.method](instance)
    for u in sorted(result.labeling):
        sys.stdout.write(f"{u} {result.labeling[u]}\n")
    sys.stdout.write(f"value {result.value}\n")
    if args.stats:
        sys.stderr.write(json.dumps(result.stats, sort_keys=True) + "\n")
    return 0


def _cmd_classify(args) -> int:
    instance, drawing = parse_instance(_read(args.input))
    sys.stdout.write(classify(instance, drawing).render() + "\n")
    return 0


def _corpus_files(directory: str, suffix: str) -> list[Path]:
    files = sorted(Path(directory).glob(f"*{suffix}"))
    if not files:
        raise InstanceError(f"no {suffix} files in corpus directory {directory}")
    return files


def _cmd_verify_ap(args) -> int:
    if args.reduction == "w3sat-to-qpbo":
        instances = [parse_wcnf3(_read(f))
                     for f in _corpus_files(args.corpus, ".wcnf3")]
        pi, sigma, source = w3sat_to_qpbo, w3sat_sigma, SAT_SOURCE
    elif args.reduction == "qpbo-to-klabel":
        instances = [parse_instance(_read(f))[0]
                     for f in _corpus_files(args.corpus, ".mine")]
        pi, sigma, source = lambda s: qpbo_to_klabel(s, args.k), klabel_sigma, ENERGY_SOURCE
    else:
        instances = [parse_instance(_read(f))
                     for f in _corpus_files(args.corpus, ".mine")]
        if any(d is None for _, d in instances):
            raise InstanceError("planarize corpus files need coordinates")
        pi = lambda pair: _drop_drawing(planarize(pair[0], pair[1]))
        sigma = _planar_reverse
        source = SourceAdapter(
            feasible_solutions=lambda pair: ENERGY_SOURCE.feasible_solutions(pair[0]),
            is_feasible=lambda pair, x: ENERGY_SOURCE.is_feasible(pair[0], x),
            measure=lambda pair, x: evaluate(pair[0], x))
    # Every forward map runs before anything is verified, so a file that
    # `mine reduce` rejects exits 3 here too instead of reading as a
    # counterexample; the harness then takes the targets built here.
    targets = {id(s): pi(s) for s in instances}
    report = verify_ap_reduction(lambda s: targets[id(s)], sigma, args.alpha,
                                 instances, source=source)
    sys.stdout.write(f"checked {report.checked} instances, "
                     f"{len(report.counterexamples)} counterexamples, "
                     f"{len(report.ratio_undefined)} ratio-undefined\n")
    for ce in report.counterexamples:
        sys.stdout.write(f"counterexample: instance {ce.instance_index} "
                         f"check {ce.check}: {ce.detail}\n")
    if args.stats:
        sys.stderr.write(json.dumps(report.stats, sort_keys=True) + "\n")
    return 0 if report.ok else COUNTEREXAMPLE_EXIT


def _planar_reverse(pair, trace):
    """The reverse map of a (source instance, drawing) pair's planarization."""
    return lambda y, value=None: planar_sigma(pair[0], trace, y)


def _drop_drawing(result):
    instance, _, trace = result
    return instance, trace


def _cmd_gen(args) -> int:
    if args.family == "w3sat":
        text = serialize_wcnf3(random_w3sat(args.seed))
    elif args.family == "potts":
        text = serialize_instance(random_potts(args.seed))
    elif args.family == "submodular":
        text = serialize_instance(random_submodular(args.seed))
    else:
        instance, drawing = random_crossed_3label(args.seed)
        text = serialize_instance(instance, drawing)
    _emit(text, args.out)
    return 0


def _cmd_plot(args) -> int:
    instance, drawing = parse_instance(_read(args.input))
    if drawing is None:
        drawing = circle_layout(instance.nodes)
    _emit(render_svg(instance, drawing), args.out)
    return 0


_COMMANDS = {
    "reduce": _cmd_reduce,
    "sigma": _cmd_sigma,
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "verify-ap": _cmd_verify_ap,
    "gen": _cmd_gen,
    "plot": _cmd_plot,
}


def run_cli(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_EXIT
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
