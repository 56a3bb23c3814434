"""The benchmark's three workloads: seeded inputs, the per-instance pipeline, its checks.

Each workload is a closed loop with one caller over *rounds*.  A round is
a fixed mix of instance classes in a fixed order, so every run, whatever
its seed, does the same kind of work; the seed only changes the instances
drawn into each class.  Inputs are generated before timing starts, from
the toolkit's own generators where it has one, and every instance is
checked by a route other than the one that produced its result.
"""

from __future__ import annotations

import dataclasses
import importlib
import random
import sys
from dataclasses import dataclass
from functools import partial
from math import log10
from types import SimpleNamespace
from typing import Callable

TOOLKIT_MODULES = ("classify", "fileformat", "generate", "geometry", "instance",
                   "solvers", "reductions.harness", "reductions.klabel",
                   "reductions.planar", "reductions.wsat")


class CheckFailed(AssertionError):
    """An output disagreed with its oracle."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def load_toolkit() -> SimpleNamespace:
    """Import the toolkit afresh, so that set-up time includes the import."""
    for name in [m for m in sys.modules if m == "mine" or m.startswith("mine.")]:
        del sys.modules[name]
    importlib.import_module("mine")
    return SimpleNamespace(**{m.replace("reductions.", ""): importlib.import_module(f"mine.{m}")
                              for m in TOOLKIT_MODULES})


def bind_layers(tk: SimpleNamespace, tracer) -> SimpleNamespace:
    """The toolkit functions the workloads call, each under its layer's span name."""
    w = tracer.wrap
    harness = tk.harness

    def materialized(fn):
        # The harness lists the feasible solutions itself; listing them inside
        # the span puts the enumeration in the source layer, not the harness.
        return lambda src: list(fn(src))

    def source(adapter):
        return harness.SourceAdapter(
            feasible_solutions=w("reductions.harness.source",
                                 materialized(adapter.feasible_solutions)),
            is_feasible=w("reductions.harness.source", adapter.is_feasible),
            measure=w("reductions.harness.source", adapter.measure))

    return SimpleNamespace(
        parse=w("fileformat.parse", tk.fileformat.parse_instance),
        serialize=w("fileformat.serialize", tk.fileformat.serialize_instance),
        write_trace=w("fileformat.serialize", tk.fileformat.write_trace),
        list_crossings=w("geometry.list_crossings", tk.geometry.list_crossings),
        general_position=w("geometry.general_position",
                           tk.geometry.validate_general_position),
        planarize=w("reductions.planar.planarize", tk.planar.planarize),
        planar_sigma=w("reductions.planar.sigma", tk.planar.planar_sigma),
        aux_per_crossing=tk.planar.AUX_PER_CROSSING,
        classify=w("classify.classify", tk.classify.classify),
        evaluate=w("instance.evaluate", tk.instance.evaluate),
        brute_force=w("solvers.brute_force", tk.solvers.solve_brute_force),
        elimination=w("solvers.elimination", tk.solvers.solve_elimination),
        mincut=w("solvers.mincut", tk.solvers.solve_submodular_qpbo),
        alpha_expansion=w("solvers.alpha_expansion", tk.solvers.alpha_expansion),
        verify=w("reductions.harness.verify", harness.verify_ap_reduction),
        oracle=w("reductions.harness.oracle", harness.default_oracle),
        sat_source=source(harness.SAT_SOURCE),
        energy_source=source(harness.ENERGY_SOURCE),
        to_qpbo=w("reductions.wsat.to_qpbo", tk.wsat.w3sat_to_qpbo),
        wsat_sigma=w("reductions.wsat.sigma", tk.wsat.w3sat_sigma),
        to_klabel=w("reductions.klabel.to_klabel", tk.klabel.qpbo_to_klabel),
        klabel_sigma=w("reductions.klabel.sigma", tk.klabel.klabel_sigma),
    )


@dataclass(frozen=True)
class Item:
    """One generated input: its class, the data the pipeline reads, and its size."""

    cls: str
    data: object
    nodes: int
    edges: int
    crossings: int
    labels: int  # every generated instance has a uniform label count

    @property
    def labelings_log10(self) -> float:
        return self.nodes * log10(self.labels)


@dataclass(frozen=True)
class Workload:
    name: str
    round_order: tuple[str, ...]  # the classes of one round, in run order
    distinct_rounds: int  # rounds generated; the loop runs each, then cycles through them
    tail_percentile: int
    generate: Callable  # (tk, seed, rounds) -> that many rounds, each a list of Items
    run: Callable  # (layers, tracer, item) -> None, raises on a failed check


def _stratified(round_order, rounds, draw, min_draws=0, max_draws=100_000):
    """Draw candidates i = 0, 1, ... until every class has its quota, then lay out rounds.

    Candidates of a class that is full or not in the round are dropped.  At
    least `min_draws` candidates are drawn, enough to fill the quotas for
    almost every seed, so that set-up work hardly depends on the seed.
    """
    quota = {c: round_order.count(c) * rounds for c in set(round_order)}
    pools = {c: [] for c in quota}
    i = 0
    while i < min_draws or any(len(pools[c]) < quota[c] for c in quota):
        if i == max_draws:
            raise RuntimeError(f"class quotas not filled after {max_draws} draws")
        item = draw(i)
        i += 1
        if len(pools.get(item.cls, ())) < quota.get(item.cls, 0):
            pools[item.cls].append(item)
    taken = {c: iter(pool) for c, pool in pools.items()}
    return [[next(taken[c]) for c in round_order] for _ in range(rounds)]


# ---------------------------------------------------------------------------
# planarize-pipeline: the random3label family of criterion 5, 1-3 crossings.
# A round holds twelve 1-crossing, two 2-crossing and one 3-crossing
# drawing.  The 1-crossing drawings set the round's median and tail; their
# time grows with the edge count, so their classes fix it too, at the
# generator's commonest counts.  The 2- and 3-crossing drawings take most
# of a round's time and set its throughput.

PLANARIZE_ROUND = ("cross1-e4", "cross1-e5", "cross1-e6", "cross2", "cross1-e5",
                   "cross1-e6", "cross1-e7", "cross3", "cross1-e4", "cross1-e5",
                   "cross1-e6", "cross2", "cross1-e5", "cross1-e6", "cross1-e7")
PLANARIZE_MIN_DRAWS = 80  # per round; 240 filled the quotas of three rounds for 30 seeds of 30


def generate_planarize(tk, seed: int, rounds: int):
    def draw(i):
        instance, drawing = tk.generate.random_crossed_3label(f"{seed}:planarize:{i}")
        crossings = len(tk.geometry.list_crossings(instance, drawing))
        edges = len(instance.edges)
        return Item(cls=f"cross1-e{edges}" if crossings == 1 else f"cross{crossings}",
                    data=tk.fileformat.serialize_instance(instance, drawing),
                    nodes=len(instance.nodes), edges=edges, crossings=crossings, labels=3)

    return _stratified(PLANARIZE_ROUND, rounds, draw, min_draws=PLANARIZE_MIN_DRAWS * rounds)


def run_planarize(L, tracer, item: Item) -> None:
    crossings = item.crossings
    tracer.add("fileformat.bytes_read", len(item.data))
    src, drawing = L.parse(item.data)
    check(not L.general_position(src, drawing), "source drawing not in general position")
    out, out_drawing, trace = L.planarize(src, drawing)
    tracer.add("reductions.planar.crossings_replaced", len(trace.crossings))
    tracer.add("reductions.planar.aux_nodes", len(trace.aux_nodes))
    written = L.serialize(out, out_drawing) + L.write_trace(trace)
    tracer.add("fileformat.bytes_written", len(written))
    solved = L.elimination(out)
    x = L.planar_sigma(src, trace, solved.labeling)
    brute = L.brute_force(src)
    tracer.add("solvers.brute_labelings", 3 ** len(src.nodes))
    check(solved.value == brute.value,
          f"planarized optimum {solved.value} != source optimum {brute.value}")
    check(L.evaluate(src, x) == brute.value, "planar_sigma does not reach the source optimum")
    check(len(trace.crossings) == crossings, "not every crossing was replaced")
    check(len(trace.aux_nodes) == L.aux_per_crossing * crossings,
          f"{len(trace.aux_nodes)} aux nodes for {crossings} crossings")
    left = L.list_crossings(out, out_drawing)
    tracer.add("geometry.segment_pairs", len(out.edges) * (len(out.edges) - 1) // 2)
    check(not left, f"{len(left)} crossings left after planarization")


# ---------------------------------------------------------------------------
# grid-solve: 4-neighbour grids, unary costs 0-20, edge weights 1-10.

GRID_CLASSES = {  # class: (rows, cols, labels, solver, oracle checks by elimination)
    "binary-20x20": (20, 20, 2, "mincut", False),
    "binary-7x7": (7, 7, 2, "mincut", True),
    "potts4-12x12": (12, 12, 4, "alphaexp", False),
    "potts3-5x5": (5, 5, 3, "alphaexp", True),
    "potts3-6x6": (6, 6, 3, "elim", False),
}
GRID_ROUND = tuple(GRID_CLASSES)


def grid_instance(tk, rng: random.Random, rows: int, cols: int, k: int):
    """Potts grid: random unary costs 0-20, one weight 1-10 per edge off the diagonal."""
    n = rows * cols
    unary = {u: tuple(rng.randint(0, 20) for _ in range(k)) for u in range(n)}
    pairwise = {}
    for u in range(n):
        right = [u + 1] if (u + 1) % cols else []
        down = [u + cols] if u + cols < n else []
        for v in right + down:
            w = rng.randint(1, 10)
            pairwise[(u, v)] = tuple(tuple(0 if a == b else w for b in range(k))
                                     for a in range(k))
    return tk.instance.make_instance({u: k for u in range(n)}, unary, pairwise)


def generate_grid(tk, seed: int, rounds: int):
    out = []
    for r in range(rounds):
        row = []
        for cls in GRID_ROUND:
            rows, cols, k, _, _ = GRID_CLASSES[cls]
            inst = grid_instance(tk, random.Random(f"{seed}:grid:{r}:{cls}"), rows, cols, k)
            row.append(Item(cls=cls, data=tk.fileformat.serialize_instance(inst),
                            nodes=len(inst.nodes), edges=len(inst.edges),
                            crossings=0, labels=k))
        out.append(row)
    return out


def run_grid(L, tracer, item: Item) -> None:
    _, _, _, solver, small = GRID_CLASSES[item.cls]
    tracer.add("fileformat.bytes_read", len(item.data))
    inst, drawing = L.parse(item.data)
    report = L.classify(inst, drawing)
    expected = "mincut" if item.labels == 2 else "alphaexp"  # binary / Potts
    check(report.solver == expected, f"classify routed a {item.cls} grid to {report.solver}")
    if solver == "mincut":
        res = L.mincut(inst)
    elif solver == "alphaexp":
        res = L.alpha_expansion(inst)
        tracer.add("solvers.alpha_moves_accepted", len(res.move_values) - 1)
        check(all(b < a for a, b in zip(res.move_values, res.move_values[1:])),
              "alpha-expansion accepted a move that did not lower the energy")
    else:
        res = L.elimination(inst)
    check(L.evaluate(inst, res.labeling) == res.value,
          f"{solver} reported {res.value}, its labeling evaluates otherwise")
    if small:
        opt = L.elimination(inst).value
        if solver == "mincut":
            check(res.value == opt, f"mincut {res.value} != elimination {opt}")
        else:
            check(opt <= res.value <= 2 * opt,
                  f"alpha-expansion {res.value} outside [opt, 2 opt], opt = {opt}")


# ---------------------------------------------------------------------------
# ap-verify: verify_ap_reduction on w3sat -> qpbo and qpbo -> 3-label.

W3SAT_CLASSES = tuple(f"w3sat-{n}v{m}c" for n in range(3, 7) for m in range(1, 5))
# 1-node instances are left out, so that the round has an odd number of
# classes (23) and its median falls inside a class band, not between two.
KLABEL_CLASSES = tuple(f"qpbo-{n}n" for n in range(2, 9))
AP_ROUND = W3SAT_CLASSES + KLABEL_CLASSES


def generate_ap(tk, seed: int, rounds: int):
    def draw_w3sat(i):
        sat = tk.generate.random_w3sat(f"{seed}:w3sat:{i}", max_vars=6, max_clauses=4)
        m = len(sat.clauses)
        return Item(cls=f"w3sat-{sat.num_vars}v{m}c", data=("w3sat", sat),
                    nodes=sat.num_vars + m, edges=0, crossings=0, labels=2)

    def draw_qpbo(i):
        inst = tk.generate.random_qpbo(f"{seed}:qpbo:{i}", max_nodes=8)
        return Item(cls=f"qpbo-{len(inst.nodes)}n", data=("klabel", inst),
                    nodes=len(inst.nodes), edges=len(inst.edges), crossings=0, labels=3)

    sats = _stratified(W3SAT_CLASSES, rounds, draw_w3sat)
    qpbos = _stratified(KLABEL_CLASSES, rounds, draw_qpbo)
    return [s + q for s, q in zip(sats, qpbos)]


def run_ap(L, tracer, item: Item) -> None:
    kind, src = item.data
    enumerated = []

    def oracle(target):  # keeps the target's enumeration for the optimum check
        enumerated[:] = L.oracle(target)
        return enumerated

    if kind == "w3sat":
        feasible = []

        def feasible_solutions(sat):  # keeps the harness's enumeration of the source
            feasible[:] = L.sat_source.feasible_solutions(sat)
            return feasible

        source = dataclasses.replace(L.sat_source, feasible_solutions=feasible_solutions)
        report = L.verify(L.to_qpbo, L.wsat_sigma, 1, [src], oracle=oracle, source=source)
        source_opt = min(src.measure(x) for x in feasible)
        # Without a satisfying assignment only all-true is feasible, and the
        # target's optimum may lie above its measure.
        exact = any(src.satisfies(x) for x in feasible)
    else:
        report = L.verify(partial(L.to_klabel, k=3), L.klabel_sigma, 1, [src],
                          oracle=oracle, source=L.energy_source)
        source_opt = L.brute_force(src).value
        tracer.add("solvers.brute_labelings", 2 ** item.nodes)
        exact = True
    tracer.add("reductions.harness.labelings", len(enumerated))
    tracer.add("reductions.harness.checked", report.checked)
    tracer.add("reductions.harness.ratio_checked", report.checked - len(report.ratio_undefined))
    check(report.ok, f"{kind} reduction counterexamples: {report.counterexamples[:3]}")
    check(report.checked == 1, f"harness checked {report.checked} instances, expected 1")
    target_opt = min(value for _, value in enumerated)
    check(target_opt == source_opt if exact else source_opt <= target_opt,
          f"{kind}: target optimum {target_opt}, source optimum {source_opt}")


WORKLOADS = {w.name: w for w in (
    Workload(name="planarize-pipeline",
             round_order=PLANARIZE_ROUND, distinct_rounds=3, tail_percentile=70,
             generate=generate_planarize, run=run_planarize),
    Workload(name="grid-solve",
             round_order=GRID_ROUND, distinct_rounds=20, tail_percentile=90,
             generate=generate_grid, run=run_grid),
    Workload(name="ap-verify",
             round_order=AP_ROUND, distinct_rounds=8, tail_percentile=94,
             generate=generate_ap, run=run_ap),
)}
