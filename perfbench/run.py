"""Toolkit benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload grid-solve --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the toolkit from its
`src/`.  The workload is a closed loop with one caller and one thread: it
runs every generated round of instances once, then whole rounds again
until `--seconds` have passed, checks every output against an independent
oracle, and prints one JSON result as the last line of standard output.
Every time it reports is scaled to a reference host speed (hostspeed.py).

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs every
instance twice, untraced and traced, in alternating order; the traced
runs give the per-layer metrics and the untraced ones the tracing
overhead.  Any failed check makes the exit code 1; a checkout without the
toolkit gives exit code 2 and no result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from math import ceil
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_KERNEL_S, HostSpeed
from tracing import INSTANCE_SPAN, NullTracer, Tracer
from workloads import WORKLOADS, bind_layers, load_toolkit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
SETUP_PROBES = 3  # host-speed probes between two set-up passes
MAX_TRACEBACKS = 3

NOT_CONTROLLED = ("cores are shared with other tenants; the process is not pinned "
                  "to a CPU; the file cache is not dropped; CPU frequency is not fixed")

END_TO_END_UNITS = {"instances_per_s": "1/s", "instance_p50_s": "s",
                    "instance_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics, each averaged over the traced instances:
# (metric, kind, span or counter name, unit).  "busy" is the summed span
# duration, "self" the duration its child spans leave over, "calls" the
# span count, "count" a counter the workload adds at the same call.
PER_LAYER = (
    ("geometry.list_crossings_s", "busy", "geometry.list_crossings", "s/instance"),
    ("geometry.list_crossings_calls", "calls", "geometry.list_crossings", "1/instance"),
    ("geometry.segment_pairs", "count", "geometry.segment_pairs", "1/instance"),
    ("geometry.general_position_s", "busy", "geometry.general_position", "s/instance"),
    ("reductions.planar.planarize_s", "busy", "reductions.planar.planarize", "s/instance"),
    ("reductions.planar.crossings_replaced", "count",
     "reductions.planar.crossings_replaced", "1/instance"),
    ("reductions.planar.aux_nodes", "count", "reductions.planar.aux_nodes", "1/instance"),
    ("reductions.planar.sigma_s", "busy", "reductions.planar.sigma", "s/instance"),
    ("solvers.elimination_s", "busy", "solvers.elimination", "s/instance"),
    ("solvers.elimination_calls", "calls", "solvers.elimination", "1/instance"),
    ("solvers.mincut_s", "busy", "solvers.mincut", "s/instance"),
    ("solvers.alpha_expansion_s", "busy", "solvers.alpha_expansion", "s/instance"),
    ("solvers.alpha_moves_accepted", "count", "solvers.alpha_moves_accepted", "1/instance"),
    ("classify.classify_s", "busy", "classify.classify", "s/instance"),
    ("solvers.brute_force_s", "busy", "solvers.brute_force", "s/instance"),
    ("solvers.brute_labelings", "count", "solvers.brute_labelings", "1/instance"),
    ("reductions.harness.verify_s", "busy", "reductions.harness.verify", "s/instance"),
    ("reductions.harness.oracle_s", "busy", "reductions.harness.oracle", "s/instance"),
    ("reductions.harness.source_s", "busy", "reductions.harness.source", "s/instance"),
    ("reductions.harness.self_s", "self", "reductions.harness.verify", "s/instance"),
    ("reductions.harness.labelings", "count", "reductions.harness.labelings", "1/instance"),
    ("reductions.harness.ratio_checked_ratio", "ratio",
     ("reductions.harness.ratio_checked", "reductions.harness.checked"), "ratio"),
    ("reductions.wsat.to_qpbo_s", "busy", "reductions.wsat.to_qpbo", "s/instance"),
    ("reductions.wsat.sigma_s", "busy", "reductions.wsat.sigma", "s/instance"),
    ("reductions.klabel.to_klabel_s", "busy", "reductions.klabel.to_klabel", "s/instance"),
    ("reductions.klabel.sigma_s", "busy", "reductions.klabel.sigma", "s/instance"),
    ("instance.evaluate_s", "busy", "instance.evaluate", "s/instance"),
    ("instance.evaluate_calls", "calls", "instance.evaluate", "1/instance"),
    ("fileformat.parse_s", "busy", "fileformat.parse", "s/instance"),
    ("fileformat.serialize_s", "busy", "fileformat.serialize", "s/instance"),
    ("fileformat.bytes_read", "count", "fileformat.bytes_read", "B/instance"),
    ("fileformat.bytes_written", "count", "fileformat.bytes_written", "B/instance"),
    ("bench.self_s", "self", INSTANCE_SPAN, "s/instance"),
    ("trace.overhead_ratio", "overhead", None, "ratio"),
)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(ceil(p / 100 * len(ordered)), 1) - 1]


def git_commit(root: Path) -> str | None:
    """HEAD's commit, or None outside a git repository or without git.

    git runs only where the checkout has its own `.git`, so that it never
    reads a repository above the checkout.
    """
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def set_up(workload, seed: int, speed: HostSpeed):
    """Import the toolkit and generate the inputs SETUP_REPEATS times; keep the last.

    Returns the (start, end) wall times of every pass; the host speed is
    probed before and after each.
    """
    passes = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            speed.probe()
        t0 = perf_counter()
        tk = load_toolkit()
        rounds = workload.generate(tk, seed, workload.distinct_rounds)
        passes.append((t0, perf_counter()))
    for _ in range(SETUP_PROBES):
        speed.probe()
    imported_from = Path(tk.instance.__file__).resolve()
    if SRC not in imported_from.parents:
        raise ImportError(f"toolkit imported from {imported_from}, not from {SRC}")
    return tk, rounds, passes


class Loop:
    """Closed loop, one caller: whole rounds until the time is up, host speed probed between."""

    def __init__(self, workload, layers, rounds, speed: HostSpeed):
        self.workload = workload
        self.layers = layers
        self.rounds = rounds
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.rounds_run = 0

    def run_one(self, layers, tracer, item) -> tuple[float, float] | None:
        """(start, end) wall time of one checked instance, or None if it raised or failed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            self.workload.run(layers, tracer, item)
        except Exception:  # noqa: BLE001 - counted as failed and reported, the loop goes on
            self.failed += 1
            if self.failed <= MAX_TRACEBACKS:
                print(f"instance of class {item.cls} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return None
        return t0, perf_counter()

    def items(self, seconds: float):
        """Yield (instance id, item): every generated round once, then more until `seconds` have passed.

        The instance id modulo `self.distinct` says which generated instance it is.
        """
        start = perf_counter()
        while self.rounds_run < len(self.rounds) or perf_counter() - start < seconds:
            row = self.rounds[self.rounds_run % len(self.rounds)]
            for j, item in enumerate(row):
                self.speed.maybe_probe()
                yield self.rounds_run * len(row) + j, item
            self.rounds_run += 1
        self.speed.probe()

    @property
    def distinct(self) -> int:
        return sum(len(row) for row in self.rounds)


def run_untraced(loop: Loop, seconds: float):
    """(instance id, class, (start, end) wall time) of each verified instance, and the phase's wall time."""
    runs = []
    start = perf_counter()
    for iid, item in loop.items(seconds):
        interval = loop.run_one(loop.layers, NullTracer(), item)
        if interval is not None:
            runs.append((iid, item.cls, interval))
    return runs, perf_counter() - start


def run_traced(loop: Loop, tk, seconds: float):
    """The tracer, and per verified pair: untraced wall time, traced interval, instance id."""
    tracer = Tracer()
    traced_layers = bind_layers(tk, tracer)
    pairs = []
    for iid, item in loop.items(seconds):
        pair = {}
        for traced_run in ((False, True) if iid % 2 == 0 else (True, False)):
            if traced_run:
                with tracer.instance(iid):
                    pair[True] = loop.run_one(traced_layers, tracer, item)
            else:
                pair[False] = loop.run_one(loop.layers, NullTracer(), item)
        if None not in pair.values():
            pairs.append((pair[False][1] - pair[False][0], pair[True], iid))
    return tracer, pairs


def end_to_end_metrics(workload, by_class, setup_times):
    """`by_class` holds one time per generated instance, in seconds at the reference host speed.

    Throughput is that of one round with every class at its median time, so
    that one costly instance of a class moves it less.  Set-up is the median
    of the passes after the first, which alone also imports the standard
    library modules the toolkit needs.  Latencies read 0 when no instance
    passed its checks; the run then fails anyway.
    """
    times = [t for ts in by_class.values() for t in ts]
    round_s = sum(statistics.median(by_class[cls]) for cls in workload.round_order
                  if cls in by_class)
    values = {
        "instances_per_s": len(workload.round_order) / round_s if round_s else 0.0,
        "instance_p50_s": percentile(times, 50) if times else 0.0,
        "instance_tail_s": percentile(times, workload.tail_percentile) if times else 0.0,
        "setup_s": statistics.median(setup_times[1:]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(tracer: Tracer, pairs, speed: HostSpeed):
    """Span times are scaled per instance to the reference host speed, like the end-to-end ones."""
    scale = {iid: speed.scale(*interval) for _, interval, iid in pairs}
    busy, own, calls = tracer.summary(scale)
    n = max(calls[INSTANCE_SPAN], 1)
    counters = tracer.counters
    out = {}
    for name, kind, key, unit in PER_LAYER:
        if kind == "busy":
            value = busy[key] / n
        elif kind == "self":
            value = own[key] / n
        elif kind == "calls":
            value = calls[key] / n
        elif kind == "count":
            value = counters[key] / n
        elif kind == "ratio":
            num, den = key
            value = counters[num] / counters[den] if counters[den] else 0.0
        else:  # overhead: traced over untraced wall time of the same instances, run back to back
            plain = sum(p for p, _, _ in pairs)
            value = sum(t1 - t0 for _, (t0, t1), _ in pairs) / plain if plain else 0.0
        out[name] = (value, unit)
    shares = {name: busy[name] / busy[INSTANCE_SPAN] for name in sorted(busy)
              if name != INSTANCE_SPAN and busy[INSTANCE_SPAN]}
    return out, shares


def describe_inputs(rounds):
    """Size descriptors per instance class, over every generated round."""
    by_cls = {}
    for row in rounds:
        for item in row:
            by_cls.setdefault(item.cls, []).append(item)
    out = {}
    for cls, items in by_cls.items():
        desc = {"instances": len(items), "labels": items[0].labels}
        for field in ("nodes", "edges", "crossings", "labelings_log10"):
            vals = [getattr(item, field) for item in items]
            desc[field] = [min(vals), statistics.mean(vals), max(vals)]
        out[cls] = desc
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "mine" / "__init__.py").is_file():
        print(f"error: no toolkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    speed = HostSpeed()
    try:
        tk, rounds, setup_passes = set_up(workload, args.seed, speed)
    except ImportError as exc:
        print(f"error: cannot import the toolkit: {exc}", file=sys.stderr)
        return 2

    loop = Loop(workload, bind_layers(tk, NullTracer()), rounds, speed)
    meta = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, 1 caller, 1 thread, whole rounds",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(ROOT),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "not_controlled": NOT_CONTROLLED,
        "round": list(workload.round_order),
        "distinct_rounds": len(rounds),
        "inputs": describe_inputs(rounds),
    }
    lines = []
    if args.trace:
        tracer, pairs = run_traced(loop, tk, args.seconds)
        metrics, shares = per_layer_metrics(tracer, pairs, speed)
        spans_path = OUT / f"spans-{workload.name}.tsv"
        tracer.write(spans_path)
        meta.update(traced_instances=len(pairs),
                    spans=len(tracer.name_id),
                    spans_file=str(spans_path.relative_to(ROOT)))
        lines += [f"share {name} {share:.4f}" for name, share in shares.items()]
    else:
        runs, elapsed = run_untraced(loop, args.seconds)
        repeats, cls_of = {}, {}
        for iid, cls, interval in runs:
            repeats.setdefault(iid % loop.distinct, []).append(speed.scaled(*interval))
            cls_of[iid % loop.distinct] = cls
        # One time per generated instance, the median of its repeats, so that
        # every run of a seed reports on the same instances whatever the host's
        # speed, and a slow moment of the host does not carry into the figures.
        per_instance = {key: statistics.median(ts) for key, ts in repeats.items()}
        times = list(per_instance.values())
        by_class = {}
        for key, t in per_instance.items():
            by_class.setdefault(cls_of[key], []).append(t)
        setup_times = [speed.scaled(*iv) for iv in setup_passes]
        metrics = end_to_end_metrics(workload, by_class, setup_times)
        beyond = sum(t > metrics["instance_tail_s"][0] for t in times)
        meta.update(timed_wall_s=elapsed, runs=len(runs),
                    wall_instances_per_s=len(runs) / elapsed,
                    wall_instance_s=sum(t1 - t0 for _, _, (t0, t1) in runs),
                    class_p50_s={cls: statistics.median(ts) for cls, ts in by_class.items()},
                    tail={"percentile": workload.tail_percentile, "samples": len(times),
                          "beyond": beyond},
                    setup_samples_s=setup_times)
    failed_ratio = loop.failed / loop.attempted
    kernel_s = speed.kernel_s
    meta.update(host_speed={"reference_kernel_s": REFERENCE_KERNEL_S, "probes": len(kernel_s),
                            "kernel_s": [min(kernel_s), statistics.median(kernel_s),
                                         max(kernel_s)]},
                rounds_run=loop.rounds_run, attempted=loop.attempted,
                failed=loop.failed, failed_ratio=failed_ratio)

    print("meta " + json.dumps(meta))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_ratio {failed_ratio!r} ratio")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
