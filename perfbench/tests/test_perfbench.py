"""The benchmark's own tests: it prints what BENCHMARK.json names, its inputs are seeded.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_KERNEL_S, HostSpeed  # noqa: E402
from tracing import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_lists_what_run_reports():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in SPEC["end_to_end"]} == \
        set(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(name, unit) for name, _, _, unit in run.PER_LAYER]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_and_passes_its_checks(name, trace, kind):
    # --seconds 0 still runs one whole round.
    proc = bench(ROOT, "--workload", name, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(line.startswith(f"{metric} ") and line.endswith(f" {unit}")
                   for line in lines), metric
    assert "failed_ratio 0.0 ratio" in lines


def _input_bytes(tk, rounds) -> bytes:
    """Every generated input in its file format, in run order."""
    out = []
    for row in rounds:
        for item in row:
            if isinstance(item.data, str):  # already MINE 1 text
                out.append(item.data)
            else:
                kind, src = item.data
                out.append(tk.fileformat.serialize_wcnf3(src) if kind == "w3sat"
                           else tk.fileformat.serialize_instance(src))
    return "\x00".join(out).encode()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    generate = workloads.WORKLOADS[name].generate
    tk = workloads.load_toolkit()
    first = _input_bytes(tk, generate(tk, 7, 2))
    tk = workloads.load_toolkit()  # a fresh import must not change the inputs
    assert _input_bytes(tk, generate(tk, 7, 2)) == first
    assert _input_bytes(tk, generate(tk, 8, 2)) != first


def _lower_optimum(tk, layers):
    """Make one layer the workload calls report an optimum one too low."""

    def elimination(instance):
        res = tk.solvers.solve_elimination(instance)
        return dataclasses.replace(res, value=res.value - 1)

    def to_klabel(instance, k):
        target, trace = tk.klabel.qpbo_to_klabel(instance, k=k)
        return dataclasses.replace(target, constant=target.constant - 1), trace

    layers.elimination = elimination
    layers.to_klabel = to_klabel


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_a_wrong_optimum_fails_the_checks(name):
    workload = workloads.WORKLOADS[name]
    tk = workloads.load_toolkit()
    layers = workloads.bind_layers(tk, NullTracer())
    _lower_optimum(tk, layers)
    loop = run.Loop(workload, layers, workload.generate(tk, 3, 1), HostSpeed())
    run.run_untraced(loop, 0)
    assert loop.failed > 0


def test_host_speed_scales_by_the_probes_around_an_interval():
    speed = HostSpeed()
    # One probe a second: the host at full speed before t = 15 s, at half speed after.
    for t in range(30):
        speed.stamps.append(float(t))
        speed.kernel_s.append(REFERENCE_KERNEL_S * (1 if t < 15 else 2))
    assert speed.scaled(3.0, 5.0) == pytest.approx(2.0)
    assert speed.scaled(23.0, 25.0) == pytest.approx(1.0)
    # Past the last probe the nearest probes count.
    assert speed.scaled(40.0, 41.0) == pytest.approx(0.5)


def test_without_the_toolkit_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOAD_NAMES[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
