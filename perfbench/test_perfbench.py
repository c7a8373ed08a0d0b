"""Tests of the benchmark itself: span arithmetic, output contract, gates.

Run from the repository root with ``python3 -m pytest perfbench``.  The
output-contract tests run each workload for one second (slot-average runs
one full operation, about 20 s on two cores).
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
from qiclab.suite import SuiteResult  # noqa: E402
from tracing import Span, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0, None),
        Span("a", 1.0, 4.0, 0, 0, None),
        Span("a.child", 2.0, 3.0, 1, 0, None),
        Span("b", 3.0, 6.0, 0, 0, None),  # overlaps a: the union counts once
        Span("c", 9.0, 12.0, 0, 0, None),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 3.0])


def test_layer_metrics_exclude_children_and_average_per_operation():
    spans = [
        Span("measures.cond_mutual_info", 0.0, 1.0, -1, 0, None),
        Span("measures.entropy", 0.1, 0.3, 0, 0, {"work": 8, "repeat": False}),
        Span("measures.entropy", 0.4, 0.5, 0, 0, {"work": 8, "repeat": True}),
        Span("protocol.run", 1.0, 2.0, -1, 1, {"messages": 2, "retained_mb": 1.5}),
    ]
    m = layer_metrics(spans, n_ops=2)
    assert m["measures.cmi.self_s"] == pytest.approx(0.7 / 2)
    assert m["measures.entropy.self_s"] == pytest.approx(0.3 / 2)
    assert m["measures.entropy.calls"] == 1.0
    assert m["measures.entropy.work"] == 8.0
    assert m["measures.entropy.repeat_ratio"] == 0.5
    assert m["measures.entropy.calls_per_message"] == 1.0
    assert m["protocol.run.retained_mb"] == 0.75


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    lines = _run(workload, 0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(name + " ") and line.endswith(" " + unit) for line in lines)
    assert any(line.startswith("fail_ratio ") and " 0 ratio " in line for line in lines)


@pytest.mark.parametrize("workload", ["rates-files", "suite-light"])
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    result = json.loads(_run(workload, 1)[-1])
    assert result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == want
    assert result["metrics"]["measures.entropy.calls"]["value"] > 0


def test_wrong_results_and_exceptions_count_as_failures(tmp_path):
    wl = WORKLOADS["rates-files"]
    cases = wl.setup(5, tmp_path)
    terms, steps, budget, qcc_value = wl.op(cases, 0)
    assert wl.gate(cases, 0, (terms, steps, budget, qcc_value)) == []

    def corrupt(cases, k):  # wrong, raises, right
        if k == 1:
            raise RuntimeError("boom")
        bias = 1e-6 if k == 0 else 0.0
        return [terms[0] + bias] + terms[1:], steps, budget, qcc_value

    w = run.run_ops(dataclasses.replace(wl, op=corrupt, cycle=3), cases, n_ops=3)
    assert len(w.durations) == 3
    assert w.failed == 2
    assert any("boom" in e for e in w.errors)


def test_slot_gate_checks_the_halving_residual_beyond_status():
    def result(check_id, lhs, rhs):
        return SuiteResult(check_id, "pass", "eq", lhs, rhs, 1e-5, 1.0, 0, "")

    good = [result(c, 0.5, 0.5) for c in ("and-average-channel", "and-average-halving", "and-average-pure")]
    gate = WORKLOADS["slot-average"].gate
    assert gate([1], 0, good) == []
    bad = [dataclasses.replace(r, lhs=0.5 + 2e-5) if r.check_id == "and-average-halving" else r for r in good]
    assert gate([1], 0, bad) != []
    assert gate([1], 0, good[:2]) != []


def test_gauge_scales_each_piece_by_the_probes_around_it():
    g = run.Gauge()
    n = reference.NOMINAL_S
    g.probes = [n, n, 2 * n]
    g.pieces = [(0, 1.0, 0), (0, 1.0, 1), (1, 3.0, 1)]
    assert g.factors() == pytest.approx([1.0, 1 / 1.5])
    assert g.scaled(2) == pytest.approx([1.0 + 1 / 1.5, 2.0])


@pytest.mark.parametrize("workload", ["rates-files", "suite-light"])
def test_gauged_run_leaves_probes_out_and_keeps_the_results(workload, tmp_path):
    wl = WORKLOADS[workload]
    cases = wl.setup(5, tmp_path)
    w = run.run_ops(wl, cases, n_ops=wl.cycle, probe=True)
    assert w.failed == 0, w.errors
    g = w.gauge
    assert len(g.probes) >= 2 and g.pending == 0.0
    assert sum(w.durations) == pytest.approx(sum(dt for _, dt, _ in g.pieces))
    assert sum(w.durations) < w.cycles[0]
    assert all(s > 0 for s in g.scaled(len(w.durations)))
