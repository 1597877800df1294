"""Self-tests of the benchmark: its helpers, its metric names and a short
smoke pass of each workload through the same correctness checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fracture1d import cli, material  # noqa: E402
from perfbench import run, tracing, workloads  # noqa: E402
from perfbench.probe import SpeedProbe  # noqa: E402
from perfbench.workloads import C_LJ, WORKLOADS, Op, OpResult, sharp_count, sharp_energy  # noqa: E402


def test_percentile_reports_rank_and_samples_above():
    samples = list(range(1000, 0, -1))
    assert run.percentile(samples, 50) == (500, 500)
    assert run.percentile(samples, 99) == (990, 10)
    assert run.percentile([7.0], 99) == (7.0, 0)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_speed_probe_samples_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        stop = perf_counter() + 0.05
        while perf_counter() < stop:
            pass
    assert probe.count >= 3 and probe.busy > 0.0 and probe.factor() > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_time_inside_an_op_is_not_latency():
    class Probe:
        busy = 0.0

    class Cli:
        @staticmethod
        def main(argv):
            Probe.busy += 5.0  # as if the probe had run for 5 s during the op
            return 0

    latencies, results = run.run_pass(Cli, [Op(("cwstar",), {})], Probe)
    assert -5.0 < latencies[0] < -4.9 and results[0].code == 0


def test_self_times_subtract_merged_child_coverage():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and
    # c [9, 12], which runs past it; a has a child [2, 3].
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert tracing.self_times(start, end, parent) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_layer_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("material.wstar", lambda: sum(range(2000)))
    mid = tracer.wrap("regularized.minimize", lambda: [leaf() for _ in range(3)])
    top = tracer.wrap("cli.main", lambda: (mid(), leaf()))
    top()
    summary = tracing.summarize(tracer)
    assert summary["material.wstar"]["calls"] == 4
    assert summary["regularized.minimize"]["calls"] == 1
    root = summary["cli.main"]["busy_s"]
    assert sum(tracing.layer_self(summary).values()) == pytest.approx(root, rel=1e-9)
    assert tracing.wrapper_cost(calls=200, trials=3) >= 0.0


def test_install_wraps_call_sites_and_undo_restores_them():
    originals = {(m, a): getattr(sys.modules[f"fracture1d.{m}"], a) for m, a, _ in tracing.PATCHES}
    builtin_lj = material.builtin_lj
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        assert all(getattr(sys.modules[f"fracture1d.{m}"], a) is not f for (m, a), f in originals.items())
        model = material.resolve_model("lj")
        model.wstar(0.5)
        model.wstar_prime(0.5)
    finally:
        undo()
    assert {tracer.names[i] for i in tracer.name_id} >= {"material.wstar", "material.wstar_prime"}
    assert all(getattr(sys.modules[f"fracture1d.{m}"], a) is f for (m, a), f in originals.items())
    assert material.builtin_lj is builtin_lj


def test_metric_and_workload_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_spec()
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    assert bench["command"] == ["python3", "perfbench/run.py"]


def test_closed_form_reference_matches_the_paper_values():
    assert sharp_count(C_LJ, 200.0, 1.5) == 4
    assert sharp_energy(4, C_LJ, 200.0, 1.5) == pytest.approx(2.0293, abs=1e-3)
    assert WORKLOADS["closed-form"].points(5) == WORKLOADS["closed-form"].points(5)
    assert WORKLOADS["closed-form"].points(5) != WORKLOADS["closed-form"].points(6)


def _result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_closed_form_smoke_run_prints_every_metric(monkeypatch, capsys, trace):
    small = replace(WORKLOADS["closed-form"], pairs=3)
    monkeypatch.setitem(WORKLOADS, "closed-form", small)
    argv = ["--workload", "closed-form", "--seed", "11", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = _result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    spec = run.per_layer_spec() if trace else list(run.E2E)
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == spec
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert result["metrics"]["rescaled_energy_final"]["value"] == pytest.approx(C_LJ, abs=1e-10)
    else:
        assert result["metrics"]["sharp.build_sharp_minimizer.calls"]["value"] > 0
        assert result["metrics"]["regularized.project_h.calls"]["value"] == 0


def test_traced_run_fails_a_layer_that_records_no_time(monkeypatch, capsys):
    # closed-form never calls regularized; claiming it must fail the coverage check.
    small = replace(WORKLOADS["closed-form"], pairs=2, layers=("cli", "regularized"))
    monkeypatch.setitem(WORKLOADS, "closed-form", small)
    argv = ["--workload", "closed-form", "--seed", "3", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
    assert "no self time recorded in layers the workload calls: regularized" in err


@pytest.mark.parametrize(
    "name, grid", [("sweep-V", 200), ("sweep-I", 400)]
)
def test_sweep_smoke_pass_meets_the_acceptance_checks(tmp_path, name, grid):
    small = replace(WORKLOADS[name], grid=grid, epsilons=(0.08, 0.04), max_iterations=100, multistart=1)
    ops = small.ops(0, tmp_path)
    latencies, results = run.run_pass(cli, ops)
    failures, quality = small.check(ops, results, tmp_path)
    assert failures == [None] and len(latencies) == 1
    assert 0.0 < quality["rescaled_energy_final"] <= 1.15 * 2.0293
    # The same checks must catch an output that misses the criteria.
    path = next(tmp_path.glob("*.json"))
    report = json.loads(path.read_text(encoding="utf-8"))
    report["rows"][-1]["transition_count"] += 1
    path.write_text(json.dumps(report), encoding="utf-8")
    failures, _ = small.check(ops, results, tmp_path)
    assert failures[0] is not None and "transition count" in failures[0]


def test_failed_ops_are_counted_not_raised(tmp_path):
    form = workloads.ClosedForm("closed-form", "", pairs=1)
    ops = form.ops(0, tmp_path)
    bad = [Op(("sharp", "--lambda", "0.5", "--mu", "1", "--out", str(tmp_path)), ops[0].expect)] + ops[1:]
    latencies, results = run.run_pass(cli, bad)
    assert results[0].code == cli.EXIT_CONFIG
    failures, _ = form.check(bad, results, tmp_path)
    assert failures[0].startswith("sharp: exit code")
    assert failures[1] is not None  # no field file was written to reconstruct from
    wrong = OpResult(0, "0.3771 +/- 1e-12\n", "")
    assert "cwstar" in form.check(ops[3:], [wrong], tmp_path)[0][0]
