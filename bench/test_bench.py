"""Tests of the benchmark harness itself, mostly on tiny shapes (`--smoke`).

    python3 -m pytest bench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
WRAPPED = {f"{module}.{fn}" for module, fns in spans.LAYERS.items() for fn in fns}

SOLVER_CORE = {
    "matrices.normalize_rows", "instances.generate_gaussian",
    "quantiles.q_quantile", "quantiles.acceptable_set",
    "bregman.exact_step", "bregman.soft_shrink",
    "solvers.sample_index", "solvers.step_single", "solvers.run",
}
# Wrapped functions each workload is meant to exercise; it must bypass the rest.
EXERCISED = {
    "desk-single-row": SOLVER_CORE | {"bregman.bregman_distance"},
    "paper-width": SOLVER_CORE | {"solvers.step_averaged_block", "solvers.median_of_trials"},
    "cli-bundle": WRAPPED,
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def smoke(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {(w, t): smoke(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_the_result(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(results, workload):
    metrics = results[workload, 0]["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


def test_run_averages_are_printed_but_not_gated():
    proc = bench("--workload", "desk-single-row", "--seed", "3", "--seconds", "0.5",
                 "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    table = {line.split()[1]: line for line in proc.stdout.splitlines()[:-1]
             if line.startswith("# ") and len(line.split()) > 2}
    gated = {m["name"] for m in SPEC["end_to_end"]}
    for name, unit in run.RUN_AVERAGES.items():
        assert name not in gated
        assert f" {unit}  (run average, not gated)" in table[name]
    assert "failed_frac" in table


def test_best_metrics_take_each_kind_and_step_at_its_fastest():
    run.load_program()
    from workloads import Solve

    def solve(engine, budget, seconds, traced=False):
        return Solve(trial=0, engine=engine, budget=budget, seconds=seconds, iters=budget,
                     rel_error=0.1, iters_to_tol=1, ok=True, traced=traced)

    solves = [solve("a", 600, 0.2), solve("a", 600, 0.1), solve("b", 200, 0.3),
              solve("b", 200, 0.05, traced=True), solve("c", 40, 0.001)]
    fastest = run.fastest_solves(solves, {("a", 600), ("b", 200)})
    assert sorted(s.seconds for s in fastest) == [0.1, 0.3]
    assert run.iters_per_s(fastest) == pytest.approx(800 / 0.4)
    assert run.sum_of_fastest({"setup": [0.5, 0.25], "solve": [1.0, 2.0]}) == 1.25


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_printed_with_its_unit(results, workload):
    metrics = results[workload, 1]["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exercised_layers_are_called(results, workload):
    metrics = results[workload, 1]["metrics"]
    idle = [f for f in EXERCISED[workload] if metrics[f"{f}.calls"]["value"] == 0]
    assert idle == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bypassed_layers_are_not_called(results, workload):
    metrics = results[workload, 1]["metrics"]
    called = [f for f in WRAPPED - EXERCISED[workload]
              if metrics[f"{f}.calls"]["value"] != 0]
    assert called == []


@pytest.mark.parametrize("workload", ["desk-single-row", "paper-width"])
def test_traced_counts_repeat_exactly(results, workload):
    again = smoke(workload, 1)["metrics"]
    first = results[workload, 1]["metrics"]
    counts = [name for name in first
              if name.endswith(".calls") or name == "solvers.iters_to_tol.p50"]
    assert {n: first[n] for n in counts} == {n: again[n] for n in counts}


def test_failed_output_check_fails_the_run(monkeypatch, capsys):
    run.load_program()
    import workloads

    desk = workloads.WORKLOADS["desk-single-row"]
    strict = dataclasses.replace(desk.smoke, max_rel={("single-row-inexact", 40): 0.0})
    monkeypatch.setitem(workloads.WORKLOADS, desk.name,
                        dataclasses.replace(desk, smoke=strict))
    code = run.main(["--workload", desk.name, "--seed", "3", "--seconds", "0.2",
                     "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2


def run_full_once(monkeypatch, capsys, workload):
    """One measured trial of `workload` at its full size; (exit code, result)."""
    import workloads

    w = workloads.WORKLOADS[workload]
    monkeypatch.setitem(workloads.WORKLOADS, workload,
                        dataclasses.replace(w, full=dataclasses.replace(w.full, min_trials=1)))
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0"])
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


# workload -> (solves that fail with no-op steps, checks attempted) in one trial
NOOP_FAILURES = {
    "desk-single-row": (2, 2),
    "paper-width": (6, 6),
    "cli-bundle": (3, 6),   # generate and spectral pass; each solve command fails
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_op_solver_fails_the_run(monkeypatch, capsys, workload):
    run.load_program()
    from qkaczmarz import solvers

    def no_op(state, *args):
        return dataclasses.replace(state, k=state.k + 1)

    monkeypatch.setattr(solvers, "step_single", no_op)
    monkeypatch.setattr(solvers, "step_averaged_block", no_op)
    code, result = run_full_once(monkeypatch, capsys, workload)
    assert code == 1
    assert (result["failed"], result["attempted"]) == NOOP_FAILURES[workload]


@pytest.mark.parametrize("workload, failures", [("desk-single-row", (1, 2)),
                                                ("paper-width", (3, 6))])
def test_wrong_exact_step_fails_the_run(monkeypatch, capsys, workload, failures):
    run.load_program()
    from qkaczmarz import bregman

    exact_step = bregman.exact_step
    monkeypatch.setattr(bregman, "exact_step", lambda *args: 0.9 * exact_step(*args))
    code, result = run_full_once(monkeypatch, capsys, workload)
    assert code == 1
    assert (result["failed"], result["attempted"]) == failures


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "desk-single-row", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(42) == 75
    assert run.tail_percentile(21) == 50


def test_compare_refuses_results_with_different_blas_threads(tmp_path):
    def write(name, threads):
        record = {"workload": "desk-single-row", "trace": 0, "metrics": {},
                  "machine": {"blas_threads": threads}}
        path = tmp_path / name
        path.write_text(json.dumps(record) + "\n")
        return str(path)

    with pytest.raises(SystemExit) as exc:
        compare.main([write("a.jsonl", "OPENBLAS_NUM_THREADS=1"),
                      write("b.jsonl", "OPENBLAS_NUM_THREADS=2")])
    assert exc.value.code == 2
