"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

PROGRAM = run.load_program()


def test_same_seed_same_jobs_other_seed_other_jobs():
    for workload in workloads.WORKLOADS:
        first = workloads.job_list(workload, 7)
        assert first == workloads.job_list(workload, 7)
        assert first != workloads.job_list(workload, 8)


def test_every_drawable_job_has_a_reference():
    reference = checks.load_reference()
    for workload in ("spectra", "coupling_sweeps"):
        keys = {job.key for job in workloads.catalogue(workload)}
        assert keys <= set(reference)
        for seed in range(40):
            assert {j.key for j in workloads.job_list(workload, seed)} <= keys


def test_rounds_do_the_same_work_for_every_seed():
    def grids(workload, seed):
        return sorted(a for job in workloads.job_list(workload, seed)
                      for k, a in zip(job.argv, job.argv[1:]) if k == "--grid")

    for workload in workloads.WORKLOADS:
        assert grids(workload, 1) == grids(workload, 2) == grids(workload, 99)


def test_self_time_on_a_synthetic_span_tree():
    # [name, start, end, parent, job, error]
    spans = [
        ["cli.run", 0.0, 10.0, None, 0, None],
        ["csvio.write_csv", 1.0, 6.0, 0, 0, None],
        ["analysis.sweep_spectrum", 2.0, 3.0, 1, 0, None],
        ["analysis.sweep_spectrum", 4.0, 5.5, 1, 0, None],
        ["response.evaluate_spectrum", 4.5, 5.0, 3, 0, None],
        # overlapping children (as from threads) are covered once
        ["oracle.cross_validate", 7.0, 9.0, 0, 0, None],
        ["util.pmap", 7.0, 8.0, 5, 0, None],
        ["util.pmap", 7.5, 8.5, 5, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - 5.0 - 2.0, 5.0 - 2.5, 1.0, 1.0, 0.5, 2.0 - 1.5, 1.0, 1.0])


def _run_checked(job, ws):
    _, code, stderr = run.run_job(PROGRAM, job, ws)
    return code, stderr


@pytest.fixture
def workspace():
    ws = run.Workspace([workloads.G5_JOB] + workloads.catalogue("spectra"))
    yield ws
    ws.close()


def _reference():
    return checks.load_reference()


def _rewrite_cell(path, column, pick, change):
    """Apply ``change`` to ``column`` in the data row ``pick`` selects."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    k = lines[0].split(",").index(column)
    data = [i for i, ln in enumerate(lines) if i and not ln.startswith("#")]
    values = [float(lines[i].split(",")[k]) for i in data]
    row = data[pick(values)]
    cells = lines[row].split(",")
    cells[k] = repr(change(float(cells[k])))
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_check_rejects_a_perturbed_csv_and_a_bad_manifest(workspace):
    job = next(j for j in workloads.catalogue("spectra")
               if j.kind == "spectrum" and j.cfg == "b0")
    ref = _reference()[job.key]
    parse = PROGRAM.params.parse_config

    def check():
        return checks.check_job(job, code, stderr, workspace.out, ref, parse)

    code, stderr = _run_checked(job, workspace)
    assert check() == ("ok", int(job.argv[4]), [])

    def largest(v):
        return max(range(len(v)), key=lambda i: abs(v[i]))

    # the absorption peak off by one part in ten thousand
    _rewrite_cell(workspace.out, "re_eout", largest, lambda x: x * (1 + 1e-4))
    status, _, problems = check()
    assert status == "failed" and any("re_eout" in p for p in problems)

    # the largest group delay with its sign flipped
    _run_checked(job, workspace)
    _rewrite_cell(workspace.out, "tau_s", largest, lambda x: -x)
    status, _, problems = check()
    assert status == "failed" and any("tau_s" in p for p in problems)

    # one off-peak group delay moved by the column's mean |tau|: against
    # the whole column's absolute sum that is only 1/rows, below TAU_RTOL
    _run_checked(job, workspace)
    tau = checks.read_csv(workspace.out)[1]["tau_s"]
    mean_abs = float(np.mean(np.abs(tau)))
    n = checks.BIN_ROWS
    bins = np.add.reduceat(np.abs(tau), np.arange(0, tau.size, n))[:-1]
    quiet = [k for k, a in enumerate(bins) if a < n * mean_abs]
    assert quiet
    row = quiet[len(quiet) // 2] * n + n // 2
    _rewrite_cell(workspace.out, "tau_s", lambda v: row,
                  lambda x: x + mean_abs)
    status, _, problems = check()
    assert status == "failed" and any("tau_s" in p for p in problems)

    _run_checked(job, workspace)
    manifest = checks.output_paths(workspace.out)["manifest"]
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("coupling_mode = microscopic\n")     # duplicate key
    status, _, problems = check()
    assert status == "failed"
    assert any("manifest does not re-parse" in p for p in problems)


def test_check_rejects_a_validate_grid_that_moved(workspace):
    job = workloads.Job(key="validate", cfg="b0", grid=1001, argv=(
        "validate", "--config", "{cfg}", "--grid", "1001", "--range", "0:2"))
    code, stderr = _run_checked(job, workspace)
    parse = PROGRAM.params.parse_config

    def check():
        return checks.check_job(job, code, stderr, workspace.out, None, parse)

    assert check() == ("ok", 1001, [])
    _rewrite_cell(workspace.out, "delta_over_omega_p", lambda v: 500,
                  lambda x: x + 1e-6)
    status, _, problems = check()
    assert status == "failed" and any("delta_over_omega_p" in p
                                      for p in problems)


def test_documented_failure_is_known_and_other_failures_are_not(workspace):
    job = workloads.G5_JOB
    ref = _reference()[job.key]
    code, stderr = _run_checked(job, workspace)
    parse = PROGRAM.params.parse_config
    assert checks.check_job(job, code, stderr, workspace.out, ref,
                            parse)[0] == "known_failure"
    status, _, problems = checks.check_job(job, 1, "error: other", workspace.out,
                                           ref, parse)
    assert status == "failed" and problems


def test_missing_functions_are_absent_and_wrappers_pass_through(monkeypatch):
    monkeypatch.delattr(PROGRAM.analysis, "_tau_at")
    original = PROGRAM.cli.parse_config
    tracer = tracing.Tracer()
    assert "analysis.tau_at" in tracer.absent
    tracer.install()
    try:
        assert PROGRAM.cli.parse_config is not original
        p = PROGRAM.cli.parse_config(text=PROGRAM.presets.BASELINE_CONFIG)
    finally:
        tracer.uninstall()
    assert PROGRAM.cli.parse_config is original
    assert p == original(PROGRAM.presets.BASELINE_CONFIG)
    tracer.fold(0)
    assert tracer.calls["params.parse_config"] == 1
    assert tracer.calls["params.validate"] == 1


def test_traced_job_reaches_its_layers(workspace):
    job = next(j for j in workloads.catalogue("coupling_sweeps")
               if j.argv[:2] == ("preset", "fig8a"))
    tracer = tracing.Tracer()
    _, code, _ = run.run_job(PROGRAM, job, workspace, tracer)
    assert code == 0
    tracer.fold(3 * 121)
    for name in ("params.replace", "steady_state.solve", "response.ladder",
                 "analysis.crossings", "analysis.tau_at", "csvio.write_csv"):
        assert tracer.calls[name] > 0, name
    m = tracer.metrics(rounds=1)
    assert m["response.ladder_points_per_output"] >= 5.0
    assert m["analysis.tau_evals"] >= m["analysis.bisection_evals"] > 0
    assert m["csvio.rows"] >= 3 * 121


def _benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_every_per_layer_metric():
    names = [m["name"] for m in _benchmark_json()["per_layer"]]
    assert names == list(tracing.Tracer().metrics(rounds=1)) + ["trace_overhead"]


def test_end_to_end_run_reports_every_metric():
    jobs = workloads.job_list("coupling_sweeps", 3)
    ws = run.Workspace(jobs)
    tally = run.Tally()
    reference = _reference()
    try:
        metrics, info = run.end_to_end(PROGRAM, jobs, ws, reference, tally,
                                       "coupling_sweeps", seconds=0.0)
    finally:
        ws.close()
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    assert tally.failed == 0 and info["jobs_timed"] >= 100
    # the documented ConvergenceError job is the only failure
    assert metrics["ok_frac"][0] == pytest.approx(1 - 1 / len(jobs))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_round_reaches_every_expected_wrapper(workload):
    jobs = workloads.job_list(workload, 5)
    ws = run.Workspace(jobs)
    tally = run.Tally()
    tracer = tracing.Tracer()
    try:
        run.run_round(PROGRAM, jobs, ws, _reference(), tally, tracer)
    finally:
        ws.close()
    assert tracer.absent == []
    assert tracer.unreached(workload) == []
    assert tally.failed == 0, tally.problems


def test_traced_run_fails_when_an_expected_wrapper_is_unreached(monkeypatch):
    # coupling_sweeps never validates: expecting the oracle there stands
    # for a wrapper bound to a dead alias
    expected = dict(tracing.EXPECTED)
    expected["coupling_sweeps"] += ("oracle.cross_validate",)
    monkeypatch.setattr(tracing, "EXPECTED", expected)
    jobs = workloads.job_list("coupling_sweeps", 3)
    ws = run.Workspace(jobs)
    tally = run.Tally()
    try:
        run.per_layer(PROGRAM, jobs, ws, _reference(), tally,
                      "coupling_sweeps", seconds=0.0)
    finally:
        ws.close()
    assert tally.failed == 0
    assert tally.unreached == ["oracle.cross_validate"]
    assert any("oracle.cross_validate" in p for p in tally.problems)
