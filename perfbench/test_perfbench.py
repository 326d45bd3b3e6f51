"""Tests of the benchmark itself: tiny runs of every workload pass their
checks, each check fails on a deliberately corrupted output, the traced run
reports every per-layer metric with the predicted zeros, and the benchmark
refuses to run without the package source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

SEED = 3
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> list[str]:
    return [m["name"] for m in SPEC[section]]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Per workload: its tiny jobs and a directory holding their outputs."""
    made = {}
    for name, build in workloads.WORKLOADS.items():
        jobs = build(SEED, tiny=True)
        outdir = tmp_path_factory.mktemp(name)
        metadir = tmp_path_factory.mktemp(name + "-meta")
        for i, job in enumerate(jobs):
            result = run.run_job(job, outdir, metadir, i, None)
            assert result.failure is None, result.failure
        made[name] = (jobs, outdir)
    return made


def _copy(outputs, name, tmp_path):
    jobs, outdir = outputs[name]
    copy = tmp_path / "out"
    shutil.copytree(outdir, copy)
    return jobs, copy


def _argv_value(job, outdir, flag):
    argv = job.make_argv(outdir)
    return argv[argv.index(flag) + 1]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_outputs_pass_checks(outputs, name):
    jobs, outdir = outputs[name]
    for job in jobs:
        job.check(outdir, {})


def test_perturbed_surface_cell_fails(outputs, tmp_path):
    jobs, outdir = _copy(outputs, "surface_sweep", tmp_path)
    job = jobs[0]
    out = _argv_value(job, outdir, "--out")
    n, h = workloads.sampled_cells(_argv_value(job, outdir, "--n"),
                                   _argv_value(job, outdir, "--h"), SEED, out)[0]
    path = outdir / out
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        row = line.split(",")
        if row[:2] == [str(n), str(h)]:
            row[2] = repr(float(row[2]) * (1 + 1e-9) + 1e-9)
            lines[i] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="naive"):
        job.check(outdir, {})


def test_shifted_zero_fails(outputs, tmp_path):
    jobs, outdir = _copy(outputs, "headline_gap", tmp_path)
    path = outdir / "zeros.csv"
    header, first, *rest = path.read_text().splitlines()
    y, *fields = first.split(",")
    path.write_text("\n".join([header, ",".join([repr(float(y) + 1e-4), *fields]), *rest]) + "\n")
    with pytest.raises(CheckFailed, match="eta"):
        jobs[0].check(outdir, {})


def test_flipped_gap_fails(outputs, tmp_path):
    jobs, outdir = _copy(outputs, "headline_gap", tmp_path)
    job = jobs[1]
    path = outdir / _argv_value(job, outdir, "--out")
    report = json.loads(path.read_text())
    report["gap_cos"] = -report["gap_cos"]
    path.write_text(json.dumps(report))
    with pytest.raises(CheckFailed, match="geometric"):
        job.check(outdir, {})


def test_gap_above_tolerance_at_largest_bound_fails(outputs, tmp_path):
    jobs, outdir = _copy(outputs, "headline_gap", tmp_path)
    job = jobs[-1]
    path = outdir / _argv_value(job, outdir, "--out")
    report = json.loads(path.read_text())
    report["gap_cos"] = 1e-5
    path.write_text(json.dumps(report))
    with pytest.raises(CheckFailed):
        job.check(outdir, {})


def test_wrong_search_objective_fails(outputs, tmp_path):
    jobs, outdir = _copy(outputs, "search_anneal", tmp_path)
    job = jobs[0]
    path = outdir / _argv_value(job, outdir, "--out-best")
    best = json.loads(path.read_text())
    best["objective"] *= 1.5
    path.write_text(json.dumps(best))
    with pytest.raises(CheckFailed, match="recomputed"):
        job.check(outdir, {})


def test_changed_search_trace_fails(outputs, tmp_path):
    jobs, outdir = _copy(outputs, "search_anneal", tmp_path)
    with pytest.raises(CheckFailed, match="differs"):
        jobs[0].check(outdir, {"trace": b"iteration,objective,accepted\n"})


def test_traced_pass_reports_every_metric(tmp_path):
    per_workload = {}
    for name, build in workloads.WORKLOADS.items():
        jobs = build(SEED, tiny=True)
        passes = [run.run_pass(jobs, tmp_path / name / f"p{i}", traced,
                               tmp_path / name / "spans")
                  for i, traced in enumerate((False, True))]
        assert not any(p.failures for p in passes), [p.failures for p in passes]
        assert set(run.end_to_end(passes)) == set(_names("end_to_end"))
        layers = run.per_layer(passes)
        assert set(layers) == set(_names("per_layer"))
        per_workload[name] = layers
    gap, surface = per_workload["headline_gap"], per_workload["surface_sweep"]
    assert gap["limits.c_s_surface.calls"] == 0
    assert gap["search.objective_gap.calls"] == 0
    assert gap["qset.dividing_positions.calls"] == 0
    assert gap["zeros.refine_zero.calls"] == 3
    assert surface["series.eta_accel.calls"] <= 3
    assert surface["limits.c_s_surface.calls"] == 3
    assert per_workload["search_anneal"]["search.objective_gap.calls"] > 0


def test_times_are_divided_by_host_slowdown():
    fast, slow = ([run.REF_SECONDS * f] * 16 for f in (1.0, 3.0))
    jobs = [run.JobRun("surface", setup_s=0.3, run_s=2.0, ref=fast),
            run.JobRun("gap", setup_s=0.3, run_s=1.0, ref=slow)]
    p = run.Pass(False, jobs)
    assert p.host_slowdown == pytest.approx(2.0)
    assert p.wall_s == pytest.approx(1.5)
    assert p.seconds_of("gap") == pytest.approx(0.5)
    assert p.seconds_of("gap", raw=True) == 1.0
    assert [j.norm_setup_s for j in jobs] == pytest.approx([0.3, 0.1])
    assert run.Pass(False, [run.JobRun("gap", run_s=1.0)]).wall_s == 1.0  # no samples


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "surface_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
