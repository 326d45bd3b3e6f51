"""Benchmark for the `etaq` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's jobs (see workloads.py) one after another, each in a
fresh Python process as a user's `etaq ...` call would, and repeats the whole
list ("a pass") until one more pass of average length would end after S
seconds, with at least two passes.  Every job's output is checked after the pass's timing ends.

Times are host-normalised: each job process also times a fixed reference
loop (calib.py) just before and just after its `etaq` call, and a pass's
time is divided by how much slower than REF_SECONDS that loop ran over the
pass.  The host's slow phases then cancel out; the raw times are reported
with --trace 1.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds the
per-layer ones, from passes that alternate between untraced and traced
(tracer.py).  Metadata and every per-pass sample go to
perfbench/.work/results/.  The run exits 2 without a result when the
checkout's source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
JOB_PY = HERE / "job.py"
sys.path.insert(0, str(HERE))
from calib import REF_SECONDS  # noqa: E402
MIN_PASSES = 2
DEADLINE_S = 150         # every job is stopped by then, so a run ends within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUBCOMMANDS = ("surface", "search", "zeros", "gap")


def slowdown(refs: list[float]) -> float:
    """How much slower than REF_SECONDS the reference loop ran, on average
    (1.0 without samples)."""
    return statistics.fmean(refs) / REF_SECONDS if refs else 1.0


@dataclass
class JobRun:
    cmd: str
    setup_s: float | None = None   # spawn until `import etaq.cli` returned
    run_s: float = 0.0             # etaq.cli.main(argv) alone
    maxrss_mb: float = 0.0
    ref: list[float] = field(default_factory=list)  # reference loops around the call
    trace: dict | None = None
    failure: str | None = None

    @property
    def host_slowdown(self) -> float:
        return slowdown(self.ref)

    @property
    def norm_setup_s(self) -> float | None:
        return None if self.setup_s is None else self.setup_s / self.host_slowdown


@dataclass
class Pass:
    traced: bool
    jobs: list[JobRun]
    rows_written: int = 0
    bytes_written: int = 0
    seconds: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def host_slowdown(self) -> float:
        return slowdown([t for j in self.jobs for t in j.ref])

    def seconds_of(self, cmd: str | None = None, raw: bool = False) -> float:
        """Summed time of the pass's jobs (of subcommand `cmd`, if given),
        divided by the pass's host slowdown unless `raw`."""
        total = sum(j.run_s for j in self.jobs if cmd in (None, j.cmd))
        return total if raw else total / self.host_slowdown

    @property
    def wall_s(self) -> float:
        return self.seconds_of()


def _last_line(text: str | None) -> str:
    lines = (text or "").strip().splitlines()
    return lines[-1] if lines else ""


def run_job(job, outdir: Path, metadir: Path, index: int, spans_dir: Path | None,
            deadline: float | None = None) -> JobRun:
    """Run one job in a fresh process, killing it at `deadline` (perf_counter)."""
    run = JobRun(job.cmd)
    try:
        argv = job.make_argv(outdir)
    except Exception as exc:  # the job cannot be formed; count it as failed
        run.failure = f"job {index} ({job.cmd}): {exc}"
        return run
    result = metadir / f"job{index}.json"
    cmd = [sys.executable, str(JOB_PY), str(result)]
    if spans_dir is not None:
        cmd += ["--spans", str(spans_dir / f"job{index}-{job.cmd}.npz")]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--", *argv], cwd=outdir, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(
            timeout=None if deadline is None else max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        run.failure = f"job {index} ({job.cmd}): stopped at the run's deadline"
        return run
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not result.is_file():
        run.failure = (f"job {index} ({job.cmd}): process exited {proc.returncode}: "
                       f"{_last_line(err)}")
        return run
    rec = json.loads(result.read_text())
    run.setup_s = rec["imported"] - spawned
    run.run_s = rec["end"] - rec["start"]
    run.maxrss_mb = rec["maxrss_kb"] / 1024.0
    run.ref = rec["ref"]
    run.trace = rec.get("trace")
    if rec["error"]:
        run.failure = f"job {index} ({job.cmd}): {_last_line(rec['error'])}"
    elif rec["rc"] != 0:
        run.failure = f"job {index} ({job.cmd}): exit {rec['rc']}: {_last_line(err)}"
    return run


def run_pass(jobs, passdir: Path, traced: bool = False, spans_dir: Path | None = None,
             deadline: float | None = None) -> Pass:
    """Run every job once, then check every output (untimed)."""
    t0 = time.perf_counter()
    shutil.rmtree(passdir, ignore_errors=True)
    outdir, metadir = passdir / "out", passdir / "meta"
    outdir.mkdir(parents=True)
    metadir.mkdir()
    if traced:
        spans_dir.mkdir(parents=True, exist_ok=True)
    runs = [run_job(job, outdir, metadir, i, spans_dir if traced else None, deadline)
            for i, job in enumerate(jobs)]
    for i, (job, run) in enumerate(zip(jobs, runs)):
        if run.failure is None:
            try:
                job.check(outdir, job.memory)
            except Exception as exc:  # any check error fails the job, and the run goes on
                run.failure = f"job {i} ({job.cmd}) check: {exc}"
    p = Pass(traced, runs, failures=[r.failure for r in runs if r.failure])
    if traced:
        files = [f for f in outdir.iterdir() if f.is_file()]
        p.rows_written = sum(max(0, f.read_bytes().count(b"\n") - 1)
                             for f in files if f.suffix == ".csv")
        p.bytes_written = sum(f.stat().st_size for f in files)
    shutil.rmtree(passdir)
    p.seconds = time.perf_counter() - t0
    return p


def warm_up() -> None:
    """Byte-compile the package once, so no job pays for it."""
    subprocess.run([sys.executable, str(JOB_PY), "--warm"], check=True, timeout=60,
                   stdout=subprocess.DEVNULL)


def measure(jobs, seconds: float, trace: bool, rundir: Path, spans_dir: Path) -> list[Pass]:
    """Passes until one more of average length would end after `seconds`;
    with `trace`, every second pass is traced."""
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    passes: list[Pass] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(jobs, rundir / f"pass{len(passes)}", traced, spans_dir,
                               deadline))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes
        if time.perf_counter() > deadline:
            return passes


# ---------------------------------------------------------------------------
# metrics


def pass_median(passes: list[Pass], cmd: str | None = None, raw: bool = False) -> float:
    """Median over the passes of `Pass.seconds_of(cmd, raw)`."""
    return statistics.median(p.seconds_of(cmd, raw) for p in passes)


def median_setup(passes: list[Pass], raw: bool = False) -> float:
    runs = [r for p in passes for r in p.jobs if r.setup_s is not None]
    return statistics.median(r.setup_s if raw else r.norm_setup_s for r in runs)


def end_to_end(passes: list[Pass]) -> dict:
    return {
        "wall_s": pass_median(passes),
        "setup_s": median_setup(passes),
        "peak_rss_mb": max(r.maxrss_mb for p in passes for r in p.jobs),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_layers(p: Pass) -> dict:
    """Per-layer values of one traced pass."""
    spans = defaultdict(lambda: defaultdict(float))
    children = defaultdict(int)
    counts = defaultdict(float)
    by_cmd = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for r in p.jobs:
        if r.trace is None:
            continue
        for name, fields in r.trace["spans"].items():
            for key, value in fields.items():
                spans[name][key] += value
                by_cmd[r.cmd][name][key] += value
        for parent, kids in r.trace["children"].items():
            for child, n in kids.items():
                children[parent, child] += n
        for key, value in r.trace["counts"].items():
            counts[key] += value

    m = {}
    for name in ("qset.enumerate_q", "qset.dividing_positions", "series.eta_accel",
                 "series.term_arrays", "series.term_ab", "limits.c_s_surface",
                 "zeros.refine_zero", "search.objective_gap"):
        m[f"{name}.calls"] = int(spans[name]["calls"])
    for name in ("qset.enumerate_q", "qset.sequence", "qset.dividing_positions",
                 "series.eta_accel", "series.term_arrays", "series.term_ab"):
        m[f"{name}.s"] = spans[name]["s"]
    for name in ("cli", "limits.c_s_surface", "limits.limit_A_series", "limits.limit_B",
                 "limits.commutativity_gap", "zeros.scan_zeros", "zeros.refine_zero",
                 "search.anneal", "search.objective_gap"):
        m[f"{name}.self_s"] = spans[name]["self_s"]
    for key in ("qset.q_elements", "qset.divisor_hits", "series.eta_accel.terms",
                "series.term_arrays.bytes", "limits.cells", "limits.k_steps",
                "limits.limit_B.terms", "zeros.scan_points"):
        m[key] = int(counts[key])
    m["cli.rows_written"] = p.rows_written
    m["cli.bytes_written"] = p.bytes_written
    m["series.eta_accel.failed"] = int(spans["series.eta_accel"]["raised"])
    m["zeros.refine_failed"] = int(spans["zeros.refine_zero"]["raised"])
    m["zeros.eta_per_refine"] = _ratio(children["zeros.refine_zero", "series.eta_accel"],
                                       spans["zeros.refine_zero"]["calls"])
    m["search.accept_ratio"] = _ratio(counts["search.accepted"], counts["search.proposed"])
    surface = by_cmd["surface"]
    m["share.surface_kernel"] = _ratio(
        surface["limits.c_s_surface"]["self_s"] + surface["qset.dividing_positions"]["s"],
        p.seconds_of("surface", raw=True))
    m["share.search_objective"] = _ratio(by_cmd["search"]["search.objective_gap"]["s"],
                                         p.seconds_of("search", raw=True))
    m["share.zeros_eta"] = _ratio(by_cmd["zeros"]["series.eta_accel"]["s"],
                                  p.seconds_of("zeros", raw=True))
    return m


def per_layer(passes: list[Pass]) -> dict:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    m = {f"{cmd}_s": pass_median(plain, cmd) for cmd in SUBCOMMANDS}
    m["trace.overhead_s"] = pass_median(traced) - pass_median(plain)
    m["raw.wall_s"] = pass_median(plain, raw=True)
    m["raw.setup_s"] = median_setup(plain, raw=True)
    m["host.slowdown"] = statistics.median(p.host_slowdown for p in plain)
    samples = [traced_layers(p) for p in traced]
    for key in samples[0]:
        m[key] = statistics.median(s[key] for s in samples)
    return m


# ---------------------------------------------------------------------------
# metadata


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "gitRevision": git_revision(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "blasThreads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "srcLines": {f.name: len(f.read_text().splitlines())
                     for f in sorted((SRC / "etaq").glob("*.py"))},
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "etaq" / "cli.py").is_file():
        print(f"error: no etaq source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    jobs = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = WORK / "runs" / f"{tag}-{os.getpid()}"
    warm_up()
    try:
        passes = measure(jobs, args.seconds, bool(args.trace), rundir,
                         WORK / "spans" / args.workload)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    values = per_layer(passes) if args.trace else end_to_end(passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(len(p.jobs) for p in passes)
    failures = [f for p in passes for f in p.failures]

    record = {"meta": metadata(args), "metrics": metrics, "attempted": attempted,
              "failures": failures,
              "passes": [{"traced": p.traced, "wall_s": p.wall_s, "seconds": p.seconds,
                          "slowdown": p.host_slowdown,
                          "jobs": [{"cmd": r.cmd, "setup_s": r.setup_s, "run_s": r.run_s,
                                    "slowdown": r.host_slowdown,
                                    "maxrss_mb": r.maxrss_mb} for r in p.jobs]}
                         for p in passes]}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print(json.dumps(record["meta"]))
    print(f"{args.workload}: {len(passes)} passes, {attempted} jobs, "
          f"fail_ratio {len(failures) / attempted:g}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
