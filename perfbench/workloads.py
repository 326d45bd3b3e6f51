"""The benchmark's workloads: fixed lists of `etaq` CLI jobs, and the checks
that each job's output must pass.

The workload seed picks only what leaves the amount of work unchanged: the
shuffle seed, the search seeds, and which of the found zeros get gap reports.
`tiny=True` shrinks every job for the benchmark's own tests.

Every check uses the package's own oracle at the package's own tolerance and
raises `CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from etaq import cli, limits, qset, search, series, zeros

FIRST_ZERO = "14.134725141734693"
PUBLISHED_ZEROS = (14.134725, 21.022040, 25.010858)
SURFACE_REL_TOL = 1e-12   # surface-vs-naive gate of `etaq verify`
ZERO_TOL = 1e-5           # published ordinates, acceptance criterion 5
RESIDUAL_TOL = 1e-9       # refinement tolerance, acceptance criterion 5
GAP_TOL = 1e-6            # acceptance criteria 7 and 8
GAP_FLOOR = 1e-9          # acceptance criterion 8
NAIVE_CELL_COST = 50_000   # largest n*h sampled against the triple loop
NAIVE_CELLS = 3


class CheckFailed(Exception):
    pass


class JobInputError(Exception):
    """A job's arguments depend on an earlier job's output, which is unusable."""


@dataclass
class Job:
    cmd: str                                   # the subcommand, for its time sum
    make_argv: Callable[[Path], list[str]]     # from the pass's output directory
    check: Callable[[Path, dict], None]        # (output dir, memory across passes)
    memory: dict = field(default_factory=dict)


def _fixed(argv):
    return lambda outdir: list(argv)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# surface


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sampled_cells(n_spec: str, h_spec: str, seed: int, out: str) -> list[tuple[int, int]]:
    """(n, h) cells compared against the triple-loop oracle."""
    cells = [(n, h) for n in cli.parse_range(n_spec) for h in cli.parse_range(h_spec)
             if n > 1 and n * h <= NAIVE_CELL_COST]
    return random.Random(f"{out}:{seed}").sample(cells, min(NAIVE_CELLS, len(cells)))


def surface_job(x: str, y: str, ordering: str, n_spec: str, h_spec: str,
                out: str, seed: int) -> Job:
    argv = ["surface", "--x", x, "--y", y, "--ordering", ordering,
            "--n", n_spec, "--h", h_spec, "--out", out]

    def check(outdir: Path, memory: dict) -> None:
        n_axis, h_axis = cli.parse_range(n_spec), cli.parse_range(h_spec)
        header, *lines = (outdir / out).read_text().splitlines()
        _require(header == "n,h,C,S", f"{out}: header {header!r}")
        _require(len(lines) == len(n_axis) * len(h_axis),
                 f"{out}: {len(lines)} rows, want {len(n_axis) * len(h_axis)}")

        def cell(n: int, h: int) -> tuple[float, float]:
            line = lines[n_axis.index(n) * len(h_axis) + h_axis.index(h)]
            row = line.split(",")
            _require(row[:2] == [str(n), str(h)], f"{out}: row {line!r} out of place")
            return float(row[2]), float(row[3])

        cell(n_axis[-1], h_axis[-1])  # the last row is in place too
        p = series.StripPoint(float(x), float(y))
        ordering_obj = cli.parse_ordering(ordering, 10_000)
        for n, h in sampled_cells(n_spec, h_spec, seed, out):
            c_ref, s_ref = limits.c_s_naive(p, ordering_obj, n, h)
            c, s = cell(n, h)
            scale = max(1.0, abs(c_ref), abs(s_ref))
            dev = max(abs(c - c_ref), abs(s - s_ref)) / scale
            _require(dev <= SURFACE_REL_TOL,
                     f"{out}: cell (n={n}, h={h}) off the naive sum by {dev:.3e}")

    return Job("surface", _fixed(argv), check)


def surface_sweep(seed: int, tiny: bool = False) -> list[Job]:
    rng = random.Random(f"surface_sweep:{seed}")
    if tiny:
        n1, h1, n2, h2, n3, h3 = ("1:3000:100", "1:16", "1:2000:50", "1:120:10",
                                  "1:1000:20", "1:40:4")
    else:
        n1, h1, n2, h2, n3, h3 = ("1:20000:200", "1:64", "1:10000:10", "1:1200:10",
                                  "1:5000:5", "1:400:4")
    return [
        surface_job("0.5", FIRST_ZERO, "byvalue", n1, h1, "surface1.csv", seed),
        surface_job("0.75", "3", f"shuffle:{rng.randrange(2**31)}:256", n2, h2,
                    "surface2.csv", seed),
        surface_job("2", "0", "byfactor", n3, h3, "surface3.csv", seed),
    ]


# ---------------------------------------------------------------------------
# search


def search_job(seed: int, args: list[str], stem: str) -> Job:
    trace_out, best_out = f"{stem}.trace.csv", f"{stem}.best.json"
    argv = ["search", "--seed", str(seed), *args,
            "--out-trace", trace_out, "--out-best", best_out]

    def check(outdir: Path, memory: dict) -> None:
        best = json.loads((outdir / best_out).read_text())
        trace = (outdir / trace_out).read_bytes()
        _require(trace.count(b"\n") == best["iterations"] + 1,
                 f"{trace_out}: not one row per iteration")
        spec = best["objectiveSpec"]
        objective = search.ObjectiveSpec(
            points=tuple(series.StripPoint(pt["x"], pt["y"]) for pt in spec["points"]),
            n_window=tuple(spec["nWindow"]), h_max=spec["hMax"], eta_tol=spec["etaTol"])
        by_value = {q.value: q for q in
                    qset.QOrdering.by_value(max(best["permutation"])).sequence()}
        again = search.objective_gap([by_value[v] for v in best["permutation"]], objective)
        _require(again == best["objective"],
                 f"{best_out}: objective {best['objective']!r}, recomputed {again!r}")
        if "trace" in memory:
            _require(trace == memory["trace"],
                     f"{trace_out}: differs from an earlier run with seed {seed}")
        memory["trace"] = trace

    return Job("search", _fixed(argv), check)


def search_anneal(seed: int, tiny: bool = False) -> list[Job]:
    rng = random.Random(f"search_anneal:{seed}")
    iters = ("10", "10", "4") if tiny else ("100", "40", "8")
    window3 = ("250", "500") if tiny else ("2500", "5000")
    return [
        search_job(rng.randrange(2**31), ["--prefix", "32", "--iters", iters[0]],
                   "search1"),
        search_job(rng.randrange(2**31),
                   ["--prefix", "64", "--iters", iters[1], "--neighborhood",
                    "adjacent-swap", "--x", "0.5", "--y", FIRST_ZERO,
                    "--n0", "500", "--n1", "1000", "--h-max", "32"], "search2"),
        search_job(rng.randrange(2**31),
                   ["--prefix", "96", "--iters", iters[2], "--n0", window3[0],
                    "--n1", window3[1], "--h-max", "64"], "search3"),
    ]


# ---------------------------------------------------------------------------
# headline gap


def zeros_job(y_max: str, step: str, expected: int) -> Job:
    argv = ["zeros", "scan", "--y-min", "0", "--y-max", y_max, "--step", step,
            "--refine", "--out", "zeros.csv"]

    def check(outdir: Path, memory: dict) -> None:
        rows = read_csv(outdir / "zeros.csv")
        ys = [float(r["ordinate"]) for r in rows]
        _require(len(ys) == expected, f"zeros.csv: {len(ys)} zeros, want {expected}")
        _require(all(0.0 < y < float(y_max) for y in ys),
                 f"zeros.csv: ordinate outside (0, {y_max})")
        for y in ys:
            residual = zeros.eta_abs(y)
            _require(residual <= RESIDUAL_TOL,
                     f"zeros.csv: |eta(1/2 + {y!r}i)| = {residual:.3e}")
        for y, want in zip(ys, PUBLISHED_ZEROS):
            _require(abs(y - want) <= ZERO_TOL,
                     f"zeros.csv: ordinate {y!r} is not the published {want}")

    return Job("zeros", _fixed(argv), check)


def _gap_size(report: dict) -> float:
    return max(abs(report["gap_cos"]), abs(report["gap_sin"]))


def gap_at_zero_job(index: int, args: list[str]) -> Job:
    out = f"gap_zero{index}.json"

    def make_argv(outdir: Path) -> list[str]:
        try:
            ordinate = read_csv(outdir / "zeros.csv")[index]["ordinate"]
        except (OSError, IndexError, KeyError) as exc:
            raise JobInputError(f"no zero #{index} in zeros.csv: {exc!r}") from exc
        return ["gap", "--x", "0.5", "--y", ordinate, *args, "--out", out]

    def check(outdir: Path, memory: dict) -> None:
        report = json.loads((outdir / out).read_text())
        g = series.geom_closed(series.StripPoint(report["point"]["x"],
                                                 report["point"]["y"]))
        dev = max(abs(report["gap_cos"] - g.real), abs(report["gap_sin"] + g.imag))
        _require(dev <= GAP_TOL, f"{out}: gap off the geometric closed form by {dev:.3e}")

    return Job("gap", make_argv, check)


def gap_x2_jobs(bounds: list[int], args: list[str]) -> list[Job]:
    outs = [f"gap_x2_{b}.json" for b in bounds]

    def make_check(i: int):
        def check(outdir: Path, memory: dict) -> None:
            gap = _gap_size(json.loads((outdir / outs[i]).read_text()))
            if i > 0:
                earlier = _gap_size(json.loads((outdir / outs[i - 1]).read_text()))
                _require(gap < earlier or gap <= GAP_FLOOR,
                         f"{outs[i]}: |gap| {gap:.3e} did not shrink from {earlier:.3e}")
            if i == len(outs) - 1:
                _require(gap <= GAP_TOL, f"{outs[i]}: |gap| {gap:.3e} > {GAP_TOL}")
        return check

    return [Job("gap", _fixed(["gap", "--x", "2", "--y", "0", "--q-bound", str(b),
                               *args, "--out", out]), make_check(i))
            for i, (b, out) in enumerate(zip(bounds, outs))]


def headline_gap(seed: int, tiny: bool = False) -> list[Job]:
    rng = random.Random(f"headline_gap:{seed}")
    if tiny:
        y_max, step, expected, picks, budget, bounds = "30", "0.01", 3, 2, "10000", [100, 1000, 10_000]
    else:
        y_max, step, expected, picks, budget, bounds = "190", "0.004", 74, 3, "1000000", [10_000, 100_000, 300_000]
    chosen = sorted(rng.sample(range(expected), picks))
    return ([zeros_job(y_max, step, expected)]
            + [gap_at_zero_job(i, ["--budget", budget]) for i in chosen]
            + gap_x2_jobs(bounds, ["--budget", budget]))


WORKLOADS = {
    "surface_sweep": surface_sweep,
    "search_anneal": search_anneal,
    "headline_gap": headline_gap,
}
