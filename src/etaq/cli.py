"""Command-line front end.

Subcommands: verify, eta, zeta, surface, gap, zeros (scan|refine|load),
search.  Every file output gets a sidecar ``<out>.manifest.json`` recording
the command, parameters, seeds, and numeric-method identifiers; data files
themselves contain no timestamps, so identical manifests (minus timestamp)
give byte-identical outputs.

Exit codes: 0 success, 1 check failure, 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, _rng, limits, search, series, zeros
from . import qset
from .qset import QOrdering
from .series import (AccelerationError, PoleError, SingularDenominatorError,
                     StripPoint, eta_accel, geom_closed, zeta_from_eta)

METHOD_IDS = (series.ACCEL_METHOD_ID, series.AVERAGED_METHOD_ID, f"rng:{_rng.ALGORITHM_ID}",
              f"tail:iterated-averaging-{series.TAIL_LEVELS}")

ZETA_HALF_REF = -1.4603545088095868  # independently cross-checked reference

Q_BOUND_HELP = (f"largest element of Q enumerated, at most {qset.MAX_ENUM_BOUND} "
                "(the sieve needs about 5 bytes per unit of bound)")
TERMS_HELP = f"term count, at most {series.MAX_TERMS} (about 33 bytes per term)"


def parse_range(text: str) -> list[int]:
    """start:stop[:step] -> [start, start+step, ...]; stop included when hit
    exactly.  A bare integer is a single-element list."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0])]
        if len(parts) == 2:
            start, stop = int(parts[0]), int(parts[1])
            step = 1
        elif len(parts) == 3:
            start, stop, step = (int(v) for v in parts)
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"malformed range {text!r} (expected start:stop[:step])")
    if step <= 0 or stop < start:
        raise ValueError(f"malformed range {text!r} (need step > 0, stop >= start)")
    return list(range(start, stop + 1, step))


def parse_ordering(spec: str, bound: int) -> QOrdering:
    if spec == "byvalue":
        return QOrdering.by_value(bound)
    if spec == "byfactor":
        return QOrdering.by_factor_count(bound)
    if spec.startswith("shuffle:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("shuffle ordering is shuffle:SEED:PREFIX")
        return QOrdering.seeded_shuffle(int(parts[1]), int(parts[2]), bound)
    raise ValueError(f"unknown ordering {spec!r} "
                     "(byvalue, byfactor, shuffle:SEED:PREFIX)")


@dataclass
class RunManifest:
    command: str
    parameters: dict

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "toolVersion": __version__,
            "numericMethods": list(METHOD_IDS),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }

    def write_sidecar(self, out_path: str) -> None:
        with open(out_path + ".manifest.json", "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# verify


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _grid_points():
    return [StripPoint(0.3, 2.0), StripPoint(0.5, 0.0), StripPoint(0.5, 14.0),
            StripPoint(0.75, 3.0), StripPoint(2.0, 0.0), StripPoint(3.0, 1.0)]


def _check_f_closed(k_max: int) -> tuple[float, float, str]:
    counts = qset.odd_factor_counts(k_max)[0].tolist()
    bad = 0
    for k in range(1, k_max + 1):
        # brute force over the n distinct odd primes of k, counted by the
        # sieve at k's odd part: (1-1)^n - 1 expanded literally
        n = counts[k // (k & -k) // 2]
        total = 0
        for r in range(1, n + 1):
            total += (-1) ** r * math.comb(n, r)
        if total != qset.f_closed(k):
            bad += 1
    return float(bad), 0.0, f"{bad} mismatches over k <= {k_max}"


def run_verify(k_max: int, budget: int, inject_fault: str | None) -> list[CheckResult]:
    checks: list[CheckResult] = []

    def record(name: str, residual: float, threshold: float, detail: str):
        residual = float(residual)
        if inject_fault == name:
            residual = max(threshold * 1e6, 1.0)
            detail += " [fault injected]"
        checks.append(CheckResult(name, bool(residual <= threshold),
                                  f"residual {residual:.3e} <= {threshold:.1e}? {detail}"))

    bad, thr, detail = _check_f_closed(k_max)
    record("f-closed-vs-bruteforce", bad, thr, detail)

    e1 = abs(eta_accel(StripPoint(1.0, 0.0)).value - math.log(2.0))
    e2 = abs(eta_accel(StripPoint(2.0, 0.0)).value - math.pi**2 / 12.0)
    record("eta-classical", max(e1, e2), 1e-12, "eta(1) vs ln 2, eta(2) vs pi^2/12")

    z2 = abs(zeta_from_eta(StripPoint(2.0, 0.0)).value - math.pi**2 / 6.0)
    zh = abs(zeta_from_eta(StripPoint(0.5, 0.0)).value - ZETA_HALF_REF)
    record("zeta-bridge", max(z2 / 1e-9, zh / 1e-8), 1.0,
           "zeta(2) vs pi^2/6 at 1e-9, zeta(1/2) vs reference at 1e-8")

    worst = 0.0
    for p in _grid_points():
        if p.x == 1.0:
            continue
        lhs = series.bridge_denominator(p) * zeta_from_eta(p).value
        worst = max(worst, abs(lhs - eta_accel(p).value))
    record("bridge-identity", worst, 1e-12, "(1-2^(1-s))*zeta == eta on grid")

    worst = 0.0
    for p in _grid_points():
        lhs = geom_closed(p) * (1.0 - np.exp(-p.s * series.LN2))
        rhs = 1.0 - np.exp((1.0 - p.s) * series.LN2)
        worst = max(worst, abs(lhs - rhs))
    record("geom-algebra", worst, 1e-13, "geom*(1-2^-s) == 1-2^(1-s)")

    worst = 0.0
    for x in np.linspace(0.05, 0.95, 19):
        for y in np.linspace(-20.0, 20.0, 21):
            p = StripPoint(float(x), float(y))
            bound = (2.0 - 2.0**p.x) / (2.0**p.x + 1.0)
            worst = max(worst, bound - abs(geom_closed(p)))
    record("geom-nonvanishing", worst, 1e-15,
           "|geom| >= (2-2^x)/(2^x+1) on the strip grid")

    worst = 0.0
    for p in (StripPoint(0.3, 2.0), StripPoint(0.5, 14.0), StripPoint(0.75, 3.0)):
        ls = np.arange(4, 36)
        diffs = np.array([abs(series.gamma_partial(p, int(l)) - geom_closed(p))
                          for l in ls])
        slope = np.polyfit(ls, np.log2(diffs), 1)[0]
        worst = max(worst, abs(-slope - p.x) / p.x)
    record("gamma-decay", worst, 0.05, "geometric 2^(-Lx) decay exponent fit")

    worst = 0.0
    sub_budget = 100_000
    for p in (StripPoint(0.5, 0.0), StripPoint(0.75, 3.0), StripPoint(2.0, 0.0)):
        for q in (1, 3, 5, 9, 15):
            direct = series.subseries_q(p, q, "direct", sub_budget)
            oracle = series.subseries_q(p, q, "accelerated")
            tail = 4.0 * (q * sub_budget) ** (-p.x)
            worst = max(worst, abs(direct - oracle) / tail)
    record("subseries-oracle", worst, 1.0,
           "direct truncation vs q^(-s)*eta within tail estimate")

    worst = 0.0
    p = StripPoint(0.75, 5.0)
    for shift in (1.0, math.e, 2.0):
        trunc = series.shifted_sums(p, shift, 100_000)
        oracle = series.shifted_sums_oracle(p, shift)
        worst = max(worst, abs(trunc[0] - oracle[0]), abs(trunc[1] - oracle[1]))
    record("shifted-sums", worst, 1e-3, "truncations vs shift^(-iy)*eta oracle")

    worst = 0.0
    ordering = QOrdering.by_value(2000)
    n_axis = [1, 2, 3, 5, 20, 60, 150, 200]
    h_axis = [1, 2, 5, 12, 30, 50]
    for p in (StripPoint(0.5, 0.0), StripPoint(0.5, 14.0), StripPoint(0.75, 3.0)):
        surf = limits.c_s_surface(p, ordering, n_axis, h_axis)
        for i, n in enumerate(n_axis):
            for j, h in enumerate(h_axis):
                c_ref, s_ref = limits.c_s_naive(p, ordering, n, h)
                scale = max(1.0, abs(c_ref), abs(s_ref))
                worst = max(worst, abs(surf.C[i, j] - c_ref) / scale,
                            abs(surf.S[i, j] - s_ref) / scale)
    record("surface-vs-naive", worst, 1e-12, "surface kernel vs triple-loop oracle")

    worst_o = 0.0
    worst_d = 0.0
    for p in (StripPoint(0.5, 0.0), StripPoint(2.0, 0.0), StripPoint(0.75, 3.0)):
        rep = limits.rh_contradiction_check(p, budget)
        worst_o = max(worst_o, rep.residual_oracle)
        worst_d = max(worst_d, rep.residual_direct)
    record("contradiction-identity-oracle", worst_o, 1e-10,
           "sum_Gamma == sum + signed sum, closed-form paths")
    record("contradiction-identity-direct", worst_d, 5e-3,
           f"same identity, truncation paths at budget {budget}")

    bad = 0
    ordering = QOrdering.by_value(4000)
    for k in (7, 12, 45, 105, 210, 1024, 1365, 1999):
        for h in (1, 5, 50, 200, 500):
            if qset.f_kh(k, ordering, h) != qset.f_kh_fast(k, ordering, h):
                bad += 1
    record("fkh-definition-vs-fastpath", float(bad), 0.0,
           f"{bad} mismatches on sampled (k, h)")

    return checks


def cmd_verify(args) -> int:
    series.check_term_count(args.budget)
    if args.budget < 1:
        raise ValueError("budget must be >= 1")
    t0 = time.time()
    checks = run_verify(args.k_max, args.budget, args.inject_fault)
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    elapsed = time.time() - t0
    summary = {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in checks],
        "allPassed": all(c.passed for c in checks),
        "elapsedSeconds": round(elapsed, 3),
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    failed = [c for c in checks if not c.passed]
    if failed:
        print(f"FAILED: {failed[0].name}", file=sys.stderr)
        return 1
    print(f"all {len(checks)} checks passed in {elapsed:.1f}s")
    return 0


# ---------------------------------------------------------------------------
# point evaluations


def cmd_point(args) -> int:
    res = args.evaluate(StripPoint(args.x, args.y), args.tol)
    print(f"{args.cmd}({args.x:g}{args.y:+g}i) = {res.value.real:.12f} "
          f"{res.value.imag:+.12f}i  (err <= {res.error_estimate:.2e}, "
          f"{res.terms_used} terms, {res.method})")
    return 0


def cmd_surface(args) -> int:
    ordering = parse_ordering(args.ordering, args.bound)
    n_axis = parse_range(args.n)
    h_axis = parse_range(args.h)
    surf = limits.c_s_surface(StripPoint(args.x, args.y), ordering, n_axis, h_axis)
    with open(args.out, "w") as fh:
        surf.write_csv(fh)
    RunManifest("surface", {
        "x": args.x, "y": args.y, "ordering": ordering.descriptor(),
        "n": args.n, "h": args.h, "bound": args.bound,
    }).write_sidecar(args.out)
    print(f"wrote {len(n_axis) * len(h_axis)} rows to {args.out}")
    return 0


def cmd_gap(args) -> int:
    series.check_term_count(args.budget)
    ordering = parse_ordering(args.ordering, args.q_bound)
    # every ordering is a permutation of Q's arrays: count them unordered
    h_max = args.h_max if args.h_max is not None else len(qset.q_arrays(args.q_bound)[0])
    report = limits.commutativity_gap(StripPoint(args.x, args.y), ordering,
                                      h_max, args.budget, args.eta_tol)
    if args.out:
        with open(args.out, "w") as fh:
            report.write_json(fh)
        RunManifest("gap", {
            "x": args.x, "y": args.y, "ordering": ordering.descriptor(),
            "hMax": h_max, "budget": args.budget, "qBound": args.q_bound,
            "etaTol": args.eta_tol,
        }).write_sidecar(args.out)
    else:
        report.write_json(sys.stdout)
    return 0


def _emit_zero_records(records, out: str | None, manifest: RunManifest) -> None:
    if out:
        with open(out, "w") as fh:
            zeros.write_csv(records, fh)
        manifest.write_sidecar(out)
    else:
        zeros.write_csv(records, sys.stdout)


def cmd_zeros(args) -> int:
    if args.zeros_cmd == "scan":
        grid = (args.y_min, args.y_max, args.step, args.threshold)
        records = (zeros.scan_and_refine(*grid, tol=args.tol) if args.refine
                   else zeros.scan_zeros(*grid))
        manifest = RunManifest("zeros scan", {
            "yMin": args.y_min, "yMax": args.y_max, "step": args.step,
            "threshold": args.threshold, "refine": args.refine, "tol": args.tol,
        })
        _emit_zero_records(records, args.out, manifest)
    elif args.zeros_cmd == "refine":
        rec = zeros.refine_zero(args.y0, args.window, args.tol)
        manifest = RunManifest("zeros refine", {
            "y0": args.y0, "window": args.window, "tol": args.tol,
        })
        _emit_zero_records([rec], args.out, manifest)
    else:
        records = zeros.load_zeros(args.path)
        manifest = RunManifest("zeros load", {"path": args.path})
        _emit_zero_records(records, args.out, manifest)
    return 0


def cmd_search(args) -> int:
    spec = search.ObjectiveSpec(
        points=(StripPoint(args.x, args.y),),
        n_window=(args.n0, args.n1), h_max=args.h_max, eta_tol=args.eta_tol)
    config = search.SearchConfig(
        seed=args.seed, prefix_length=args.prefix, iterations=args.iters,
        objective=spec, neighborhood=args.neighborhood,
        initial_temperature=args.t0, decay=args.decay, bound_hint=args.bound)
    result = search.anneal(config)
    with open(args.out_trace, "w") as fh:
        result.trace_csv(fh)
    with open(args.out_best, "w") as fh:
        fh.write(result.best_json())
        fh.write("\n")
    manifest = RunManifest("search", {
        "seed": args.seed, "prefix": args.prefix, "iters": args.iters,
        "x": args.x, "y": args.y, "n0": args.n0, "n1": args.n1,
        "hMax": args.h_max, "neighborhood": args.neighborhood,
        "t0": args.t0, "decay": args.decay, "bound": args.bound,
    })
    manifest.write_sidecar(args.out_trace)
    manifest.write_sidecar(args.out_best)
    print(f"best objective {result.best.objective:.6g} "
          f"(identity start, {args.iters} iterations)")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etaq",
        description="Alternating zeta-series diagnostics over odd-squarefree orderings")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="run the identity/property suite")
    p.add_argument("--k-max", type=int, default=20_000)
    p.add_argument("--budget", type=int, default=1_000_000, help=TERMS_HELP)
    p.add_argument("--json", help="write machine-readable summary here")
    p.add_argument("--inject-fault", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    for name, evaluate in (("eta", eta_accel), ("zeta", zeta_from_eta)):
        p = sub.add_parser(name, help=f"evaluate {name}(x+iy)")
        p.add_argument("x", type=float)
        p.add_argument("y", type=float)
        p.add_argument("--tol", type=float, default=1e-12)
        p.set_defaults(func=cmd_point, evaluate=evaluate)

    p = sub.add_parser("surface", help="C/S double-sum grid as CSV")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--ordering", default="byvalue")
    p.add_argument("--n", required=True, help=f"range start:stop[:step]; {TERMS_HELP}")
    p.add_argument("--h", required=True, help="range start:stop[:step]")
    p.add_argument("--bound", type=int, default=10_000, help=Q_BOUND_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("gap", help="iterated-limit report as JSON")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--ordering", default="byvalue")
    p.add_argument("--h-max", type=int, default=None,
                   help="default: all elements below --q-bound")
    p.add_argument("--budget", type=int, default=1_000_000, help=TERMS_HELP)
    p.add_argument("--q-bound", type=int, default=10_000, help=Q_BOUND_HELP)
    p.add_argument("--eta-tol", type=float, default=1e-12)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("zeros", help="zero ordinates: scan, refine, or load")
    zsub = p.add_subparsers(dest="zeros_cmd", required=True)
    ps = zsub.add_parser("scan")
    ps.add_argument("--y-min", type=float, required=True)
    ps.add_argument("--y-max", type=float, required=True)
    ps.add_argument("--step", type=float, default=0.01)
    ps.add_argument("--threshold", type=float, default=0.05)
    ps.add_argument("--refine", action="store_true")
    ps.add_argument("--tol", type=float, default=1e-9)
    ps.add_argument("--out")
    pr = zsub.add_parser("refine")
    pr.add_argument("--y0", type=float, required=True)
    pr.add_argument("--window", type=float, default=0.05)
    pr.add_argument("--tol", type=float, default=1e-9)
    pr.add_argument("--out")
    pl = zsub.add_parser("load")
    pl.add_argument("path")
    pl.add_argument("--out")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("search", help="anneal over prefix orderings")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--prefix", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--x", type=float, default=0.75)
    p.add_argument("--y", type=float, default=3.0)
    p.add_argument("--n0", type=int, default=200)
    p.add_argument("--n1", type=int, default=400, help=TERMS_HELP)
    p.add_argument("--h-max", type=int, default=16)
    p.add_argument("--neighborhood", default="random-swap",
                   choices=("random-swap", "adjacent-swap"))
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--decay", type=float, default=0.95)
    p.add_argument("--eta-tol", type=float, default=1e-12)
    p.add_argument("--bound", type=int, default=10_000, help=Q_BOUND_HELP)
    p.add_argument("--out-trace", required=True)
    p.add_argument("--out-best", required=True)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PoleError as exc:
        print(f"error: pole at z=1 ({exc})", file=sys.stderr)
        return 2
    except (AccelerationError, SingularDenominatorError, ValueError,
            zeros.RefinementError, qset.EnumerationShortfallError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
