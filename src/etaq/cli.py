"""Command-line front end.

Subcommands: verify, eta, zeta, surface, gap, zeros (scan|refine|load),
search.  Each command checks its output paths, calls the library, which
checks its own inputs, and hands each data file to `emit`: to stdout, with
no sidecar, when ``gap`` or ``zeros`` has no ``--out``; else to the file and
a sidecar ``<out>.manifest.json`` recording the command, every flag but the
output paths (``ordering`` as its descriptor, ``gap``'s ``hMax`` as the
count used), and the numeric-method identifiers.  Data files contain no
timestamps, so identical manifests (minus timestamp) give byte-identical
outputs.

Every output path is checked before any work, so that a path that cannot be
written, an empty one, or two outputs (sidecars counted) that name one file
fail at once; ``gap`` and ``search`` evaluate eta before they sieve Q, so an
``--eta-tol`` it cannot reach fails before the sieve.

Exit codes: 0 success, 1 check failure, 2 usage, precondition or output error
(every library failure is a ValueError, or an OSError on an output path, and
prints one line), 141 (128 + SIGPIPE, as a shell reports for a command stopped
by a closed pipe) when the reader of stdout closes it early; nothing is
printed then.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, _rng, limits, search, series, zeros
from . import qset
from .qset import QOrdering
from .series import StripPoint, eta_accel, geom_closed, zeta_from_eta

METHOD_IDS = (series.ACCEL_METHOD_ID, series.AVERAGED_METHOD_ID, f"rng:{_rng.ALGORITHM_ID}",
              f"tail:iterated-averaging-{series.TAIL_LEVELS}")

ZETA_HALF_REF = -1.4603545088095868  # independently cross-checked reference

Q_BOUND_HELP = (f"largest element of Q enumerated, at most {qset.MAX_ENUM_BOUND} "
                "(the sieve needs about 5 bytes per unit of bound)")
TERMS_HELP = (f"term count, at most {series.MAX_TERMS} (gap and verify sum the terms "
              "a block at a time, whatever the count; surface and search hold 16 "
              "bytes per term)")
SEARCH_CACHE_HELP = ("the search cache holds 16 bytes x sum over the prefix's q of "
                     "(n1 // q - n0 // q + 1) per point, and its replay 48 bytes "
                     "per row of the window")
CELLS_HELP = (f"len(--n) x len(--h) is at most {limits.MAX_CELLS} cells "
              "(16 bytes per cell)")
HEIGHT_HELP = (f"|y| at most {series.MAX_HEIGHT:.2f}, past which the eta evaluator "
               "meets no tolerance")
REACH_HELP = ("at the default 1e-12 the eta evaluator reaches |y| of about 196; "
              f"past its reach the command exits 2; {HEIGHT_HELP}")
EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE
SUBCOMMANDS = ("cmd", "zeros_cmd")  # the dests that name the command
NOT_PARAMETERS = (*SUBCOMMANDS, "func", "out", "out_trace", "out_best")


def check_outputs(*paths: str | None, sidecar: bool = True) -> None:
    """Raise the OSError that opening each given path for writing would
    raise, without creating it; with `sidecar`, check its manifest too.
    None is a path not given; the empty path fails as open would fail it.
    Two targets that name one file, sidecars counted, raise ValueError."""
    seen = set()
    for path in (p for p in paths if p is not None):
        for target in (path, path + ".manifest.json") if sidecar else (path,):
            real = os.path.realpath(target)
            if real in seen:
                raise ValueError(f"two outputs would write {target}")
            seen.add(real)
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
            parent = os.path.dirname(target) or "."
            if not (target and os.path.isdir(parent)):
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), target)
            if not os.access(target if os.path.exists(target) else parent, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), target)


def parse_range(text: str, name: str = "range") -> list[int]:
    """start:stop[:step] -> [start, start+step, ...]; stop included when hit
    exactly.  A bare integer is a single-element list.  A range of more
    values than a surface has cells is rejected before its list is built."""
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
    limits.check_cell_count((stop - start) // step + 1, f"{name} {text}")
    return list(range(start, stop + 1, step))


def parse_ordering(spec: str, bound: int) -> QOrdering:
    if spec == "byvalue":
        return QOrdering.by_value(bound)
    if spec == "byfactor":
        return QOrdering.by_factor_count(bound)
    if spec.startswith("shuffle:"):
        try:
            seed, prefix = map(int, spec.split(":")[1:])
        except ValueError:  # a part that is no integer, or not two parts
            raise ValueError(f"shuffle ordering is shuffle:SEED:PREFIX, got {spec!r}") from None
        return QOrdering.seeded_shuffle(seed, prefix, bound)
    raise ValueError(f"unknown ordering {spec!r} "
                     "(byvalue, byfactor, shuffle:SEED:PREFIX)")


def emit(args, out: str | None, write, **fixed) -> None:
    """Call `write(fh)` on stdout when `out` is None, with no sidecar; else on
    the file `out`, then write its sidecar ``<out>.manifest.json``.  Its
    parameters are every flag of `args` but the subcommands, ``func`` and the
    output paths, camelCased in parser order; `fixed` replaces a value."""
    if out is None:
        write(sys.stdout)
        return
    with open(out, "w") as fh:
        write(fh)
    flags = vars(args)
    parameters = {re.sub("_(.)", lambda m: m[1].upper(), dest): value
                  for dest, value in flags.items() if dest not in NOT_PARAMETERS}
    manifest = {"command": " ".join(flags[d] for d in SUBCOMMANDS if d in flags),
                "parameters": {**parameters, **fixed}, "toolVersion": __version__,
                "numericMethods": list(METHOD_IDS),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    with open(out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
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


def run_verify(k_max: int, budget: int) -> list[CheckResult]:
    checks: list[CheckResult] = []

    def record(name: str, residual: float, threshold: float, detail: str):
        residual = float(residual)
        checks.append(CheckResult(name, bool(residual <= threshold),
                                  f"residual {residual:.3e} <= {threshold:.1e}? {detail}"))

    bad = sum(qset.f_bruteforce(k) != qset.f_closed(k) for k in range(1, k_max + 1))
    record("f-closed-vs-bruteforce", bad, 0.0, f"{bad} mismatches over k <= {k_max}")

    e1 = abs(eta_accel(StripPoint(1.0, 0.0)).value - math.log(2.0))
    e2 = abs(eta_accel(StripPoint(2.0, 0.0)).value - math.pi**2 / 12.0)
    record("eta-classical", max(e1, e2), 1e-12, "eta(1) vs ln 2, eta(2) vs pi^2/12")

    z2 = abs(zeta_from_eta(StripPoint(2.0, 0.0)).value - math.pi**2 / 6.0)
    zh = abs(zeta_from_eta(StripPoint(0.5, 0.0)).value - ZETA_HALF_REF)
    record("zeta-bridge", max(z2 / 1e-9, zh / 1e-8), 1.0,
           "zeta(2) vs pi^2/6 at 1e-9, zeta(1/2) vs reference at 1e-8")

    worst = 0.0
    for p in _grid_points():
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
        residual_oracle, residual_direct = limits.rh_contradiction_check(p, budget)
        worst_o = max(worst_o, residual_oracle)
        worst_d = max(worst_d, residual_direct / (4.0 * budget ** (-p.x)))
    record("contradiction-identity-oracle", worst_o, 1e-10,
           "sum_Gamma == sum + signed sum, closed-form paths")
    record("contradiction-identity-direct", worst_d, 1.0,
           f"same identity, truncation paths at budget {budget} within tail estimate")

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
    check_outputs(args.json, sidecar=False)
    series.check_term_count(args.budget)
    if args.budget < 1:
        raise ValueError("budget must be >= 1")
    if args.k_max < 1:
        raise ValueError(f"--k-max {args.k_max} must be >= 1")
    t0 = time.perf_counter()
    checks = run_verify(args.k_max, args.budget)
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    elapsed = time.perf_counter() - t0
    summary = {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in checks],
        "allPassed": all(c.passed for c in checks),
        "elapsedSeconds": round(elapsed, 3),
    }
    if args.json is not None:
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
    check_outputs(args.out)
    n_axis = parse_range(args.n, "--n")
    h_axis = parse_range(args.h, "--h")
    limits.check_cell_count(len(n_axis) * len(h_axis), f"--n {args.n} x --h {args.h}")
    ordering = parse_ordering(args.ordering, args.bound)
    surf = limits.c_s_surface(StripPoint(args.x, args.y), ordering, n_axis, h_axis)
    emit(args, args.out, surf.write_csv, ordering=ordering.descriptor())
    print(f"wrote {len(n_axis) * len(h_axis)} rows to {args.out}")
    return 0


def cmd_gap(args) -> int:
    check_outputs(args.out)
    point = StripPoint(args.x, args.y)
    ordering = parse_ordering(args.ordering, args.q_bound)
    report = limits.commutativity_gap(point, ordering, args.h_max, args.budget, args.eta_tol)
    emit(args, args.out, report.write_json, ordering=ordering.descriptor(),
         hMax=len(report.A))
    return 0


def cmd_zeros(args) -> int:
    check_outputs(args.out)
    if args.zeros_cmd == "scan":
        records = zeros.scan_zeros(args.y_min, args.y_max, args.step, args.threshold,
                                   tol=args.tol if args.refine else None)
    elif args.zeros_cmd == "refine":
        records = [zeros.refine_zero(args.y0, args.window, args.tol)]
    else:
        records = zeros.load_zeros(args.path)
    emit(args, args.out, lambda fh: zeros.write_csv(records, fh))
    return 0


def cmd_search(args) -> int:
    check_outputs(args.out_trace, args.out_best)
    spec = search.ObjectiveSpec(
        points=(StripPoint(args.x, args.y),),
        n_window=(args.n0, args.n1), h_max=args.h_max, eta_tol=args.eta_tol)
    config = search.SearchConfig(
        seed=args.seed, prefix_length=args.prefix, iterations=args.iters,
        objective=spec, neighborhood=args.neighborhood,
        initial_temperature=args.t0, decay=args.decay, bound_hint=args.bound)
    result = search.anneal(config)
    emit(args, args.out_trace, result.trace_csv)
    emit(args, args.out_best, lambda fh: fh.write(result.best_json() + "\n"))
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
    p.set_defaults(func=cmd_verify)

    zeta_reach = f"{REACH_HELP}; zeta accepts an error up to tol x max(1, |zeta|)"
    for name, evaluate, reach in (("eta", eta_accel, REACH_HELP),
                                  ("zeta", zeta_from_eta, zeta_reach)):
        p = sub.add_parser(name, help=f"evaluate {name}(x+iy)")
        p.add_argument("x", type=float)
        p.add_argument("y", type=float)
        p.add_argument("--tol", type=float, default=1e-12, help=reach)
        p.set_defaults(func=cmd_point, evaluate=evaluate)

    p = sub.add_parser("surface", help="C/S double-sum grid as CSV")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True, help=HEIGHT_HELP)
    p.add_argument("--ordering", default="byvalue")
    p.add_argument("--n", required=True,
                   help=f"range start:stop[:step]; {TERMS_HELP}; {CELLS_HELP}")
    p.add_argument("--h", required=True, help=f"range start:stop[:step]; {CELLS_HELP}")
    p.add_argument("--bound", type=int, default=10_000, help=Q_BOUND_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("gap", help="iterated-limit report as JSON")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True, help=HEIGHT_HELP)
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
    ps.add_argument("--y-max", type=float, required=True,
                    help="the grid is evaluated at tolerance 1e-12, which reaches y of "
                    f"about 196; at most {series.MAX_HEIGHT:.2f}")
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
    p.add_argument("--iters", type=int, required=True,
                   help=f"at most {search.MAX_ITERATIONS} (the trace holds 9 bytes "
                   "per iteration)")
    p.add_argument("--x", type=float, default=0.75)
    p.add_argument("--y", type=float, default=3.0, help=HEIGHT_HELP)
    p.add_argument("--n0", type=int, default=200)
    p.add_argument("--n1", type=int, default=400, help=f"{TERMS_HELP}; {SEARCH_CACHE_HELP}")
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader closed stdout early: stop quietly, with stdout on the
        # null device so that the flush at shutdown cannot fail again
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout without a file descriptor
            pass
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
