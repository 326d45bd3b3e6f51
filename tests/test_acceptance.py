"""Acceptance gate: one test per criterion, each printing a pass line with
the measured quantity so a run log doubles as a report."""

import json
import math
import time

import numpy as np
import pytest

from etaq.cli import run_verify
from etaq.limits import (c_s_naive, c_s_surface, commutativity_gap,
                         limit_A_series, rh_contradiction_check)
from etaq.qset import QOrdering, f_bruteforce, f_closed
from etaq.series import (StripPoint, eta_accel, gamma_partial, geom_closed,
                         subseries_q, zeta_from_eta)
from etaq.zeros import scan_zeros

GRID_POINTS = [StripPoint(0.3, 2.0), StripPoint(0.5, 0.0),
               StripPoint(0.5, 14.0), StripPoint(0.75, 3.0),
               StripPoint(2.0, 0.0)]

PUBLISHED_ORDINATES = (14.134725, 21.022040, 25.010858)


def report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def test_c1_combinatorial_exactness():
    t0 = time.monotonic()
    for k in range(1, 100_001):
        assert f_closed(k) == f_bruteforce(k), k
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(1, f"f_closed == f_bruteforce for k <= 1e5 in {elapsed:.1f}s")


def test_c2_definition_vs_fast_path():
    ordering = QOrdering.by_value(2000)
    n_axis = [1, 2, 4, 10, 27, 60, 101, 150, 200]
    h_axis = [1, 2, 5, 11, 24, 37, 50]
    worst = 0.0
    for p in GRID_POINTS:
        surf = c_s_surface(p, ordering, n_axis, h_axis)
        for i, n in enumerate(n_axis):
            for j, h in enumerate(h_axis):
                c_ref, s_ref = c_s_naive(p, ordering, n, h)
                scale = max(1.0, abs(c_ref), abs(s_ref))
                worst = max(worst, abs(surf.C[i, j] - c_ref) / scale,
                            abs(surf.S[i, j] - s_ref) / scale)
    assert worst <= 1e-12
    report(2, f"incremental vs naive triple loop, worst rel dev {worst:.2e} "
              f"over n <= 200, h <= 50, 5 grid points")


def test_c3_classical_values():
    e1 = abs(eta_accel(StripPoint(1.0, 0.0)).value - math.log(2.0))
    e2 = abs(eta_accel(StripPoint(2.0, 0.0)).value - math.pi**2 / 12.0)
    z2 = abs(zeta_from_eta(StripPoint(2.0, 0.0)).value - math.pi**2 / 6.0)
    zh = abs(zeta_from_eta(StripPoint(0.5, 0.0)).value.real - (-1.4603545088))
    assert e1 <= 1e-12 and e2 <= 1e-12
    assert z2 <= 1e-9
    assert zh <= 1e-8
    report(3, f"eta(1) err {e1:.1e}, eta(2) err {e2:.1e}, "
              f"zeta(2) err {z2:.1e}, zeta(1/2) err {zh:.1e}")


def test_c4_geometric_closed_form():
    assert abs(geom_closed(StripPoint(0.5, 0.0)) + math.sqrt(2.0)) <= 1e-12

    worst_fit = 0.0
    for p in (StripPoint(0.3, 2.0), StripPoint(0.5, 14.0), StripPoint(0.75, 3.0)):
        ls = np.arange(4, 36)
        diffs = [abs(gamma_partial(p, int(l)) - geom_closed(p)) for l in ls]
        slope = np.polyfit(ls, np.log2(diffs), 1)[0]
        worst_fit = max(worst_fit, abs(-slope - p.x) / p.x)
    assert worst_fit <= 0.05

    worst_margin = np.inf
    for x in np.linspace(0.01, 0.99, 100):
        for y in np.linspace(-25.0, 25.0, 100):
            p = StripPoint(float(x), float(y))
            bound = (2.0 - 2.0**p.x) / (2.0**p.x + 1.0)
            worst_margin = min(worst_margin, abs(geom_closed(p)) - bound)
    assert worst_margin >= 0.0
    report(4, f"geom(1/2,0) = -sqrt(2); decay exponent fit within {worst_fit:.1%}; "
              f"non-vanishing margin {worst_margin:.3e} on 100x100 strip grid")


@pytest.fixture(scope="module")
def refined_zeros():
    t0 = time.monotonic()
    records = scan_zeros(0.0, 30.0, step=0.01, threshold=0.05, tol=1e-9)
    return records, time.monotonic() - t0


def test_c5_zero_reproduction(refined_zeros):
    records, elapsed = refined_zeros
    assert elapsed < 120.0
    assert len(records) == 3
    for rec, want in zip(records, PUBLISHED_ORDINATES):
        assert abs(rec.ordinate - want) <= 1e-5
        assert rec.residual <= 1e-9
    below = sum(1 for r in records if r.ordinate < 25.02)
    assert below == 3
    report(5, f"ordinates {[round(r.ordinate, 6) for r in records]}, "
              f"residuals <= {max(r.residual for r in records):.1e}, "
              f"3 zeros below 25.02, {elapsed:.1f}s")


def test_c6_at_a_zero_lemma_suite(first_zero):
    p = StripPoint(0.5, first_zero.ordinate)
    eta = eta_accel(p).value
    assert abs(eta.real) <= 1e-9 and abs(eta.imag) <= 1e-9

    for q in (3, 5, 15):
        assert abs(subseries_q(p, q)) <= q**-0.5 * 1e-8

    worst = 0.0
    for ordering in (QOrdering.by_value(10_000),
                     QOrdering.seeded_shuffle(7, 64, 10_000)):
        a = limit_A_series(p, *ordering.arrays(64), eta)
        worst = max(worst, np.max(np.abs(a.real)), np.max(np.abs(a.imag)))
    assert worst <= 1e-8
    report(6, f"|eta| = {abs(eta):.1e} at the zero; subseries and inner-limit "
              f"components <= {worst:.1e} for h <= 64 (by-value and seed-7 shuffle)")


def test_c7_non_commutation_at_zero(first_zero):
    p = StripPoint(0.5, first_zero.ordinate)
    ordering = QOrdering.by_value(10_000)
    rep = commutativity_gap(p, ordering, len(ordering.sequence()), budget=10**6)
    g = geom_closed(p)
    dev_cos = abs(rep.gap.real - g.real)
    dev_sin = abs(rep.gap.imag + g.imag)
    assert dev_cos <= 1e-6
    assert dev_sin <= 1e-6
    assert abs(g) > 0.5  # the gap is genuinely nonzero, not a small residue
    report(7, f"gap = ({rep.gap.real:.6f}, {rep.gap.imag:.6f}) matches the "
              f"geometric closed form to ({dev_cos:.1e}, {dev_sin:.1e}); "
              "limits do not commute at the first zero")


def test_c8_commutation_in_absolute_region():
    p = StripPoint(3.0, 0.0)
    gaps = []
    for bound in (100, 1000, 10_000):
        ordering = QOrdering.by_value(bound)
        rep = commutativity_gap(p, ordering, len(ordering.sequence()), budget=10**5)
        gaps.append(max(abs(rep.gap.real), abs(rep.gap.imag)))
    assert gaps[-1] <= 1e-6
    floor = 1e-9
    for earlier, later in zip(gaps, gaps[1:]):
        assert later < earlier or later <= floor
    report(8, f"|gap| at s=(3,0) through Q bounds 1e2,1e3,1e4: "
              f"{gaps[0]:.1e} > {gaps[1]:.1e} > {gaps[2]:.1e} (floor 1e-9)")


def test_c9_contradiction_chain_identity(first_zero):
    # x >= 1/2 throughout: the direct truncation error scales like N^(-x),
    # so the 5e-3 budget-1e6 tolerance is meaningful only from the critical
    # line rightward
    points = [StripPoint(0.5, 0.0), StripPoint(0.5, 14.0),
              StripPoint(0.75, 3.0), StripPoint(2.0, 0.0),
              StripPoint(0.5, first_zero.ordinate)]
    worst_oracle = 0.0
    worst_direct = 0.0
    for p in points:
        residual_oracle, residual_direct = rh_contradiction_check(p, budget=10**6)
        worst_oracle = max(worst_oracle, residual_oracle)
        worst_direct = max(worst_direct, residual_direct)
    assert worst_oracle <= 1e-10
    assert worst_direct <= 5e-3
    report(9, f"sum_Gamma = sum + signed-sum identity: oracle residual "
              f"{worst_oracle:.1e}, direct residual {worst_direct:.1e} at budget 1e6")


def test_c10_determinism_and_verify_runtime(tmp_path, run_cli):
    surface_args = ["surface", "--x", "0.5", "--y", "14.134725", "--ordering",
                    "shuffle:9:32", "--n", "1:200:20", "--h", "1:16",
                    "--bound", "1000"]
    run_cli(surface_args + ["--out", "s1.csv"], tmp_path)
    run_cli(surface_args + ["--out", "s2.csv"], tmp_path)
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

    search_args = ["search", "--seed", "42", "--prefix", "16", "--iters", "25",
                   "--n0", "50", "--n1", "150", "--h-max", "8", "--bound", "500"]
    run_cli(search_args + ["--out-trace", "t1.csv", "--out-best", "b1.json"],
            tmp_path)
    run_cli(search_args + ["--out-trace", "t2.csv", "--out-best", "b2.json"],
            tmp_path)
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    assert (tmp_path / "b1.json").read_bytes() == (tmp_path / "b2.json").read_bytes()

    m1 = json.loads((tmp_path / "s1.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "s2.csv.manifest.json").read_text())
    m1.pop("timestamp"), m2.pop("timestamp")
    assert m1 == m2

    t0 = time.monotonic()
    checks = run_verify(k_max=100_000, budget=10**6)
    elapsed = time.monotonic() - t0
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert elapsed <= 300.0
    report(10, f"surface/search outputs byte-identical across runs; full "
               f"verify suite ({len(checks)} checks) green in {elapsed:.1f}s")
