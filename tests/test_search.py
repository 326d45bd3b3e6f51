import tracemalloc

import numpy as np
import pytest

from etaq import search
from etaq.limits import c_s_running, limit_A_series
from etaq.qset import OddSquarefree, QOrdering
from etaq.search import (ObjectiveSpec, OrderingCandidate, SearchConfig,
                        anneal, objective_gap)
from etaq.series import _SUM_BLOCK_TERMS, StripPoint, eta_accel, subseries_q, term_ab


def small_spec(h_max=8, n_window=(50, 120), point=StripPoint(0.75, 3.0)):
    return ObjectiveSpec(points=(point,), n_window=n_window, h_max=h_max)


def small_config(seed=42, iters=20, prefix=16):
    return SearchConfig(seed=seed, prefix_length=prefix, iterations=iters,
                        objective=small_spec(), bound_hint=1000)


def adjacent_config():
    return SearchConfig(seed=9, prefix_length=8, iterations=10,
                        objective=small_spec(h_max=4),
                        neighborhood="adjacent-swap", bound_hint=1000)


FIRST_ZERO = StripPoint(0.5, 14.134725141734693)
TWO_POINTS = (FIRST_ZERO, StripPoint(2.0, 0.0))

# Shapes the two configs above miss: most positions past h_max, h_max equal
# to the prefix with n0 = 1, two spec points, and t0 = 0 with n0 = n1.
GOLDEN_CONFIGS = {
    "adjacent-swap-short-h": SearchConfig(
        seed=5, prefix_length=16, iterations=20, objective=small_spec(h_max=6),
        neighborhood="adjacent-swap", bound_hint=1000),
    "random-swap-h-is-prefix": SearchConfig(
        seed=7, prefix_length=10, iterations=20,
        objective=small_spec(h_max=10, n_window=(1, 90)), bound_hint=1000),
    "two-points": SearchConfig(
        seed=11, prefix_length=12, iterations=15,
        objective=ObjectiveSpec(points=TWO_POINTS, n_window=(100, 300), h_max=8),
        bound_hint=1000),
    "t0-zero": SearchConfig(
        seed=13, prefix_length=12, iterations=15,
        objective=small_spec(h_max=6, n_window=(60, 60)), initial_temperature=0.0,
        bound_hint=1000),
}


# Trace objectives and best permutations recorded from the search as it was
# when every proposal was evaluated on element views.
GOLDEN_RANDOM_SWAP = (
    [0.17795987838072308, 0.1624076910050088, 0.23717751264551015,
     0.2305859906081336, 0.1850458270656054, 0.1850458270656054,
     0.1646255632317402, 0.22004159968877357, 0.22004159968877368,
     0.21481644416423368, 0.21481644416423368, 0.20982260117078722,
     0.20982260117078722, 0.20982260117078716, 0.20982260117078716,
     0.20982260117078716, 0.20848830225264753, 0.2084883022526475,
     0.20848830225264753, 0.21580491411218927],
    (3, 15, 29, 11, 13, 5, 17, 19, 21, 23, 7, 31, 33, 35, 37, 39),
)
GOLDEN_ADJACENT_SWAP = (
    [0.11379979010659586, 0.11379979010659586, 0.11379979010659586,
     0.11379979010659586, 0.11379979010659594, 0.14051789072592985,
     0.14051789072592985, 0.14051789072592977, 0.14051789072592977,
     0.1405178907259297],
    (3, 5, 7, 11, 13, 15, 17, 19),
)
# Recorded from the search that evaluated every proposal from scratch.
GOLDEN_MORE = {
    "adjacent-swap-short-h": (
        [0.14202084500452333] + [0.14202084500452328] * 8
        + [0.1594522822557337, 0.1594522822557337, 0.15945228225573368]
        + [0.1594522822557337] * 8,
        (3, 5, 7, 11, 15, 13, 17, 19, 23, 21, 29, 31, 33, 35, 37, 39),
    ),
    "random-swap-h-is-prefix": (
        [0.7891455047561748] * 6
        + [0.5481187316872743, 0.658187496046247, 0.5481187316872743,
           0.7708902747853318, 0.7708902747853319, 0.7708902747853319,
           0.4969808040104896, 0.4969808040104896, 0.4969808040104896,
           0.633864126947234, 0.4969808040104896, 0.7891455047561748,
           0.658187496046247, 0.5555551794928189],
        (23, 5, 7, 13, 11, 19, 15, 3, 17, 21),
    ),
    "two-points": (
        [0.6034823446586478, 0.5791274970520073, 0.5791274970520073,
         0.5791274970520074, 0.6015869540964964, 0.6129098262086716,
         0.7117870789480071, 0.6129098262086716, 0.6129098262086716,
         0.8337417616682335, 0.8337417616682335, 0.8415038618787696,
         0.5060678601035764, 0.6624760810070249, 0.6624910398258469],
        (7, 15, 29, 21, 11, 23, 17, 13, 3, 5, 19, 31),
    ),
    "t0-zero": (
        [0.08494566171752144, 0.08639357343461501, 0.09299576264608467,
         0.14611693954638627, 0.08756621941113664, 0.09401271805551215,
         0.06873969254463577, 0.07039646357394698, 0.06616591526993904,
         0.06616591526993892, 0.06616591526993892, 0.05534943139748978,
         0.05534943139748978, 0.07239006613483051, 0.08805034446392622],
        (7, 5, 17, 11, 15, 13, 19, 21, 29, 23, 3, 31),
    ),
}


def k_major_objective(values, signs, spec):
    """The objective by its definition: one k at a time, divisors of k found
    by trial division, every h column updated."""
    values, signs = values[:spec.h_max], signs[:spec.h_max]
    prefix = list(zip(values.tolist(), signs.tolist()))
    n0, n1 = spec.n_window
    total = 0.0
    for p in spec.points:
        a = limit_A_series(p, values, signs, eta_accel(p, spec.eta_tol).value)
        a_cos, a_sin = a.real, a.imag
        c_row = [0.0] * spec.h_max
        s_row = [0.0] * spec.h_max
        worst = 0.0
        for k in range(1, n1 + 1):
            a_k, b_k = term_ab(k, p)
            for i, (q, sign) in enumerate(prefix):
                if k % q == 0:
                    for h in range(i, spec.h_max):
                        c_row[h] += sign * a_k
                        s_row[h] += sign * b_k
            if k >= n0:
                worst = max(worst, *(abs(c - a) + abs(s - b) for c, a, s, b
                                     in zip(c_row, a_cos, s_row, a_sin)))
        total += worst
    return total


class TestObjective:
    def test_h_zero_is_zero(self):
        values, signs = QOrdering.by_value(100).arrays(4)
        assert objective_gap(values, small_spec(h_max=0), signs=signs) == 0.0

    def test_deterministic(self):
        values, signs = QOrdering.by_value(1000).arrays(16)
        views = QOrdering.by_value(1000).sequence()[:16]
        spec = small_spec()
        want = objective_gap(values, spec, signs=signs)
        assert objective_gap(values, spec, signs=signs) == want
        assert objective_gap(views, spec) == objective_gap(iter(views), spec) == want

    def test_two_element_identity_matches_subseries_tail(self):
        # only q1=3 contributes at hMax=1; objective is the worst deviation of
        # the truncated q=3 subseries from its limit over the n window
        p = StripPoint(2.0, 0.0)
        spec = ObjectiveSpec(points=(p,), n_window=(100, 200), h_max=1)
        values, signs = QOrdering.by_value(100).arrays(2)
        got = objective_gap(values, spec, signs=signs)
        limit = subseries_q(p, 3, "accelerated")
        worst = 0.0
        for n in range(100, 201):
            m = n // 3
            trunc = subseries_q(p, 3, "direct", m) if m else 0.0
            dev = abs((-trunc).real - (-limit).real) + abs((trunc).imag - (limit).imag)
            worst = max(worst, dev)
        assert got == pytest.approx(worst, rel=1e-9)

    @pytest.mark.parametrize("spec", [
        small_spec(),
        ObjectiveSpec(points=(StripPoint(0.5, 14.134725141734693), StripPoint(2.0, 0.0)),
                      n_window=(500, 1000), h_max=32),
    ])
    def test_against_k_major_reference(self, spec):
        values, signs = QOrdering.seeded_shuffle(5, 40, 1000).arrays(40)
        assert objective_gap(values, spec, signs=signs) == pytest.approx(
            k_major_objective(values, signs, spec), rel=1e-12)

    def test_swap_outside_divisor_range_is_neutral(self):
        # swapping two elements dividing nothing <= n1 leaves the objective alone
        spec = ObjectiveSpec(points=(StripPoint(0.75, 3.0),),
                             n_window=(10, 40), h_max=18)
        values, signs = QOrdering.by_value(1000).arrays(18)
        i, j = values.tolist().index(41), values.tolist().index(43)  # primes > n1 = 40
        order = np.arange(18)
        order[[i, j]] = [j, i]
        assert objective_gap(values, spec, signs=signs) == objective_gap(
            values[order], spec, signs=signs[order])

    def test_h_max_exceeding_prefix_rejected(self):
        values, signs = QOrdering.by_value(100).arrays(4)
        with pytest.raises(ValueError, match="hMax 10 exceeds prefix length 4"):
            objective_gap(values, small_spec(h_max=10), signs=signs)


class TestAnneal:
    def test_single_iteration(self):
        cfg = small_config(iters=1)
        result = anneal(cfg)
        assert len(result.trace) == 1

    def test_trace_determinism(self):
        a = anneal(small_config())
        b = anneal(small_config())
        assert a.trace.tolist() == b.trace.tolist()
        assert a.best.permutation == b.best.permutation

    @pytest.mark.parametrize("config, golden", [
        (small_config(), GOLDEN_RANDOM_SWAP),
        (adjacent_config(), GOLDEN_ADJACENT_SWAP),
        *((GOLDEN_CONFIGS[name], GOLDEN_MORE[name]) for name in GOLDEN_CONFIGS),
    ], ids=["random-swap", "adjacent-swap", *GOLDEN_CONFIGS])
    def test_golden_trace(self, config, golden):
        result = anneal(config)
        assert [e.objective for e in result.trace] == golden[0]
        assert result.best.permutation == golden[1]

    def test_seed_changes_trace(self):
        a = anneal(small_config(seed=1))
        b = anneal(small_config(seed=2))
        assert a.trace.tolist() != b.trace.tolist()

    def test_trace_objectives_recompute_exactly(self, monkeypatch):
        candidates = []
        core = search.objective_gap

        def recording(values, spec, *, signs, cache):  # anneal passes arrays only
            candidates.append((values.tolist(), signs.tolist()))
            return core(values, spec, signs=signs, cache=cache)

        monkeypatch.setattr(search, "objective_gap", recording)
        cfg = small_config(iters=15)
        result = anneal(cfg)
        assert len(candidates) == cfg.iterations + 1  # the start, then each proposal
        # element views, as a caller holding only the best JSON's values has them
        views = {q.value: q for q in QOrdering.by_value(cfg.bound_hint).sequence()}
        for entry, (values, signs) in zip(result.trace, candidates[1:]):
            elements = [views[v] for v in values]
            assert [q.sign for q in elements] == signs
            assert entry.objective == objective_gap(elements, cfg.objective)

    def test_best_never_worse_than_identity(self):
        cfg = small_config(iters=40)
        values, signs = QOrdering.by_value(cfg.bound_hint).arrays(cfg.prefix_length)
        identity_obj = objective_gap(values, cfg.objective, signs=signs)
        result = anneal(cfg)
        assert result.best.objective <= identity_obj

    def test_adjacent_swap_neighborhood(self):
        result = anneal(adjacent_config())
        assert len(result.trace) == 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(seed=1, prefix_length=1, iterations=10,
                         objective=small_spec())
        with pytest.raises(ValueError):
            SearchConfig(seed=1, prefix_length=4, iterations=10,
                         objective=small_spec(), decay=1.5)
        with pytest.raises(ValueError):
            SearchConfig(seed=1, prefix_length=4, iterations=10,
                         objective=small_spec(), neighborhood="teleport")

    def test_outputs(self, tmp_path):
        import json
        result = anneal(small_config(iters=5))
        trace_file = tmp_path / "trace.csv"
        with trace_file.open("w") as fh:
            result.trace_csv(fh)
        lines = trace_file.read_text().splitlines()
        assert lines[0] == "iteration,objective,accepted"
        assert len(lines) == 6
        assert lines[1:] == ["%d,%.17g,%d" % (i, objective, accepted) for i, (objective, accepted)
                             in enumerate(result.trace.tolist(), start=1)]
        assert not result.trace.flags.writeable
        doc = json.loads(result.best_json())
        assert len(doc["permutation"]) == 16
        assert doc["permutation"] == list(result.best.permutation)
        assert doc["rng"] == "splitmix64-v1"


def running_objective(values, signs, spec):
    """The objective as the search computed it before the cache: one
    `c_s_running` pass and one `limit_A_series` per point."""
    values, signs = values[:spec.h_max], signs[:spec.h_max]
    rows = np.arange(spec.n_window[0], spec.n_window[1] + 1)
    total = 0.0
    for p in spec.points:
        a = limit_A_series(p, values, signs, eta_accel(p, spec.eta_tol).value)
        worst = 0.0
        for a_h, cs in zip(a.tolist(), c_s_running(p, values, signs, rows)):
            d = cs - a_h
            worst = max(worst, float((np.abs(d.real) + np.abs(d.imag)).max()))
        total += worst
    return total


class TestObjectiveCache:
    @pytest.mark.parametrize("spec, prefix", [
        (small_spec(h_max=8), 20),
        (small_spec(h_max=1), 6),
        (small_spec(h_max=5, n_window=(70, 70)), 12),
        (ObjectiveSpec(points=TWO_POINTS, n_window=(1, 150), h_max=6), 14),
        (small_spec(h_max=10, n_window=(40, 160)), 10),
    ], ids=["random", "h-max-1", "n0-is-n1", "two-points", "h-max-is-prefix"])
    def test_replayed_objective_equals_from_scratch(self, spec, prefix):
        rng = np.random.default_rng(prefix * 100 + spec.h_max)
        values, signs = QOrdering.by_value(1000).arrays(prefix)
        cache = search.ObjectiveCache(spec, values, signs, spec.etas())
        current = np.arange(prefix)
        first = objective_gap(values, spec, signs=signs, cache=cache)
        assert first == objective_gap(values, spec, signs=signs)
        assert first == running_objective(values, signs, spec)
        cache.accept()
        tail_swaps = accepts = 0
        for _ in range(80):
            i, j = rng.choice(prefix, size=2, replace=False)
            tail_swaps += min(i, j) >= spec.h_max
            candidate = current.copy()
            candidate[[i, j]] = candidate[[j, i]]
            got = objective_gap(values[candidate], spec, signs=signs[candidate],
                                cache=cache)
            assert got == objective_gap(values[candidate], spec, signs=signs[candidate])
            assert got == running_objective(values[candidate], signs[candidate], spec)
            if rng.random() < 0.5:
                cache.accept()
                current = candidate
                accepts += 1
        assert 10 < accepts < 70
        assert tail_swaps > 0 or spec.h_max == prefix

    def test_unchanged_prefix_is_not_replayed(self, monkeypatch):
        spec = small_spec(h_max=4)
        values, signs = QOrdering.by_value(1000).arrays(10)
        cache = search.ObjectiveCache(spec, values, signs, spec.etas())
        first = objective_gap(values, spec, signs=signs, cache=cache)
        cache.accept()
        monkeypatch.setattr(search.ObjectiveCache, "column", None)
        swapped = values[[0, 1, 2, 3, 9, 5, 6, 7, 8, 4]]
        assert objective_gap(swapped, spec, signs=signs, cache=cache) == first

    def test_h_zero_anneal_builds_nothing(self, monkeypatch):
        monkeypatch.setattr(search.limits, "strided_partials", None)
        cfg = SearchConfig(seed=1, prefix_length=6, iterations=5,
                           objective=small_spec(h_max=0), bound_hint=1000)
        assert [e.objective for e in anneal(cfg).trace] == [0.0] * 5

    def test_anneal_evaluates_eta_once_per_point(self, monkeypatch):
        calls = []
        monkeypatch.setattr(search, "eta_accel",
                            lambda p, tol: (calls.append(p), eta_accel(p, tol))[1])
        cfg = SearchConfig(seed=3, prefix_length=12, iterations=10, bound_hint=1000,
                           objective=ObjectiveSpec(points=TWO_POINTS, n_window=(100, 300),
                                                   h_max=8))
        anneal(cfg)
        assert calls == list(TWO_POINTS)

    def test_anneal_peak_memory_is_the_cache_and_the_term_build(self):
        # The cache holds 16 bytes per entry of each value's slice of strided
        # prefix sums.  Building it holds the complex terms, 16 bytes per term
        # copied in from the term builder's blocks, and one value's strided
        # prefix sums at a time (16 bytes per term / q, with q >= 3); the
        # replay holds 48 bytes per row of the window.  The replay sets the
        # peak at n0 = 5e5, the build at n0 = 9e5.
        n1 = 1_000_000
        for n0 in (500_000, 900_000):
            cfg = SearchConfig(seed=1, prefix_length=96, iterations=3, bound_hint=1000,
                               objective=small_spec(h_max=16, n_window=(n0, n1)))
            values, _ = QOrdering.by_value(cfg.bound_hint).arrays(cfg.prefix_length)
            assert values.min() == 3
            cache_bytes = 16 * sum(n1 // q - n0 // q + 1 for q in values.tolist())
            build = 16 * n1 + 16 * (n1 // 3 + 1)
            replay = 48 * (n1 - n0 + 1)
            tracemalloc.start()
            try:
                anneal(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= cache_bytes + max(build, replay) + 160 * _SUM_BLOCK_TERMS, n0

    def test_anneal_trace_holds_at_most_16_bytes_per_iteration(self):
        # the records are 9 bytes each; the rest of what anneal keeps does
        # not grow with the iteration count
        def retained(iterations):
            cfg = SearchConfig(seed=1, prefix_length=8, iterations=iterations,
                               objective=small_spec(h_max=4, n_window=(200, 400)))
            tracemalloc.start()
            try:
                result = anneal(cfg)
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        retained(1)  # anything cached on first use
        assert retained(4000) - retained(2000) <= 16 * 2000


def test_candidate_type():
    cand = OrderingCandidate(permutation=(3, 5, 7), objective=0.5)
    assert cand.objective == 0.5
    assert cand.permutation == (3, 5, 7)


def test_anneal_builds_no_element_views(monkeypatch):
    built = []
    new = OddSquarefree.__new__
    monkeypatch.setattr(OddSquarefree, "__new__",
                        lambda cls, value, sign: (built.append(value), new(cls, value, sign))[1])
    anneal(small_config())
    assert built == []
    QOrdering.by_value(6).sequence()  # the counter does see element views
    assert built == [3, 5]
