import numpy as np
import pytest

from etaq import search
from etaq.limits import limit_A_series
from etaq.qset import OddSquarefree, QOrdering
from etaq.search import (ObjectiveSpec, OrderingCandidate, SearchConfig,
                        anneal, objective_gap)
from etaq.series import StripPoint, subseries_q, term_ab


def small_spec(h_max=8, n_window=(50, 120), point=StripPoint(0.75, 3.0)):
    return ObjectiveSpec(points=(point,), n_window=n_window, h_max=h_max)


def small_config(seed=42, iters=20, prefix=16):
    return SearchConfig(seed=seed, prefix_length=prefix, iterations=iters,
                        objective=small_spec(), bound_hint=1000)


def adjacent_config():
    return SearchConfig(seed=9, prefix_length=8, iterations=10,
                        objective=small_spec(h_max=4),
                        neighborhood="adjacent-swap", bound_hint=1000)


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


def k_major_objective(elements, spec):
    """The objective by its definition: one k at a time, divisors of k found
    by trial division, every h column updated."""
    prefix = elements[:spec.h_max]
    values = np.array([q.value for q in prefix])
    signs = np.array([q.sign for q in prefix])
    n0, n1 = spec.n_window
    total = 0.0
    for p in spec.points:
        a_cos, a_sin = limit_A_series(p, values, signs, spec.eta_tol)
        c_row = [0.0] * spec.h_max
        s_row = [0.0] * spec.h_max
        worst = 0.0
        for k in range(1, n1 + 1):
            a_k, b_k = term_ab(k, p)
            for i, q in enumerate(prefix):
                if k % q.value == 0:
                    for h in range(i, spec.h_max):
                        c_row[h] += q.sign * a_k
                        s_row[h] += q.sign * b_k
            if k >= n0:
                worst = max(worst, *(abs(c - a) + abs(s - b) for c, a, s, b
                                     in zip(c_row, a_cos, s_row, a_sin)))
        total += worst
    return total


class TestObjective:
    def test_h_zero_is_zero(self):
        elems = QOrdering.by_value(100).prefix(4)
        assert objective_gap(elems, small_spec(h_max=0)) == 0.0

    def test_deterministic(self):
        elems = QOrdering.by_value(1000).prefix(16)
        spec = small_spec()
        assert objective_gap(elems, spec) == objective_gap(list(elems), spec)

    def test_two_element_identity_matches_subseries_tail(self):
        # only q1=3 contributes at hMax=1; objective is the worst deviation of
        # the truncated q=3 subseries from its limit over the n window
        p = StripPoint(2.0, 0.0)
        spec = ObjectiveSpec(points=(p,), n_window=(100, 200), h_max=1)
        elems = QOrdering.by_value(100).prefix(2)
        got = objective_gap(elems, spec)
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
        elems = QOrdering.seeded_shuffle(5, 40, 1000).prefix(40)
        assert objective_gap(elems, spec) == pytest.approx(
            k_major_objective(elems, spec), rel=1e-12)

    def test_swap_outside_divisor_range_is_neutral(self):
        # swapping two elements dividing nothing <= n1 leaves the objective alone
        spec = ObjectiveSpec(points=(StripPoint(0.75, 3.0),),
                             n_window=(10, 40), h_max=18)
        base = QOrdering.by_value(1000).prefix(18)
        values = [q.value for q in base]
        i, j = values.index(41), values.index(43)  # primes > n1 = 40
        swapped = list(base)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert objective_gap(base, spec) == objective_gap(swapped, spec)

    def test_h_max_exceeding_prefix_rejected(self):
        elems = QOrdering.by_value(100).prefix(4)
        with pytest.raises(ValueError):
            objective_gap(elems, small_spec(h_max=10))


class TestAnneal:
    def test_single_iteration(self):
        cfg = small_config(iters=1)
        result = anneal(cfg)
        assert len(result.trace) == 1

    def test_trace_determinism(self):
        a = anneal(small_config())
        b = anneal(small_config())
        assert a.trace == b.trace
        assert a.best.permutation == b.best.permutation

    @pytest.mark.parametrize("config, golden", [
        (small_config(), GOLDEN_RANDOM_SWAP),
        (adjacent_config(), GOLDEN_ADJACENT_SWAP),
    ], ids=["random-swap", "adjacent-swap"])
    def test_golden_trace(self, config, golden):
        result = anneal(config)
        assert [e.objective for e in result.trace] == golden[0]
        assert result.best.permutation == golden[1]

    def test_seed_changes_trace(self):
        a = anneal(small_config(seed=1))
        b = anneal(small_config(seed=2))
        assert a.trace != b.trace

    def test_trace_objectives_recompute_exactly(self, monkeypatch):
        candidates = []
        core = search.objective_gap

        def recording(values, spec, *, signs):  # anneal passes arrays only
            candidates.append((values.tolist(), signs.tolist()))
            return core(values, spec, signs=signs)

        monkeypatch.setattr(search, "objective_gap", recording)
        cfg = small_config(iters=15)
        result = anneal(cfg)
        assert len(candidates) == cfg.iterations + 1  # the start, then each proposal
        views = {q.value: q for q in
                 QOrdering.by_value(cfg.bound_hint).prefix(cfg.prefix_length)}
        for entry, (values, signs) in zip(result.trace, candidates[1:]):
            elements = [views[v] for v in values]
            assert [q.sign for q in elements] == signs
            assert entry.objective == objective_gap(elements, cfg.objective)

    def test_best_never_worse_than_identity(self):
        cfg = small_config(iters=40)
        identity = QOrdering.by_value(cfg.bound_hint).prefix(cfg.prefix_length)
        identity_obj = objective_gap(identity, cfg.objective)
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
        doc = json.loads(result.best_json())
        assert len(doc["permutation"]) == 16
        assert doc["permutation"] == list(result.best.permutation)
        assert doc["rng"] == "splitmix64-v1"


def test_candidate_type():
    cand = OrderingCandidate(permutation=(3, 5, 7), objective=0.5)
    assert cand.objective == 0.5
    assert cand.permutation == (3, 5, 7)


def test_anneal_builds_no_element_views(monkeypatch):
    built = []
    check = OddSquarefree.__post_init__
    monkeypatch.setattr(OddSquarefree, "__post_init__",
                        lambda q: (built.append(q.value), check(q)))
    anneal(small_config())
    assert built == []
    QOrdering.by_value(100).prefix(2)  # the counter does see element views
    assert built == [3, 5]
