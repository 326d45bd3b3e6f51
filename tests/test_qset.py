import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaq.qset import (MAX_ENUM_BOUND, OddSquarefree,
                       QOrdering, f_bruteforce, f_closed, f_kh, f_kh_fast,
                       is_gamma, odd_factor_counts, odd_prime_factors,
                       odd_squarefree_divisors, q_arrays, sieve_primes)


def by_value_lists(bound):
    """All elements of Q up to bound, ascending, as lists of values and signs."""
    return [a.tolist() for a in QOrdering.by_value(bound).arrays()]


def trial_division_primes(limit):
    return [n for n in range(2, limit + 1)
            if all(n % d for d in range(2, int(n**0.5) + 1))]


class TestSieve:
    def test_no_primes_below_two(self):
        assert sieve_primes(1) == []
        assert sieve_primes(0) == []

    def test_small(self):
        assert sieve_primes(10) == [2, 3, 5, 7]
        assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_against_trial_division(self):
        for limit in (2, 3, 97, 541, 1000):
            assert sieve_primes(limit) == trial_division_primes(limit)


def squarefree_odd_oracle(bound):
    """Independent: odd n >= 3 is in Q iff no p^2 divides it."""
    out = []
    for n in range(3, bound + 1, 2):
        if all(n % (d * d) for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def mobius_trial_division(k):
    """mu(k) by trial division: 0 when a square divides k, else
    (-1)^(number of prime factors)."""
    mu = 1
    d = 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if k > 1 else mu


def recursive_q(bound):
    """Reference enumerator: every product of distinct odd primes <= bound,
    built by recursion over ascending primes, as (value, factors, sign)."""
    odd_primes = sieve_primes(bound)[1:]
    out = []

    def extend(start, value, chosen):
        for i in range(start, len(odd_primes)):
            p = odd_primes[i]
            if value * p > bound:
                break
            out.append((value * p, chosen + (p,), (-1) ** (len(chosen) + 1)))
            extend(i + 1, value * p, chosen + (p,))

    extend(0, 1, ())
    return sorted(out)


class TestMoebiusSieve:
    def test_arrays_match_oracles(self):
        values, signs, counts = q_arrays(10_000)
        assert values.tolist() == squarefree_odd_oracle(10_000)
        assert signs.tolist() == [mobius_trial_division(v) for v in values.tolist()]
        assert counts.tolist() == [len(odd_prime_factors(v)) for v in values.tolist()]
        assert not any(a.flags.writeable for a in (values, signs, counts))

    def test_factor_counts_over_all_odd_numbers(self):
        counts, squarefree = odd_factor_counts(10_001)
        ks = range(1, 10_002, 2)
        assert squarefree.tolist() == [mobius_trial_division(k) != 0 for k in ks]
        assert counts.tolist() == [len(odd_prime_factors(k)) for k in ks]

    def test_matches_recursive_enumerator(self):
        got = list(zip(*(a.tolist() for a in q_arrays(100_000))))
        assert got == [(value, sign, len(factors))
                       for value, factors, sign in recursive_q(100_000)]

    @pytest.mark.parametrize("make", [q_arrays, lambda b: QOrdering.by_value(b).sequence(),
                                      lambda b: QOrdering.by_value(b).arrays()])
    def test_bound_past_cap_rejected_before_allocating(self, make):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                make(MAX_ENUM_BOUND + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestEnumerateQ:
    def test_empty_below_three(self):
        assert by_value_lists(2) == [[], []]
        assert by_value_lists(0) == [[], []]

    def test_up_to_fifteen(self):
        values, signs, counts = (a.tolist() for a in q_arrays(15))
        assert values == [3, 5, 7, 11, 13, 15]  # 3^2 is not squarefree
        assert signs[-1] == +1 and counts[-1] == 2

    def test_three_factor_element(self):
        values, signs, counts = (a.tolist() for a in q_arrays(105))
        assert (values[-1], signs[-1], counts[-1]) == (105, -1, 3)

    def test_matches_squarefree_count_oracle(self):
        assert by_value_lists(10_000)[0] == squarefree_odd_oracle(10_000)

    def test_elements_valid(self):
        for value in by_value_lists(500)[0]:
            assert value % 2 == 1 and value >= 3
            assert math.prod(odd_prime_factors(value)) == value


def test_sgn_examples():
    sign_of = dict(zip(*by_value_lists(105)))
    assert sign_of[3] == sign_of[5] == sign_of[7] == -1
    assert sign_of[15] == +1
    assert sign_of[105] == -1


class TestFkh:
    def test_power_of_two_always_zero(self):
        assert f_kh(8, QOrdering.by_value(1000), 100) == 0

    def test_partial_divisors(self):
        ordering = QOrdering.by_value(100)
        assert f_kh(15, ordering, 2) == -2   # q1=3, q2=5, both divide 15
        assert f_kh(15, ordering, 6) == -1   # ... then +1 from q6=15

    def test_shortfall_signals_configuration_error(self):
        with pytest.raises(ValueError, match="yields only 3 elements, 100 requested"):
            f_kh(15, QOrdering.by_value(10), 100)

    def test_stabilizes_to_f_closed(self):
        # once h passes the last dividing index, f(k,h) is frozen at f(k)
        ordering = QOrdering.by_value(2000)
        values = ordering.arrays()[0].tolist()
        for k in (12, 15, 45, 105, 64, 1):
            last = max((i + 1 for i, q in enumerate(values) if k % q == 0), default=0)
            for h in (last, last + 7, last + 100):
                assert f_kh(k, ordering, h) == f_closed(k)

    def test_fast_path_matches_definition(self):
        ordering = QOrdering.by_value(4000)
        for k in range(1, 150):
            for h in (1, 3, 17, 120, 500):
                assert f_kh(k, ordering, h) == f_kh_fast(k, ordering, h)


def test_f_closed_examples():
    assert f_closed(8) == 0
    assert f_closed(1) == 0    # 2^0 counts
    assert f_closed(12) == -1


def test_f_bruteforce_examples():
    assert f_bruteforce(1) == 0
    assert f_bruteforce(15) == -1   # {3},{5},{3,5} -> -1-1+1
    assert f_bruteforce(2**20) == 0


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_f_closed_equals_bruteforce(k):
    assert f_closed(k) == f_bruteforce(k)


def test_is_gamma():
    assert is_gamma(1)
    assert is_gamma(1024)
    assert not is_gamma(6)
    assert [k for k in range(1, 33) if is_gamma(k)] == [1, 2, 4, 8, 16, 32]


def test_odd_squarefree_divisors():
    assert odd_squarefree_divisors(45) == [3, 5, 15]
    assert odd_squarefree_divisors(2 * 3 * 5 * 7) == [3, 5, 7, 15, 21, 35, 105]
    assert odd_squarefree_divisors(64) == []


class TestOrderings:
    def test_by_value_ascending(self):
        values = QOrdering.by_value(1000).arrays()[0].tolist()
        assert values == sorted(values)

    def test_by_factor_count(self):
        values, _, counts = q_arrays(200)
        count_of = dict(zip(values.tolist(), counts.tolist()))
        keys = [(count_of[v], v) for v in QOrdering.by_factor_count(200).arrays()[0].tolist()]
        assert keys == sorted(keys)

    def test_seeded_shuffle_reproducible(self):
        a = QOrdering.seeded_shuffle(7, 64, 1000).arrays()
        b = QOrdering.seeded_shuffle(7, 64, 1000).arrays()
        assert [x.tolist() for x in a] == [x.tolist() for x in b]

    def test_seeded_shuffle_permutes_only_prefix(self):
        base = QOrdering.by_value(1000).arrays()[0].tolist()
        shuffled = QOrdering.seeded_shuffle(42, 20, 1000).arrays()[0].tolist()
        assert sorted(shuffled[:20]) == base[:20]
        assert shuffled[20:] == base[20:]
        assert shuffled[:20] != base[:20]  # seed 42 actually moves something

    def test_by_factor_count_golden(self):
        # recorded from the recursive enumerator the Moebius sieve replaced:
        # the last primes below 1000, then the products of two primes
        values, signs = QOrdering.by_factor_count(1000).arrays()
        assert len(values) == 403
        assert values[160:200].tolist() == [
            953, 967, 971, 977, 983, 991, 997, 15, 21, 33, 35, 39, 51, 55, 57,
            65, 69, 77, 85, 87, 91, 93, 95, 111, 115, 119, 123, 129, 133, 141,
            143, 145, 155, 159, 161, 177, 183, 185, 187, 201]
        assert signs[160:200].tolist() == [-1] * 7 + [+1] * 33

    def test_seeded_shuffle_golden(self):
        # recorded from the shuffle of element lists the index shuffle replaced
        ordering = QOrdering.seeded_shuffle(7, 64, 1000)
        assert ordering.arrays(70)[0].tolist() == [
            35, 107, 57, 149, 111, 33, 19, 139, 13, 23, 159, 129, 37, 67, 151,
            89, 41, 39, 47, 7, 83, 29, 95, 5, 91, 109, 73, 71, 133, 55, 97, 143,
            15, 17, 145, 69, 113, 157, 123, 3, 137, 43, 131, 11, 127, 141, 85,
            79, 115, 101, 65, 105, 51, 93, 155, 103, 119, 21, 53, 87, 31, 77,
            61, 59, 161, 163, 165, 167, 173, 177]

    def test_different_seeds_differ(self):
        a = QOrdering.seeded_shuffle(1, 50, 1000).arrays()[0]
        b = QOrdering.seeded_shuffle(2, 50, 1000).arrays()[0]
        assert a.tolist() != b.tolist()

    @pytest.mark.parametrize("ordering", [
        QOrdering.by_value(1000), QOrdering.by_factor_count(1000),
        QOrdering.seeded_shuffle(7, 64, 1000)], ids=lambda o: o.strategy)
    def test_sequence_is_the_arrays_zipped(self, ordering):
        seq = ordering.sequence()
        assert seq == list(zip(*(a.tolist() for a in ordering.arrays())))
        assert all(type(q) is OddSquarefree for q in seq)
        assert [(q.value, q.sign) for q in seq[:3]] == seq[:3]

    def test_enumeration_bound_cap(self):
        with pytest.raises(ValueError):
            QOrdering.by_value(2**41).sequence()
