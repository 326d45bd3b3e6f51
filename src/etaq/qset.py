"""Odd squarefree products of primes, orderings on them, and the signed
divisor-indicator combinatorics built on top.

The central set is Q = {products of distinct odd primes} = {3, 5, 7, 11, 13,
15, ...} with sgn q = (-1)^(number of prime factors).  The powers of two
Gamma = {1, 2, 4, 8, ...} are exactly the integers divisible by no element
of Q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._rng import ALGORITHM_ID, SplitMix64

# Largest Q bound accepted.  The sieve behind q_arrays peaks near 5 bytes per
# unit of bound: 2 for the int32 cofactors and 1 for the factor counts and
# squarefree flags (both over the odd numbers only), then about 3.2 for the
# int64 values of Q (0.405 elements per unit).  That is about 0.5 GB at the cap.
MAX_ENUM_BOUND = 10**8


class OddSquarefree(NamedTuple):
    """An element of Q as an element view: its value and its sign."""

    value: int
    sign: int


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending (empty for limit < 2)."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit < 2:
        return []
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for n in range(2, math.isqrt(limit) + 1):
        if is_prime[n]:
            is_prime[n * n::n] = False
    return np.flatnonzero(is_prime).tolist()


def odd_factor_counts(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Over the odd k = 1, 3, 5, ... <= bound, with k at index (k - 1) // 2:
    the number of distinct prime factors of k (int8), and whether k is
    squarefree.

    Only primes p <= sqrt(bound) are sieved.  Dividing every power of them
    out of k leaves 1 or a single prime above sqrt(bound), which adds one
    more factor.
    """
    if bound < 0:
        raise ValueError(f"the Q bound {bound} must be >= 0")
    if bound > MAX_ENUM_BOUND:
        raise ValueError(f"the Q bound {bound} exceeds the cap {MAX_ENUM_BOUND} "
                         "(the sieve needs about 5 bytes per unit of bound)")
    n = (bound + 1) // 2
    rest = np.arange(1, 2 * n, 2, dtype=np.int32)
    counts = np.zeros(n, dtype=np.int8)
    squarefree = np.ones(n, dtype=bool)
    # an odd multiple m*p^j of p^j sits at index (p^j - 1)/2 + p^j (m - 1)/2
    for p in sieve_primes(math.isqrt(bound))[1:]:
        counts[(p - 1) // 2::p] += 1
        squarefree[(p * p - 1) // 2::p * p] = False
        power = p
        while power <= bound:
            rest[(power - 1) // 2::power] //= p
            power *= p
    counts += rest > 1
    return counts, squarefree


@lru_cache(maxsize=4)
def q_arrays(bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q up to `bound` as read-only arrays (values, signs, counts), ascending
    by value: for odd k >= 3, k is in Q exactly when the Moebius function
    mu(k) is nonzero, and then sgn k = mu(k) = (-1)^(number of factors)."""
    counts, squarefree = odd_factor_counts(bound)
    squarefree[:1] = False  # k = 1 is the empty product, not in Q
    values = np.flatnonzero(squarefree)
    values *= 2
    values += 1
    counts = counts[squarefree]
    signs = (1 - 2 * (counts & 1)).astype(np.int8)
    for a in (values, signs, counts):
        a.setflags(write=False)
    return values, signs, counts


def odd_prime_factors(k: int) -> list[int]:
    """Distinct odd prime divisors of k, ascending, by trial division."""
    if k < 1:
        raise ValueError("k must be >= 1")
    factors = []
    while k % 2 == 0:
        k //= 2
    p = 3
    while p * p <= k:
        if k % p == 0:
            factors.append(p)
            while k % p == 0:
                k //= p
        p += 2
    if k > 1:
        factors.append(k)
    return factors


def odd_squarefree_divisors(k: int) -> list[int]:
    """Elements of Q dividing k: the products of the nonempty subsets of k's
    distinct odd prime divisors."""
    primes = odd_prime_factors(k)
    return [math.prod(combo) for r in range(1, len(primes) + 1)
            for combo in itertools.combinations(primes, r)]


def is_gamma(k: int) -> bool:
    """True iff k is a power of two (1 included)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return k & (k - 1) == 0


def f_closed(k: int) -> int:
    """Signed count of elements of Q dividing k: 0 on powers of two, -1
    otherwise (inclusion-exclusion over odd prime divisors)."""
    return 0 if is_gamma(k) else -1


def f_bruteforce(k: int) -> int:
    """Independent oracle for f_closed: enumerate every nonempty subset of
    the distinct odd prime divisors of k and sum (-1)^(subset size)."""
    primes = odd_prime_factors(k)
    total = 0
    for r in range(1, len(primes) + 1):
        for _ in itertools.combinations(primes, r):
            total += (-1) ** r
    return total


@dataclass(frozen=True)
class QOrdering:
    """A deterministic enumeration order on Q.

    Strategies:
      by-value            ascending value (canonical default)
      by-factor-count     ascending (number of factors, value)
      seeded-shuffle      Fisher-Yates (splitmix64) permutation of the first
                          prefix_length by-value elements; by-value beyond

    An ordering is a permutation of indices into `q_arrays(bound_hint)`;
    `arrays(h)` gives its first h values and signs, and `sequence()` the
    element views of all of them.
    """

    strategy: str = "by-value"
    seed: int = 0
    prefix_length: int = 0
    bound_hint: int = 10_000

    def __post_init__(self):
        if self.prefix_length < 0:
            raise ValueError(f"shuffle prefix {self.prefix_length} is negative")

    @staticmethod
    def by_value(bound_hint: int = 10_000) -> "QOrdering":
        return QOrdering(strategy="by-value", bound_hint=bound_hint)

    @staticmethod
    def by_factor_count(bound_hint: int = 10_000) -> "QOrdering":
        return QOrdering(strategy="by-factor-count", bound_hint=bound_hint)

    @staticmethod
    def seeded_shuffle(seed: int, prefix_length: int, bound_hint: int = 10_000) -> "QOrdering":
        return QOrdering(strategy="seeded-shuffle", seed=seed,
                         prefix_length=prefix_length, bound_hint=bound_hint)

    def descriptor(self) -> str:
        """Stable identifier recorded in reports and manifests."""
        if self.strategy == "seeded-shuffle":
            return (f"seeded-shuffle(seed={self.seed},prefix={self.prefix_length},"
                    f"rng={ALGORITHM_ID},bound={self.bound_hint})")
        return f"{self.strategy}(bound={self.bound_hint})"

    def _order(self, values: np.ndarray, counts: np.ndarray) -> np.ndarray | None:
        """Indices into q_arrays(bound_hint) in this order; None for by-value."""
        if self.strategy == "by-value":
            return None
        if self.strategy == "by-factor-count":
            return np.lexsort((values, counts))
        if self.strategy == "seeded-shuffle":
            if self.prefix_length > len(values):
                raise ValueError(
                    f"shuffle prefix {self.prefix_length} exceeds the {len(values)} "
                    f"elements of Q: raise the Q bound above {self.bound_hint}")
            head = list(range(self.prefix_length))
            SplitMix64(self.seed).shuffle(head)
            order = np.arange(len(values))
            order[:self.prefix_length] = head
            return order
        raise ValueError(f"unknown strategy {self.strategy!r}")

    def arrays(self, h: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(values, signs) of the first h elements in this order, all of them
        when h is None; raises if the bound cannot produce h."""
        values, signs, counts = q_arrays(self.bound_hint)
        order = self._order(values, counts)
        if order is not None:
            values, signs = values[order[:h]], signs[order[:h]]
        if h is not None and h > len(values):
            raise ValueError(
                f"ordering {self.descriptor()} yields only {len(values)} elements, "
                f"{h} requested: raise the Q bound above {self.bound_hint}")
        return values[:h], signs[:h]

    def sequence(self) -> list[OddSquarefree]:
        """All of `arrays()`, in order, as (value, sign) element views."""
        values, signs = self.arrays()
        return list(map(OddSquarefree, values.tolist(), signs.tolist()))


def f_kh(k: int, ordering: QOrdering, h: int) -> int:
    """f(k,h) = sum of sgn(q_i) over the ordering's first h elements q_i
    that divide k, computed by the defining sum."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if h < 0:
        raise ValueError("h must be >= 0")
    values, signs = ordering.arrays(h)
    total = 0
    for value, sign in zip(values.tolist(), signs.tolist()):
        if k % value == 0:
            total += sign
    return total


def f_kh_fast(k: int, ordering: QOrdering, h: int) -> int:
    """Same value as f_kh by a second path: each element of Q dividing k
    (from k's factorisation) is looked up among the first h elements."""
    values, signs = ordering.arrays(h)
    sign_of = dict(zip(values.tolist(), signs.tolist()))
    return sum(sign_of.get(q, 0) for q in odd_squarefree_divisors(k))
