"""Odd squarefree products of primes, orderings on them, and the signed
divisor-indicator combinatorics built on top.

The central set is Q = {products of distinct odd primes} = {3, 5, 7, 11, 13,
15, ...} with sgn q = (-1)^(number of prime factors).  The powers of two
Gamma = {1, 2, 4, 8, ...} are exactly the integers divisible by no element
of Q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ._rng import ALGORITHM_ID, SplitMix64

MAX_ENUM_BOUND = 1 << 40


class EnumerationShortfallError(ValueError):
    """An ordering was asked for more elements than its bound can produce."""


@dataclass(frozen=True)
class OddSquarefree:
    """An element of Q: a product of distinct odd primes, with its sign."""

    value: int
    factors: tuple[int, ...]
    sign: int

    def __post_init__(self):
        prod = 1
        for p in self.factors:
            prod *= p
        if prod != self.value or self.value < 3:
            raise ValueError(f"value {self.value} is not the product of {self.factors}")
        if 2 in self.factors or len(set(self.factors)) != len(self.factors):
            raise ValueError(f"factors {self.factors} must be distinct odd primes")
        if self.sign != (-1) ** len(self.factors):
            raise ValueError(f"sign {self.sign} inconsistent with {len(self.factors)} factors")

    @classmethod
    def from_factors(cls, factors) -> "OddSquarefree":
        factors = tuple(sorted(factors))
        prod = 1
        for p in factors:
            prod *= p
        return cls(value=prod, factors=factors, sign=(-1) ** len(factors))


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending (empty for limit < 2)."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit < 2:
        return []
    composite = bytearray(limit + 1)
    primes = []
    for n in range(2, limit + 1):
        if not composite[n]:
            primes.append(n)
            for m in range(n * n, limit + 1, n):
                composite[m] = 1
    return primes


def smallest_factor_sieve(limit: int) -> list[int]:
    """spf[n] = smallest prime factor of n (spf[0]=0, spf[1]=1)."""
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


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


def odd_squarefree_divisors(k: int) -> list[OddSquarefree]:
    """Elements of Q dividing k (i.e. products of nonempty subsets of k's
    distinct odd prime divisors)."""
    primes = odd_prime_factors(k)
    out = []
    for r in range(1, len(primes) + 1):
        for combo in itertools.combinations(primes, r):
            out.append(OddSquarefree.from_factors(combo))
    return out


def enumerate_q(bound: int) -> list[OddSquarefree]:
    """All elements of Q with value <= bound, ascending by value."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if bound > MAX_ENUM_BOUND:
        raise ValueError(f"bound capped at {MAX_ENUM_BOUND}")
    if bound < 3:
        return []
    odd_primes = [p for p in sieve_primes(bound) if p != 2]
    out: list[OddSquarefree] = []

    def extend(start_idx: int, value: int, chosen: tuple[int, ...]):
        for i in range(start_idx, len(odd_primes)):
            p = odd_primes[i]
            v = value * p
            if v > bound:
                break
            out.append(OddSquarefree(v, chosen + (p,), (-1) ** (len(chosen) + 1)))
            extend(i + 1, v, chosen + (p,))

    extend(0, 1, ())
    out.sort(key=lambda q: q.value)
    return out


def sgn_q(q: OddSquarefree) -> int:
    return (-1) ** len(q.factors)


def delta(k: int, q: OddSquarefree) -> int:
    """1 if q.value divides k, else 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1 if k % q.value == 0 else 0


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
      explicit            caller-supplied sequence
    """

    strategy: str = "by-value"
    seed: int = 0
    prefix_length: int = 0
    explicit: tuple[OddSquarefree, ...] = ()
    bound_hint: int = 10_000
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

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

    @staticmethod
    def from_explicit(elements) -> "QOrdering":
        elements = tuple(elements)
        return QOrdering(strategy="explicit", explicit=elements,
                         bound_hint=max((q.value for q in elements), default=0))

    def descriptor(self) -> str:
        """Stable identifier recorded in reports and manifests."""
        if self.strategy == "seeded-shuffle":
            return (f"seeded-shuffle(seed={self.seed},prefix={self.prefix_length},"
                    f"rng={ALGORITHM_ID},bound={self.bound_hint})")
        if self.strategy == "explicit":
            return f"explicit(n={len(self.explicit)})"
        return f"{self.strategy}(bound={self.bound_hint})"

    def sequence(self) -> list[OddSquarefree]:
        """The full materialized sequence for this ordering's bound."""
        if "seq" in self._cache:
            return self._cache["seq"]
        if self.strategy == "explicit":
            seq = list(self.explicit)
        else:
            seq = enumerate_q(self.bound_hint)
            if self.strategy == "by-factor-count":
                seq.sort(key=lambda q: (len(q.factors), q.value))
            elif self.strategy == "seeded-shuffle":
                if not 0 <= self.prefix_length <= len(seq):
                    raise EnumerationShortfallError(
                        f"shuffle prefix {self.prefix_length} exceeds the "
                        f"{len(seq)} elements enumerable below {self.bound_hint}")
                head = seq[:self.prefix_length]
                SplitMix64(self.seed).shuffle(head)
                seq = head + seq[self.prefix_length:]
            elif self.strategy != "by-value":
                raise ValueError(f"unknown strategy {self.strategy!r}")
        self._cache["seq"] = seq
        return seq

    def prefix(self, h: int) -> list[OddSquarefree]:
        """First h elements; raises if the bound cannot produce that many."""
        seq = self.sequence()
        if h > len(seq):
            raise EnumerationShortfallError(
                f"ordering {self.descriptor()} yields only {len(seq)} elements, "
                f"{h} requested (raise bound_hint)")
        return seq[:h]


def f_kh(k: int, ordering: QOrdering, h: int) -> int:
    """f(k,h) = sum over the ordering's first h elements of sgn(q_i)*delta(k,i),
    computed by the defining sum."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if h < 0:
        raise ValueError("h must be >= 0")
    total = 0
    for q in ordering.prefix(h):
        if k % q.value == 0:
            total += q.sign
    return total


def f_kh_fast(k: int, ordering: QOrdering, h: int) -> int:
    """Same value as f_kh by a second path: each element of Q dividing k
    (from k's factorisation) is looked up among the first h elements."""
    signs = {q.value: q.sign for q in ordering.prefix(h)}
    return sum(signs.get(q.value, 0) for q in odd_squarefree_divisors(k))
