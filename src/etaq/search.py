"""Seeded annealing over orderings of a finite prefix of the odd-squarefree
set, minimizing a uniform-convergence defect of the C/S surfaces.

The objective measures how far the finite-n surface strays from the inner
limits A(h) across a window of n and all h up to h_max: the worse the
uniformity in h, the larger the defect.  A low objective is a diagnostic,
not a decision procedure for whether any ordering makes the two iterated
limits commute.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _text, limits
from ._rng import ALGORITHM_ID, SplitMix64
from .qset import QOrdering
from .series import StripPoint, check_term_count, check_tol, eta_accel

MAX_ITERATIONS = 10**6  # the trace holds 9 bytes per iteration: 9 MB


@dataclass(frozen=True)
class ObjectiveSpec:
    points: tuple[StripPoint, ...]
    n_window: tuple[int, int]      # inclusive [n0, n1]
    h_max: int
    eta_tol: float = 1e-12

    def __post_init__(self):
        n0, n1 = self.n_window
        if not (1 <= n0 <= n1):
            raise ValueError("need 1 <= n0 <= n1")
        if self.h_max < 0:
            raise ValueError("hMax must be >= 0")
        check_term_count(n1)
        check_tol(self.eta_tol, "etaTol")

    def etas(self) -> list[complex]:
        """eta at each point; none when h_max is 0, as the objective is 0."""
        return [eta_accel(p, self.eta_tol).value for p in self.points] if self.h_max else []


@dataclass(frozen=True)
class SearchConfig:
    seed: int
    prefix_length: int
    iterations: int
    objective: ObjectiveSpec
    neighborhood: str = "random-swap"   # or "adjacent-swap"
    initial_temperature: float = 1.0
    decay: float = 0.95
    bound_hint: int = 10_000

    def __post_init__(self):
        if self.prefix_length < 2:
            raise ValueError("prefixLength must be >= 2")
        if self.objective.h_max > self.prefix_length:
            raise ValueError(f"hMax {self.objective.h_max} exceeds prefix length "
                             f"{self.prefix_length}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.iterations > MAX_ITERATIONS:
            raise ValueError(f"{self.iterations} iterations exceed the cap {MAX_ITERATIONS} "
                             "(9 bytes of trace per iteration)")
        if not (self.initial_temperature >= 0.0 and math.isfinite(self.initial_temperature)):
            raise ValueError("t0 (initialTemperature) must be finite and >= 0, "
                             f"got {self.initial_temperature}")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        if self.neighborhood not in ("adjacent-swap", "random-swap"):
            raise ValueError(f"unknown neighborhood {self.neighborhood!r}")


@dataclass(frozen=True)
class OrderingCandidate:
    permutation: tuple[int, ...]   # the prefix's values of Q, in order
    objective: float


class _Replayed(NamedTuple):
    prefix: np.ndarray    # an ordering's first h_max values
    worsts: list          # per point, the worst-so-far after each position
    objective: float


class ObjectiveCache:
    """The order-free part of `objective_gap` for one set of prefix values,
    built once, plus the accepted ordering's state to replay from.

    Per spec point it holds eta (from `ObjectiveSpec.etas`), each value's A
    term sgn(q) q^(-s), and each value's strided prefix sums P_q(m) for m in
    [n0 // q, n1 // q] (`limits.strided_partials`): 16 bytes x
    sum_q (n1 // q - n0 // q + 1) per point, on top of the term array while
    it is built.  It also holds
    the accepted ordering's first h_max values, each point's worst-so-far
    after each of those positions, and its objective.  `accept` makes the
    last evaluated ordering the accepted one.
    """

    def __init__(self, spec: ObjectiveSpec, values, signs, etas):
        n0, n1 = spec.n_window
        self.index = {q: i for i, q in enumerate(values.tolist())}
        self.ops = [np.add if s > 0 else np.subtract for s in signs.tolist()]
        # a row n of the window reads P_q(n // q) at offset n - q (n0 // q) of
        # the slice with each entry repeated q times
        self.offsets = [(q, n0 - q * (n0 // q)) for q in values.tolist()]
        self.width = n1 - n0 + 1
        self.points = []
        for p, eta in zip(spec.points, etas):
            slices = [partial[n0 // q:].copy() for partial, q in
                      zip(limits.strided_partials(p, values, n1), values.tolist())]
            self.points.append((eta, limits.odd_terms(p, values, signs), slices))
        self.accepted = self.evaluated = None

    def column(self, slices, i: int) -> np.ndarray:
        """P_q(n // q) over the window's rows n, for the value at index i."""
        q, offset = self.offsets[i]
        return slices[i].repeat(q)[offset:offset + self.width]

    def evaluate(self, prefix) -> float:
        """The objective of an ordering whose first h_max values are
        `prefix`, replayed from the first position where they differ from
        the accepted ordering's."""
        start = 0
        if self.accepted is not None:
            changed = np.flatnonzero(prefix != self.accepted.prefix)
            if not len(changed):
                self.evaluated = self.accepted
                return self.accepted.objective
            start = int(changed[0])
        idx = [self.index[q] for q in prefix.tolist()]
        objective = 0.0
        worsts = []
        for j, (eta, terms, slices) in enumerate(self.points):
            # limit_A_series' own expression, so A has its bits
            a = np.conj(np.cumsum(terms[idx]) * eta).tolist()
            so_far = self.accepted.worsts[j][:start] if start else []
            worst = so_far[-1] if so_far else 0.0
            total = np.zeros(self.width, dtype=complex)
            for h, i in enumerate(idx):
                self.ops[i](total, self.column(slices, i), out=total)
                if h >= start:
                    d = total - a[h]
                    worst = max(worst, float((np.abs(d.real) + np.abs(d.imag)).max()))
                    so_far.append(worst)
            worsts.append(so_far)
            objective += worst
        self.evaluated = _Replayed(prefix.copy(), worsts, objective)
        return objective

    def accept(self) -> None:
        """Replay later evaluations from the last evaluated ordering."""
        self.accepted = self.evaluated


def objective_gap(elements, spec: ObjectiveSpec, *, signs=None, cache=None) -> float:
    """Sum over spec points of max_h max_n (|Re d| + |Im d|) with
    d = C(n,h) + iS(n,h) - A(h), that is |C - A_cos| + |S - A_sin|, with n
    in the window and the candidate prefix as the ordering.

    The prefix is `elements`, a sequence of element views, or, when `signs`
    is given, the arrays `elements` (values) and `signs`; `anneal` passes
    arrays and its `ObjectiveCache` over the same values and signs.  C + iS
    is the running sum that `limits.c_s_running` forms, but
    `ObjectiveCache.evaluate` keeps its own loop: it reads each value's
    column from the cache's window slices of the strided prefix sums by
    `repeat`.  A is `limits.limit_A_series`, from the cache's eta and A
    terms; only one running vector is held, never a (window x h) matrix.  With a
    cache, the running sum and the reductions are replayed from the first
    of the h_max positions where the prefix differs from the cache's
    accepted ordering; without one, a one-shot cache replays from position 0.
    """
    if signs is None:  # (value, sign) element views
        elements, signs = np.array(list(elements), dtype=np.int64).reshape(-1, 2).T
    if spec.h_max > len(elements):
        raise ValueError(f"hMax {spec.h_max} exceeds prefix length {len(elements)}")
    if spec.h_max == 0:
        return 0.0
    values = elements[:spec.h_max]
    if cache is None:
        cache = ObjectiveCache(spec, values, signs[:spec.h_max], spec.etas())
    return cache.evaluate(values)


@dataclass(frozen=True)
class SearchResult:
    """The best ordering seen and the trace: one read-only record per
    iteration, of the proposal's `objective` (float64) and whether it was
    `accepted` (bool), packed in 9 bytes."""
    best: OrderingCandidate
    trace: np.recarray
    config: SearchConfig

    def trace_csv(self, fh) -> None:
        _text.write_columns(fh, "iteration,objective,accepted\n",
                            np.arange(1, len(self.trace) + 1), self.trace.objective,
                            self.trace.accepted)

    def best_json(self) -> str:
        return json.dumps({
            "permutation": list(self.best.permutation),
            "objective": self.best.objective,
            "seed": self.config.seed,
            "prefixLength": self.config.prefix_length,
            "iterations": self.config.iterations,
            "neighborhood": self.config.neighborhood,
            "initialTemperature": self.config.initial_temperature,
            "decay": self.config.decay,
            "rng": ALGORITHM_ID,
            "objectiveSpec": {
                "points": [{"x": p.x, "y": p.y} for p in self.config.objective.points],
                "nWindow": list(self.config.objective.n_window),
                "hMax": self.config.objective.h_max,
                "etaTol": self.config.objective.eta_tol,
            },
        }, indent=2)


def anneal(config: SearchConfig) -> SearchResult:
    """Simulated annealing from the ascending-value permutation.

    The state is a permutation of indices into the by-value prefix's arrays.
    Proposal: one swap per iteration (adjacent or random pair); acceptance by
    the standard exponential criterion.  Every evaluation goes through
    `objective_gap` with one `ObjectiveCache`, built for this call, which is
    told of each accepted state.  The trace, allocated once, records each
    proposal's objective and acceptance.  Fully deterministic given the seed.
    """
    etas = config.objective.etas()  # before the sieve: an unreachable eta_tol fails first
    values, signs = QOrdering.by_value(config.bound_hint).arrays(config.prefix_length)
    cache = ObjectiveCache(config.objective, values, signs, etas)
    rng = SplitMix64(config.seed)
    current = np.arange(config.prefix_length)
    current_obj = objective_gap(values, config.objective, signs=signs, cache=cache)
    cache.accept()
    best = OrderingCandidate(tuple(values.tolist()), current_obj)
    temperature = config.initial_temperature
    trace = np.recarray(config.iterations, [("objective", float), ("accepted", bool)])
    for it in range(config.iterations):
        if config.neighborhood == "adjacent-swap":
            i = rng.randrange(config.prefix_length - 1)
            j = i + 1
        else:
            i = rng.randrange(config.prefix_length)
            j = rng.randrange(config.prefix_length - 1)
            if j >= i:
                j += 1
        candidate = current.copy()
        candidate[[i, j]] = candidate[[j, i]]
        cand_obj = objective_gap(values[candidate], config.objective,
                                 signs=signs[candidate], cache=cache)
        delta = cand_obj - current_obj
        accepted = delta <= 0.0 or (temperature > 0.0 and
                                    rng.uniform() < math.exp(-delta / temperature))
        if accepted:
            cache.accept()
            current, current_obj = candidate, cand_obj
            if cand_obj < best.objective:
                best = OrderingCandidate(tuple(values[candidate].tolist()), cand_obj)
        trace[it] = cand_obj, accepted
        temperature *= config.decay
    trace.flags.writeable = False
    return SearchResult(best=best, trace=trace, config=config)
