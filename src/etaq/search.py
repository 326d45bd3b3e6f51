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
from dataclasses import dataclass, field

import numpy as np

from . import limits
from ._rng import ALGORITHM_ID, SplitMix64
from .qset import QOrdering
from .series import StripPoint, check_tol


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
        check_tol(self.eta_tol, "etaTol")


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
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
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


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    objective: float
    accepted: bool


def objective_gap(elements, spec: ObjectiveSpec, *, signs=None) -> float:
    """Sum over spec points of max_h max_n (|Re d| + |Im d|) with
    d = C(n,h) + iS(n,h) - A(h), that is |C - A_cos| + |S - A_sin|, with n
    in the window and the candidate prefix as the ordering.

    The prefix is `elements`, a sequence of element views, or, when `signs`
    is given, the arrays `elements` (values) and `signs` that
    `limits.c_s_running` takes; `anneal` passes arrays.  C + iS comes from
    `limits.c_s_running` over the window's rows, the complex A from
    `limits.limit_A_series`; only one running vector is held, never a
    (window x h) matrix.  Nothing is cached across calls.
    """
    if signs is None:
        elements = tuple(elements)
        signs = np.array([q.sign for q in elements], dtype=np.int8)
        elements = np.array([q.value for q in elements], dtype=np.int64)
    if spec.h_max > len(elements):
        raise ValueError(f"hMax {spec.h_max} exceeds prefix length {len(elements)}")
    if spec.h_max == 0:
        return 0.0
    values, signs = elements[:spec.h_max], signs[:spec.h_max]
    n0, n1 = spec.n_window
    rows = np.arange(n0, n1 + 1)
    total = 0.0
    for p in spec.points:
        a = limits.limit_A_series(p, values, signs, spec.eta_tol)
        worst = 0.0
        for a_h, cs in zip(a.tolist(), limits.c_s_running(p, values, signs, rows)):
            d = cs - a_h
            worst = max(worst, float((np.abs(d.real) + np.abs(d.imag)).max()))
        total += worst
    return total


@dataclass(frozen=True)
class SearchResult:
    best: OrderingCandidate
    trace: tuple[TraceEntry, ...]
    config: SearchConfig

    def trace_csv(self, fh) -> None:
        fh.write("iteration,objective,accepted\n")
        for e in self.trace:
            fh.write(f"{e.iteration},{e.objective:.17g},{int(e.accepted)}\n")

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
    the standard exponential criterion.  Fully deterministic given the seed.
    """
    values, signs = QOrdering.by_value(config.bound_hint).arrays(config.prefix_length)
    rng = SplitMix64(config.seed)
    current = np.arange(config.prefix_length)
    current_obj = objective_gap(values, config.objective, signs=signs)
    best = OrderingCandidate(tuple(values.tolist()), current_obj)
    temperature = config.initial_temperature
    trace = []
    for it in range(1, config.iterations + 1):
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
                                 signs=signs[candidate])
        delta = cand_obj - current_obj
        accepted = delta <= 0.0 or (temperature > 0.0 and
                                    rng.uniform() < math.exp(-delta / temperature))
        if accepted:
            current, current_obj = candidate, cand_obj
            if cand_obj < best.objective:
                best = OrderingCandidate(tuple(values[candidate].tolist()), cand_obj)
        trace.append(TraceEntry(iteration=it, objective=cand_obj, accepted=accepted))
        temperature *= config.decay
    return SearchResult(best=best, trace=tuple(trace), config=config)
