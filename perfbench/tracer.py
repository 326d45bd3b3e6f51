"""In-memory span tracer for one etaq job process.

`Tracer.install()` replaces the traced etaq functions with wrappers at every
module binding that holds them (for example `etaq.series.eta_accel` and the
copies imported into `etaq.zeros` and `etaq.cli`), so callers reach the
wrapper whichever name they use.  Each call records a span (name, start, end,
parent span) in flat arrays; `save()` writes them out and `summary()` reduces
them to per-name call counts, inclusive and self seconds, parent/child call
counts and the layer counters below.

A function the package no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _q_elements(fn, args, kwargs, result):
    return {"qset.q_elements": len(result)}


def _divisor_hits(fn, args, kwargs, result):
    return {"qset.divisor_hits": len(result)}


def _eta_terms(fn, args, kwargs, result):
    return {"series.eta_accel.terms": result.terms_used}


def _term_bytes(fn, args, kwargs, result):
    return {"series.term_arrays.bytes": 16 * int(_bound(fn, args, kwargs)["n"])}


def _surface_cells(fn, args, kwargs, result):
    return {"limits.cells": int(result.C.size),
            "limits.k_steps": max(result.n_axis, default=0)}


def _b_terms(fn, args, kwargs, result):
    return {"limits.limit_B.terms": int(result.budget)}


def _scan_points(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"zeros.scan_points": int(math.floor((a["y_max"] - a["y_min"]) / a["step"])) + 1}


def _accepts(fn, args, kwargs, result):
    return {"search.accepted": sum(1 for e in result.trace if e.accepted),
            "search.proposed": len(result.trace)}


# (span name, module, attribute path, counter function or None)
TARGETS = (
    ("cli", "etaq.cli", "main", None),
    ("qset.enumerate_q", "etaq.qset", "enumerate_q", _q_elements),
    ("qset.sequence", "etaq.qset", "QOrdering.sequence", None),
    ("qset.dividing_positions", "etaq.qset", "dividing_positions", _divisor_hits),
    ("series.eta_accel", "etaq.series", "eta_accel", _eta_terms),
    ("series.term_arrays", "etaq.series", "term_arrays", _term_bytes),
    ("series.term_ab", "etaq.series", "term_ab", None),
    ("limits.c_s_surface", "etaq.limits", "c_s_surface", _surface_cells),
    ("limits.limit_A_series", "etaq.limits", "limit_A_series", None),
    ("limits.limit_B", "etaq.limits", "limit_B", _b_terms),
    ("limits.commutativity_gap", "etaq.limits", "commutativity_gap", None),
    ("zeros.scan_zeros", "etaq.zeros", "scan_zeros", _scan_points),
    ("zeros.refine_zero", "etaq.zeros", "refine_zero", None),
    ("search.anneal", "etaq.search", "anneal", _accepts),
    ("search.objective_gap", "etaq.search", "objective_gap", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                self.counts.update(count(fn, args, kwargs, result))
            return result

        return traced

    def install(self, package: str = "etaq") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, module_name, path, count in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, count)
            if outer:  # a method: the class attribute is the only binding
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _arrays(self):
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.span_parent, dtype=np.int32),
                np.frombuffer(self.span_start, dtype=np.float64),
                np.frombuffer(self.span_end, dtype=np.float64))

    def save(self, path) -> None:
        name, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds `s`, self seconds `self_s`
        and `raised`; `children[parent][child]` call counts; `counts`."""
        name, parent, start, end = self._arrays()
        k = len(self.names)
        dur = end - start
        nested = parent >= 0
        child_s = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child_s, minlength=k)
        pair = np.bincount(name[parent[nested]] * k + name[nested], minlength=k * k)
        spans = {n: {"calls": int(calls[i]), "s": float(incl[i]),
                     "self_s": float(self_s[i]), "raised": self.raised[n]}
                 for i, n in enumerate(self.names)}
        children = {}
        for flat in np.flatnonzero(pair):
            p, c = divmod(int(flat), k)
            children.setdefault(self.names[p], {})[self.names[c]] = int(pair[flat])
        return {"spans": spans, "children": children, "counts": dict(self.counts)}
