"""etaq: numerical diagnostics for the alternating zeta series over orderings
of the odd-squarefree product set."""

__version__ = "0.1.0"

from .qset import (OddSquarefree, QOrdering, f_bruteforce, f_closed, f_kh,
                   is_gamma, sieve_primes)
from .series import (SeriesResult, StripPoint, eta_accel, eta_averaged,
                     gamma_partial, geom_closed, shifted_sums, subseries_q,
                     term_ab, zeta_from_eta)
from .limits import (LimitReport, SumSurface, c_s_surface, commutativity_gap,
                     limit_B, rh_contradiction_check)
from .zeros import ZeroRecord, load_zeros, refine_zero, scan_zeros
from .search import ObjectiveSpec, SearchConfig, anneal, objective_gap

__all__ = [
    "OddSquarefree", "QOrdering", "f_bruteforce", "f_closed", "f_kh",
    "is_gamma", "sieve_primes",
    "SeriesResult", "StripPoint", "eta_accel", "eta_averaged", "gamma_partial",
    "geom_closed", "shifted_sums", "subseries_q", "term_ab", "zeta_from_eta",
    "LimitReport", "SumSurface", "c_s_surface", "commutativity_gap",
    "limit_B", "rh_contradiction_check",
    "ZeroRecord", "load_zeros", "refine_zero", "scan_zeros",
    "ObjectiveSpec", "SearchConfig", "anneal", "objective_gap",
]
