"""Closed forms for the average-case constants.

All logarithms are natural.  The base quantities are

    E = (1/log(4/3)) * (pi^2/6 + 2 * sum_{k>=1} (-1)^k / (k^2 2^k))
    D = log 2 * log(3/2) / log(4/3)
    A = E - D

A is the entropy of the underlying interval map, D its mean shift in log
scale; both equal the first partial derivatives of the dominant eigenvalue
of the weighted transfer operator at (1, 0) (the spectral module estimates
them numerically, and tests compare).  The dyadic-drift constant B has no
known closed form; under the conjecture D - B = log 2 it inherits one, and
with it the entropy of the full dyadic extension

    H = A - B = (pi^2/6 + 2 sum_{k>=1} (-1)^k/(k^2 2^k)
                 - log 2 (3 log 3 - 4 log 2)) / (2 log 2 - log 3).

Mean costs per step of the algorithm (the slope ratios measured by the
experiments module) are combinations of these: sigma -> D, q -> A + D = E,
rho and q2 -> B + D, r -> A - B = H.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError, require_int
from .report import fields_json

LN2 = math.log(2.0)
LN3 = math.log(3.0)
LOG43 = 2.0 * LN2 - LN3          # log(4/3)
LOG32 = LN3 - LN2                # log(3/2)


# k^2 2^k leaves the float range past k = 1021; the default 64 terms
# already bring the truncation error of const_E below 1e-22
SERIES_TERMS = 64
SERIES_TERMS_MAX = 1000


def _alt_series(terms: int) -> float:
    """Partial sum of sum_{k=1}^{terms} (-1)^k / (k^2 2^k).

    Alternating with decreasing magnitude, so the truncation error is below
    the first omitted term 1/((terms+1)^2 2^(terms+1)).
    """
    total = 0.0
    sign = -1.0
    for k in range(1, require_int("terms", terms, 1, SERIES_TERMS_MAX) + 1):
        total += sign / (k * k * (1 << k))
        sign = -sign
    return total


def series_tail_bound(terms: int) -> float:
    """Rigorous bound on |const_E(terms) - E| from the alternating series."""
    k = terms + 1
    return 2.0 / (k * k * 2.0 ** k) / LOG43


def const_E(terms: int = SERIES_TERMS) -> float:
    """Mean of 2|log x| under the invariant density."""
    return _E_from(_alt_series(terms))


def _E_from(series: float) -> float:
    return (math.pi ** 2 / 6.0 + 2.0 * series) / LOG43


def const_D() -> float:
    """log 2 times the mean branch index under the invariant density."""
    return LN2 * LOG32 / LOG43


def const_A(terms: int = SERIES_TERMS) -> float:
    """Entropy of the interval map, E - D."""
    return const_E(terms) - const_D()


def const_B_conjectured() -> float:
    """Dyadic drift constant under the conjecture D - B = log 2."""
    return const_D() - LN2


def const_H_conjectured(terms: int = SERIES_TERMS) -> float:
    """Entropy of the dyadic extension under the conjecture.

    Evaluated from its own closed form, then cross-checked against
    A - B to within 1e-12; the two are algebraically equal.
    """
    return _H_from(_alt_series(terms))


def _H_from(series: float) -> float:
    # the closed form and the A - B cross-check share one series sum
    bracket = (math.pi ** 2 / 6.0 + 2.0 * series
               - LN2 * (3.0 * LN3 - 4.0 * LN2))
    direct = bracket / (2.0 * LN2 - LN3)
    indirect = _E_from(series) - const_D() - const_B_conjectured()
    if abs(direct - indirect) > 1e-12:
        raise ConsistencyError(
            f"H closed form disagrees with A - B: {direct} vs {indirect}"
        )
    return direct


@dataclass(frozen=True)
class ConstantsTable:
    """All closed-form constants plus the per-step mean-cost table."""

    E: float
    D: float
    A: float
    B_conj: float
    H_conj: float
    two_over_H: float
    mean_costs: dict[str, float]   # cost name -> asymptotic mean per step
    terms: int

    to_json_dict = fields_json


def m_table(terms: int = SERIES_TERMS) -> ConstantsTable:
    terms = require_int("terms", terms, 1, SERIES_TERMS_MAX)
    series = _alt_series(terms)
    E = _E_from(series)
    D = const_D()
    A = E - D
    B = const_B_conjectured()
    H = _H_from(series)
    return ConstantsTable(
        E=E,
        D=D,
        A=A,
        B_conj=B,
        H_conj=H,
        two_over_H=2.0 / H,
        mean_costs={
            "sigma": D,
            "q": A + D,
            "rho": B + D,
            "r": H,
            "q2": B + D,
        },
        terms=terms,
    )
