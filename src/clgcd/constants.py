"""Closed forms for the average-case constants; ``m_table()`` computes them.

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
rho and q2 -> B + D, r -> A - B = H.  ``m_table()`` is the one route to
all of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError
from .report import fields_json

LN2 = math.log(2.0)
LN3 = math.log(3.0)
LOG43 = 2.0 * LN2 - LN3          # log(4/3)
LOG32 = LN3 - LN2                # log(3/2)


@dataclass(frozen=True)
class ConstantsTable:
    """All closed-form constants plus the per-step mean-cost table."""

    E: float       # mean of 2|log x| under the invariant density
    D: float       # log 2 times the mean branch index
    A: float       # entropy of the interval map, E - D
    B_conj: float  # dyadic drift under the conjecture, D - log 2
    H_conj: float  # entropy of the dyadic extension under the conjecture
    two_over_H: float
    mean_costs: dict[str, float]   # cost name -> asymptotic mean per step

    to_json_dict = fields_json


def m_table() -> ConstantsTable:
    """The closed forms above, from one 64-term sum of the series.

    The series alternates with decreasing terms, so its truncation error is
    below the first omitted term 1/(65^2 2^65), under 1e-22.  H is evaluated
    from its own closed form and cross-checked against A - B to within
    1e-12 (the two are algebraically equal); a mismatch raises
    ``ConsistencyError``.
    """
    series = 0.0
    sign = -1.0
    for k in range(1, 65):
        series += sign / (k * k * (1 << k))
        sign = -sign
    zeta2 = math.pi ** 2 / 6.0
    E = (zeta2 + 2.0 * series) / LOG43
    D = LN2 * LOG32 / LOG43
    A = E - D
    B = D - LN2
    H = ((zeta2 + 2.0 * series - LN2 * (3.0 * LN3 - 4.0 * LN2))
         / (2.0 * LN2 - LN3))
    if abs(H - (A - B)) > 1e-12:
        raise ConsistencyError(
            f"H closed form disagrees with A - B: {H} vs {A - B}")
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
    )
