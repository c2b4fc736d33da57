"""Orbit stratification of a smooth toric variety and Poincare series.

The orbits, ordered by nondecreasing cone dimension, form a decomposition
whose partial unions are open; each stratum's normal weights are the dual
basis characters of a maximal cone through it, at its rays, with which
they pair to delta_vw, taken modulo sigma^perp.  All weights are nonzero,
the Euler classes are non-zero-divisors, and the equivariant Poincare
series is the sum of the shifted series of the strata.

Smoothness and completeness are required through the gates of ``fan``.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import SmoothnessError, ToricError
from .fan import Fan, RaySet, require_complete, require_smooth
from .lattice import Vector, pairing


class PoincareSeries(NamedTuple):
    """numerator(t) / (1 - t^2)^denominator_exponent."""

    numerator: tuple[int, ...]
    denominator_exponent: int

    def coefficient(self, degree: int) -> int:
        """Coefficient of t^degree in the expanded power series."""
        if degree < 0:
            return 0
        d = self.denominator_exponent
        total = 0
        for i, c in enumerate(self.numerator):
            if c == 0 or i > degree:
                continue
            rem = degree - i
            if rem % 2 != 0:
                continue
            j = rem // 2
            total += c * (comb(j + d - 1, d - 1) if d > 0 else int(j == 0))
        return total

    def coefficients(self, max_degree: int) -> list[int]:
        return [self.coefficient(i) for i in range(max_degree + 1)]


def dual_basis_character(fan: Fan, rayset: RaySet, v: int) -> Vector:
    """chi with <chi, mu_w> = delta_vw over the rays w of the cone.

    Read off the cone's ``dual_basis``, which exists exactly when the cone
    is smooth; raises ``SmoothnessError`` on a singular cone.
    """
    key = tuple(sorted(rayset))
    basis = fan.cone(key).dual_basis
    if v not in key:
        raise KeyError(f"ray {v} not in cone {key}")
    if basis is None:
        raise SmoothnessError(f"no integral dual basis for ray {v} in cone {key}")
    return basis[key.index(v)]


class Stratum(NamedTuple):
    rayset: RaySet
    codim: int
    # dual basis character lifts, one per ray of the cone, in ray order
    normal_weights: tuple[Vector, ...]


class Stratification(NamedTuple):
    fan: Fan
    strata: tuple[Stratum, ...]

    @property
    def order(self) -> tuple[RaySet, ...]:
        return tuple(s.rayset for s in self.strata)


def stratify(fan: Fan) -> Stratification:
    """Order the orbits so every prefix is a subfan and attach weights."""
    require_smooth(fan)
    weights: dict[RaySet, tuple[Vector, ...]] = {}
    for m in fan.maximal_cones:  # no face is charted
        basis = fan.cone(m).dual_basis
        for f in map(sorted, fan.cone(m).face_generator_sets):
            weights.setdefault(tuple(m[i] for i in f), tuple(basis[i] for i in f))
    # fan.cones is sorted by (dim, rays): prefixes are subfans
    strata = tuple(Stratum(c, fan.cone(c).dim, weights[c]) for c in fan.cones)
    return Stratification(fan=fan, strata=strata)


class PerfectionReport:
    def __init__(self) -> None:
        self.failures: list[tuple[RaySet, Vector]] = []

    @property
    def certified(self) -> bool:
        return not self.failures


def certify_perfection(strat: Stratification) -> PerfectionReport:
    """Check each normal weight is nonzero in X(T_sigma) tensor Q.

    A weight's lift must pair nontrivially with some ray of its cone;
    then the Euler class, a product of nonzero elements of the integral
    domain Sym X(T_sigma) tensor Q, is a non-zero-divisor.
    """
    report = PerfectionReport()
    fan = strat.fan
    for s in strat.strata:
        for chi in s.normal_weights:
            if all(pairing(chi, fan.rays[w]) == 0 for w in s.rayset):
                report.failures.append((s.rayset, chi))
    return report


def equivariant_poincare_series(fan: Fan) -> PoincareSeries:
    """Sum over cones of t^(2 dim) (1-t^2)^(n-dim), over (1-t^2)^n.

    With f_d cones of dimension d, the coefficient of t^(2i) in the
    numerator is sum_d f_d (-1)^(i-d) C(n-d, i-d); trailing zeros are
    dropped.
    """
    require_smooth(fan)
    n = fan.n
    f = [0] * (n + 1)
    for c in fan.cones:
        f[fan.cone(c).dim] += 1
    num = [0] * (2 * n + 1)
    for i in range(n + 1):
        num[2 * i] = sum(
            f[d] * (-1) ** (i - d) * comb(n - d, i - d) for d in range(i + 1) if f[d]
        )
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return PoincareSeries(tuple(num), n)


def ordinary_poincare_polynomial(fan: Fan) -> list[int]:
    """Equivariant series times (1-t^2)^n; needs a smooth complete fan."""
    require_smooth(fan)
    require_complete(fan)
    poly = list(equivariant_poincare_series(fan).numerator)
    if any(x < 0 for x in poly) or any(poly[1::2]):
        raise ToricError(
            f"Poincare polynomial {poly} has a negative or odd-degree coefficient"
        )
    return poly
