"""Equivariant and ordinary Picard groups of a smooth fan, on ray
coordinates.

H^2_T(X) is the inverse limit of the character lattices X(T_sigma) over
the maximal cones: tuples (chi_sigma), each taken modulo sigma^perp, that
agree on pairwise intersections.  Pic(X) = H^2(X) is its quotient by the
constant families coming from X(T).  On a smooth fan the dual basis makes
X(T_sigma) = Z^(rays of sigma), so a compatible family is exactly its
values <chi_sigma, mu_v> on the rays v lying in some maximal cone:
H^2_T(X) = Z^rays, and Pic(X) = coker(X(T) -> Z^rays), one Smith normal
form of the ray coordinates (Cox, Little and Schenck, *Toric Varieties*,
Ch. 4 and Ch. 12).  Divisor classes are realized as character families
with <chi_sigma, mu_v> = -a_v on each ray of sigma (sections of the ray
divisors are linearized with weight zero).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import IncompatibleFamilyError
from .fan import Fan, RaySet, require_smooth
from .lattice import Vector, pairing, quotient_by_sublattice, solve_integer


class CharacterFamily(NamedTuple):
    """One representative character per maximal cone; the datum is its
    class in X(T_sigma) = X(T)/(sigma^perp intersect X(T))."""

    fan: Fan
    chars: tuple[Vector, ...]  # parallel to fan.maximal_cones

    def check_compatible(self) -> None:
        """Raise unless the classes agree on each pairwise intersection: the
        cones through each ray v agree on <chi_sigma, mu_v>."""
        fan = self.fan
        first: dict[int, tuple[RaySet, int]] = {}
        for c, chi in zip(fan.maximal_cones, self.chars):
            for v in c:
                value = pairing(chi, fan.rays[v])
                d, expected = first.setdefault(v, (c, value))
                if value != expected:
                    common = tuple(sorted(set(d) & set(c)))
                    raise IncompatibleFamilyError(
                        f"classes on cones {d} and {c} disagree "
                        f"on their intersection {common}"
                    )

    def __add__(self, other: "CharacterFamily") -> "CharacterFamily":
        return CharacterFamily(
            self.fan,
            tuple(
                tuple(x + y for x, y in zip(a, b))
                for a, b in zip(self.chars, other.chars)
            ),
        )

    def __neg__(self) -> "CharacterFamily":
        return CharacterFamily(
            self.fan, tuple(tuple(-x for x in a) for a in self.chars)
        )

    def __sub__(self, other: "CharacterFamily") -> "CharacterFamily":
        return self + (-other)


class PicardReport(NamedTuple):
    equivariant_rank: int
    equivariant_torsion: tuple[int, ...]
    equivariant_basis: tuple[CharacterFamily, ...]
    ordinary_rank: Optional[int] = None
    ordinary_torsion: Optional[tuple[int, ...]] = None


def picard(fan: Fan) -> PicardReport:
    """Pic_T(X) = Z^rays and Pic(X) = Z^rays / X(T), over the used rays.

    A ray counts when it lies in some maximal cone.  Basis family ``v``
    is the dual basis character of ``v`` on each maximal cone through
    ``v`` and zero elsewhere; character ``e_t`` maps to the t-th
    coordinates of the rays.
    """
    require_smooth(fan)
    maxc = fan.maximal_cones
    used = sorted({v for c in maxc for v in c})
    zero = (0,) * fan.n
    duals = [dict(zip(c, fan.cone(c).dual_basis)) for c in maxc]
    families = tuple(
        CharacterFamily(fan, tuple(d.get(v, zero) for d in duals)) for v in used
    )
    ordinary = quotient_by_sublattice(
        len(used), [[fan.rays[v][t] for v in used] for t in range(fan.n)]
    )
    return PicardReport(
        equivariant_rank=len(used),
        equivariant_torsion=(),
        equivariant_basis=families,
        ordinary_rank=ordinary.rank,
        ordinary_torsion=ordinary.torsion,
    )


def equivariant_picard(fan: Fan) -> PicardReport:
    """Pic_T(X) alone: ``picard`` without the ordinary part."""
    return picard(fan)._replace(ordinary_rank=None, ordinary_torsion=None)


def divisor_class(fan: Fan, coeffs: Sequence[int]) -> CharacterFamily:
    """Family of the divisor sum_v a_v D_v: <chi_sigma, mu_v> = -a_v on
    every ray v of sigma (weight-zero linearization of the sections), so
    chi_sigma = -sum_v a_v times the dual basis character of v on sigma."""
    require_smooth(fan)
    if len(coeffs) != len(fan.rays):
        raise ValueError(
            f"need one coefficient per ray ({len(fan.rays)}), got {len(coeffs)}"
        )
    chars = []
    for c in fan.maximal_cones:
        duals = fan.cone(c).dual_basis
        chars.append(
            tuple(
                -sum(coeffs[v] * chi[t] for v, chi in zip(c, duals))
                for t in range(fan.n)
            )
        )
    family = CharacterFamily(fan, tuple(chars))
    family.check_compatible()
    return family


def is_principal(fan: Fan, family: CharacterFamily) -> Optional[Vector]:
    """A character chi whose constant family equals the given one, or None."""
    family.check_compatible()
    rows = []
    rhs = []
    for c, chi_c in zip(fan.maximal_cones, family.chars):
        for v in c:
            rows.append(list(fan.rays[v]))
            rhs.append(pairing(chi_c, fan.rays[v]))
    if not rows:
        return family.chars[0] if family.chars else (0,) * fan.n
    return solve_integer(rows, rhs)
