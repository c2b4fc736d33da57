"""Equivariant and ordinary Picard groups as inverse limits of character
lattices.

H^2_T(X) is the subgroup of tuples (chi_sigma) over maximal cones that
agree on pairwise intersections, modulo the per-cone sublattices
sigma^perp; Pic(X) = H^2(X) is its further quotient by the constant
families coming from X(T).  Divisor classes are realized as character
families with <chi_sigma, mu_v> = -a_v on each ray of sigma (sections of
the ray divisors are linearized with weight zero).

The limit lattice is a saturated kernel with a basis in Z^(n*m).  The
coordinates in that basis of the sigma^perp generators, and those of the
constant families, come from one ``lattice.echelon`` each, not from one
Smith normal form per vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import IncompatibleFamilyError, ToricError
from .fan import Fan, RaySet
from .lattice import (
    Vector,
    echelon,
    kernel_basis,
    pairing,
    quotient_by_sublattice,
    solve_integer,
)
from .stratification import require_smooth


@dataclass(frozen=True)
class CharacterFamily:
    """One representative character per maximal cone; the datum is its
    class in X(T_sigma) = X(T)/(sigma^perp intersect X(T))."""

    fan: Fan
    chars: tuple[Vector, ...]  # parallel to fan.maximal_cones

    def char_for(self, rayset: RaySet) -> Vector:
        return self.chars[self.fan.maximal_cones.index(tuple(sorted(rayset)))]

    def check_compatible(self) -> None:
        fan = self.fan
        maxc = fan.maximal_cones
        for i in range(len(maxc)):
            for j in range(i + 1, len(maxc)):
                common = tuple(sorted(set(maxc[i]) & set(maxc[j])))
                diff = tuple(
                    a - b for a, b in zip(self.chars[i], self.chars[j])
                )
                if any(pairing(diff, fan.rays[v]) != 0 for v in common):
                    raise IncompatibleFamilyError(
                        f"classes on cones {maxc[i]} and {maxc[j]} disagree "
                        f"on their intersection {common}"
                    )

    def same_family(self, other: "CharacterFamily") -> bool:
        """Equal iff all per-cone classes agree in X(T_sigma)."""
        for c, a, b in zip(self.fan.maximal_cones, self.chars, other.chars):
            diff = tuple(x - y for x, y in zip(a, b))
            if any(pairing(diff, self.fan.rays[v]) != 0 for v in c):
                return False
        return True

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


@dataclass(frozen=True)
class PicardReport:
    equivariant_rank: int
    equivariant_torsion: tuple[int, ...]
    equivariant_basis: tuple[CharacterFamily, ...]
    ordinary_rank: Optional[int] = None
    ordinary_torsion: Optional[tuple[int, ...]] = None


def _limit_lattice(fan: Fan):
    """Solve the compatibility system for tuples over maximal cones.

    Returns (basis, maxc): integer basis vectors in Z^(n*m) of the
    saturated lattice of compatible tuples.
    """
    maxc = fan.maximal_cones
    n, m = fan.n, len(maxc)
    rows: list[list[int]] = []
    for i in range(m):
        for j in range(i + 1, m):
            common = tuple(sorted(set(maxc[i]) & set(maxc[j])))
            # chi_i - chi_j must vanish on the span of the common face,
            # i.e. pair to zero with each of its rays.
            for v in common:
                row = [0] * (n * m)
                mu = fan.rays[v]
                for t in range(n):
                    row[i * n + t] = mu[t]
                    row[j * n + t] = -mu[t]
                rows.append(row)
    if rows:
        basis = kernel_basis(rows)
    else:
        basis = [
            tuple(int(i == j) for i in range(n * m)) for j in range(n * m)
        ]
    return basis, maxc


def _perp_generators(fan: Fan, rayset: RaySet) -> list[Vector]:
    gens = [list(fan.rays[i]) for i in rayset]
    if not gens:
        return [
            tuple(int(i == j) for i in range(fan.n)) for j in range(fan.n)
        ]
    return kernel_basis(gens)


def _in_limit_coordinates(
    basis: Sequence[Vector], vecs: Sequence[Sequence[int]]
) -> list[Vector]:
    """The coordinates of each of ``vecs`` in the lattice basis ``basis``.

    One fraction-free elimination of ``[basis columns | vecs]`` reduces it
    to ``d * [I | Y]``: the basis is linearly independent, so its columns
    are the pivots, and column ``r + k`` holds ``d`` times the unique
    rational coordinates of ``vecs[k]``.  A further pivot puts a vector
    outside the span, a remainder outside the lattice.
    """
    if not vecs:
        return []
    r = len(basis)
    a, pivots, d, _ = echelon(
        [
            [b[i] for b in basis] + [v[i] for v in vecs]
            for i in range(len(vecs[0]))
        ]
    )
    if pivots != list(range(r)):
        raise ToricError("vector not in the compatibility lattice")
    coords = []
    for k in range(r, r + len(vecs)):
        y = []
        for row in a[:r]:
            q, rem = divmod(row[k], d)
            if rem:
                raise ToricError("vector not in the compatibility lattice")
            y.append(q)
        coords.append(tuple(y))
    return coords


def _equivariant_part(fan: Fan):
    """H^2_T(X) as the limit lattice modulo the per-cone sublattices
    sigma^perp, via one Smith normal form.

    Returns (basis, killed, pres, families): ``basis`` spans the limit
    lattice in Z^(n*m), ``killed`` are the sigma^perp generators in its
    coordinates, ``pres`` is the quotient and ``families`` lift its free
    basis.
    """
    require_smooth(fan)
    basis, maxc = _limit_lattice(fan)
    n, m = fan.n, len(maxc)
    r = len(basis)
    # the per-cone sublattices sigma^perp, block-embedded
    perps = []
    for i, c in enumerate(maxc):
        for p in _perp_generators(fan, c):
            vec = [0] * (n * m)
            vec[i * n : (i + 1) * n] = p
            perps.append(vec)
    killed = _in_limit_coordinates(basis, perps)
    pres = quotient_by_sublattice(r, killed)
    families = []
    for lift in pres.lift_basis():
        flat = [0] * (n * m)
        for c, b in zip(lift, basis):
            if c:
                for i, x in enumerate(b):
                    flat[i] += c * x
        families.append(
            CharacterFamily(
                fan,
                tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(m)),
            )
        )
    return basis, killed, pres, tuple(families)


def equivariant_picard(fan: Fan) -> PicardReport:
    """H^2_T(X) = lim X(T_sigma) over maximal cones."""
    _, _, pres, families = _equivariant_part(fan)
    return PicardReport(
        equivariant_rank=pres.rank,
        equivariant_torsion=pres.torsion,
        equivariant_basis=families,
    )


def picard(fan: Fan) -> PicardReport:
    """Pic(X) = H^2_T(X) / X(T) (constant families)."""
    basis, killed, equivariant, families = _equivariant_part(fan)
    n, m = fan.n, len(fan.maximal_cones)
    constants = _in_limit_coordinates(
        basis, [[int(k % n == t) for k in range(n * m)] for t in range(n)]
    )
    ordinary = quotient_by_sublattice(equivariant.n, killed + constants)
    return PicardReport(
        equivariant_rank=equivariant.rank,
        equivariant_torsion=equivariant.torsion,
        equivariant_basis=families,
        ordinary_rank=ordinary.rank,
        ordinary_torsion=ordinary.torsion,
    )


def divisor_class(fan: Fan, coeffs: Sequence[int]) -> CharacterFamily:
    """Family of the divisor sum_v a_v D_v: <chi_sigma, mu_v> = -a_v on
    every ray v of sigma (weight-zero linearization of the sections)."""
    require_smooth(fan)
    if len(coeffs) != len(fan.rays):
        raise ValueError(
            f"need one coefficient per ray ({len(fan.rays)}), got {len(coeffs)}"
        )
    chars = []
    for c in fan.maximal_cones:
        rows = [list(fan.rays[v]) for v in c]
        rhs = [-coeffs[v] for v in c]
        chi = solve_integer(rows, rhs)
        if chi is None:
            raise IncompatibleFamilyError(
                f"no integral character on cone {c}; cone is not smooth"
            )
        chars.append(chi)
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
