"""The face ring of the fan's simplicial complex and its quotients.

Elements are kept in the face-monomial basis at all times: a monomial
whose support is not a simplex is zero and never stored, so equality and
grading are immediate and no Groebner machinery is needed.  Generators
x_v sit in degree 2, one per ray.

Ordinary cohomology is the face ring modulo the linear forms of X(T).
The relations of each graded piece are sparse rows built straight from
the ray coordinates.  One unimodular row reduction of them, by
``lattice.cokernel``, gives the rank and torsion from their elementary
divisors and the basis from the rows that lie in the span of the rows
before them.  No dense matrix is built but one: the rows of the echelon
whose pivots are not units, after the unit pivots are cleared out of
them, go to the dense Smith normal form.  In the cases tried there are
none on P^n, (P^1)^n, the Hirzebruch surfaces and P^3 blown up at
points; iterated blow-ups of P^2 leave a few, such as 18 or 19 rows for
P^2 blown up 22 times in degree 8.

On a smooth fan the restriction to the orbit strata is injective in
every degree, and ``check_restriction_injectivity`` reads its rank off
the face monomials themselves: in the ray coordinates of each X(T_sigma)
every face monomial restricts to itself on the cones containing its
support.  ``restriction_map`` gives the restriction in SNF coordinates.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Mapping, NamedTuple, Sequence

from .fan import (
    Fan,
    RaySet,
    require_complete,
    require_smooth,
    simplicial_complex,
)
from .lattice import Vector, cokernel, pairing
from .stratification import dual_basis_character

Exponents = tuple[int, ...]
MVPoly = dict[Exponents, int]


def _support(expo: Exponents) -> frozenset[int]:
    return frozenset(i for i, e in enumerate(expo) if e > 0)


def _mv_mul(p: MVPoly, q: MVPoly) -> MVPoly:
    """Product of two polynomials keyed by exponent vectors; zero terms
    are dropped.  Serves the face ring and the strata's Sym X(T_sigma)."""
    out: MVPoly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


class SRElement:
    """Integer combination of face monomials (exponent vectors over rays)."""

    __slots__ = ("fan", "terms")

    def __init__(self, fan: Fan, terms: Mapping[Exponents, int]):
        simps = fan.simplices
        clean = {}
        for expo, coeff in terms.items():
            if coeff == 0:
                continue
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            if _support(expo) not in simps:
                continue  # non-face monomial: identically zero
            clean[tuple(expo)] = coeff
        self.fan = fan
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, SRElement)
            and self.fan is other.fan
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "SRElement") -> "SRElement":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SRElement(self.fan, out)

    def __neg__(self) -> "SRElement":
        return SRElement(self.fan, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SRElement") -> "SRElement":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "SRElement":
        return SRElement(
            self.fan, {e: scalar * c for e, c in self.terms.items()}
        )

    def __mul__(self, other: "SRElement") -> "SRElement":
        return SRElement(self.fan, _mv_mul(self.terms, other.terms))

    def __repr__(self):
        if not self.terms:
            return "SRElement(0)"
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(
                f"x{i}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(e)
                if p
            )
            bits.append(f"{self.terms[e]}*{mono or '1'}")
        return "SRElement(" + " + ".join(bits) + ")"


def sr_zero(fan: Fan) -> SRElement:
    return SRElement(fan, {})


def sr_one(fan: Fan) -> SRElement:
    return SRElement(fan, {(0,) * len(fan.rays): 1})


def sr_variable(fan: Fan, v: int) -> SRElement:
    expo = tuple(int(i == v) for i in range(len(fan.rays)))
    return SRElement(fan, {expo: 1})


def sr_monomial(fan: Fan, expo: Sequence[int], coeff: int = 1) -> SRElement:
    return SRElement(fan, {tuple(expo): coeff})


class SRPresentation(NamedTuple):
    """Z[x_v : v ray] modulo the squarefree monomials of minimal non-faces."""

    num_generators: int
    relations: tuple[RaySet, ...]


def sr_presentation(fan: Fan) -> SRPresentation:
    require_smooth(fan)
    sc = simplicial_complex(fan)
    return SRPresentation(
        num_generators=len(fan.rays), relations=sc.minimal_nonfaces
    )


def face_monomials(fan: Fan, degree: int) -> list[Exponents]:
    """All exponent vectors of the given even degree whose support is a
    simplex; these are a Z-basis of the graded piece."""
    if degree % 2 != 0 or degree < 0:
        raise ValueError("degree must be a nonnegative even integer")
    k = degree // 2
    nrays = len(fan.rays)
    if k == 0:
        return [(0,) * nrays]
    out = []
    for simp in fan.simplices:
        s = sorted(simp)
        if not s or len(s) > k:
            continue
        # compositions of k into len(s) positive parts
        for cuts in itertools.combinations(range(1, k), len(s) - 1):
            parts = [b - a for a, b in zip((0,) + cuts, cuts + (k,))]
            expo = [0] * nrays
            for v, p in zip(s, parts):
                expo[v] = p
            out.append(tuple(expo))
    return sorted(out)


def face_monomial_count(fan: Fan, degree: int) -> int:
    """Rank of the face ring in the given even degree."""
    if degree % 2 != 0 or degree < 0:
        raise ValueError("degree must be a nonnegative even integer")
    k = degree // 2
    if k == 0:
        return 1
    total = 0
    for simp in fan.simplices:
        if simp:
            total += comb(k - 1, len(simp) - 1)
    return total


def char_to_linear_form(fan: Fan, chi: Sequence[int]) -> SRElement:
    """chi maps to sum_v <chi, mu_v> x_v (the H*(BT) -> H*_T morphism)."""
    terms = {}
    for v, mu in enumerate(fan.rays):
        c = pairing(chi, mu)
        if c:
            expo = tuple(int(i == v) for i in range(len(fan.rays)))
            terms[expo] = c
    return SRElement(fan, terms)


class GradedPiece(NamedTuple):
    degree: int
    rank: int
    torsion: tuple[int, ...]
    basis: tuple[Exponents, ...]


def ordinary_cohomology(fan: Fan, max_degree: int) -> tuple[GradedPiece, ...]:
    """Graded pieces of the face ring modulo the linear forms of a basis
    of X(T), each presented as an integer cokernel.

    In degree d the relations are the products theta_j * m' of the linear
    form theta_j = sum_v <e_j, mu_v> x_v with a face monomial m' of degree
    d - 2.  They are built as sparse rows straight from ray coordinates:
    the row of a face monomial m has the entry mu_v[j] in column
    (j, m - e_v) for each ray v in supp(m), and no other, because
    theta_j * m' has the term mu_v[j] * (m' + e_v) exactly when supp(m')
    together with v is a simplex, and every subset of a simplex is one.
    One ``lattice.cokernel`` call per degree gives the rank and torsion
    from the elementary divisors, and the basis from the dependent rows.
    Past degree 2n the pieces are 0 with no torsion (Danilov-Jurkiewicz),
    so no relation is built there.
    """
    require_smooth(fan)
    require_complete(fan)
    pieces = []
    lower: dict[Exponents, int] = {}
    for degree in range(0, max_degree + 1, 2):
        if degree > 2 * fan.n:
            pieces.append(GradedPiece(degree, 0, (), ()))
            continue
        monos = face_monomials(fan, degree)
        relations = []
        for m in monos:
            row = {}
            for v, e in enumerate(m):
                if e:
                    col = fan.n * lower[m[:v] + (e - 1,) + m[v + 1:]]
                    for j, x in enumerate(fan.rays[v]):
                        if x:
                            row[col + j] = x
            relations.append(row)
        divisors, dependent = cokernel(relations)
        pieces.append(
            GradedPiece(
                degree=degree,
                rank=len(monos) - len(divisors),
                torsion=tuple(x for x in divisors if x > 1),
                basis=tuple(monos[i] for i in dependent),
            )
        )
        lower = {m: i for i, m in enumerate(monos)}
    return tuple(pieces)


def restriction_map(
    fan: Fan, element: SRElement, rayset: Iterable[int]
) -> MVPoly:
    """Restrict to the stratum of the given cone, landing in Sym* X(T_sigma).

    x_v goes to 0 off the cone and to the class of the dual basis character
    chi_v on it; the result is a polynomial in the free coordinates of
    X(T_sigma) (exponent-vector keyed, integer coefficients).
    """
    key = tuple(sorted(rayset))
    pres = fan.stabilizer_characters(key)
    d = pres.rank
    out: MVPoly = {}
    rayset_set = set(key)
    for expo, coeff in element.terms.items():
        support = _support(expo)
        if not support <= rayset_set:
            continue
        poly: MVPoly = {(0,) * d: coeff}
        for v in sorted(support):
            chi = dual_basis_character(fan, key, v)
            cvec = pres.free_part(chi)
            linear = {
                tuple(int(i == j) for i in range(d)): cvec[j]
                for j in range(d)
                if cvec[j] != 0
            }
            for _ in range(expo[v]):
                poly = _mv_mul(poly, linear)
        for e, c in poly.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


class InjectivityEntry(NamedTuple):
    degree: int
    domain_rank: int
    image_rank: int

    @property
    def injective(self) -> bool:
        return self.domain_rank == self.image_rank


def check_restriction_injectivity(
    fan: Fan, max_degree: int
) -> tuple[InjectivityEntry, ...]:
    """Rank (over Q) of the restriction of each graded piece to the
    product of the strata's cohomologies, read off in ray coordinates.

    The fan is required to be smooth, so on each cone sigma the dual basis
    characters chi_v (v in sigma) map to a Z-basis of X(T_sigma).  The SNF
    coordinates of ``restriction_map`` therefore differ from these ray
    coordinates by a degree-preserving automorphism of Sym X(T_sigma), one
    per cone, and a block-diagonal automorphism of the target does not
    change the rank of the stacked matrix.  In ray coordinates a face
    monomial m restricts to sigma as the same monomial when supp(m) lies
    in sigma, and as 0 otherwise, so every row (sigma, e) of the stacked
    matrix has exactly one nonzero entry.  The nonzero columns then have
    disjoint supports, so the rank is the number of nonzero columns: the
    monomials whose support lies in some cone, that is, is the ray set of
    a cone, since every set of rays of a smooth cone spans a face of it.
    The support of every face monomial is such a simplex, so both ranks
    are ``face_monomial_count``, and no monomial is enumerated.
    """
    require_smooth(fan)
    entries = []
    for degree in range(0, max_degree + 1, 2):
        rank = face_monomial_count(fan, degree)
        entries.append(
            InjectivityEntry(degree=degree, domain_rank=rank, image_rank=rank)
        )
    return tuple(entries)
