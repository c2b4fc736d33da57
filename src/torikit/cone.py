"""Rational polyhedral cones in Y(T)_R, with exact integer arithmetic.

A cone is stored by its primitive generators.  One Smith normal form
U G V = D of the generator rows G, the cone's chart, gives sigma^perp,
smoothness and the dual basis.  Duality is computed by the double
description method with incremental inequality insertion; Hilbert bases
of dual monoids by triangulating the dual cone and enumerating the
half-open fundamental parallelepiped of each simplicial piece.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import prod
from typing import NamedTuple, Optional, Sequence

from .errors import PointednessError, ToricError
from .lattice import (
    Matrix,
    QuotientLatticePresentation,
    Vector,
    diagonal_of,
    identity_matrix,
    mat_vec,
    pairing,
    primitive,
    quotient_by_sublattice,
    rank,
    smith_normal_form,
)

# ``hilbert_basis`` refuses a parallelepiped with more lattice points (it
# has |det| of them); those of the goldens and the benchmark have at most
# a few hundred.
MAX_PARALLELEPIPED_POINTS = 100_000


def double_description(
    inequalities: Sequence[Vector], n: int
) -> tuple[list[Vector], list[Vector]]:
    """Extreme rays and lineality basis of {x : a.x >= 0 for all a}.

    Inequalities are inserted one at a time; while a lineality vector hits
    the new hyperplane the whole description is folded into it, otherwise
    adjacent (+,-) ray pairs are combined.  Adjacency is decided by the
    rank of the constraints tight at both rays.
    """
    lineality: list[Vector] = [
        tuple(int(i == j) for i in range(n)) for j in range(n)
    ]
    rays: list[Vector] = []
    processed: list[Vector] = []
    seen = set()
    for a in inequalities:
        a = tuple(a)
        if not any(a):
            continue
        if a in seen:
            continue
        seen.add(a)
        hit = next((i for i, l in enumerate(lineality) if pairing(a, l) != 0), None)
        if hit is not None:
            l = lineality.pop(hit)
            if pairing(a, l) < 0:
                l = tuple(-x for x in l)
            al = pairing(a, l)
            lineality = [
                primitive(tuple(al * x - pairing(a, v) * y for x, y in zip(v, l)))
                for v in lineality
            ]
            rays = [
                primitive(tuple(al * x - pairing(a, r) * y for x, y in zip(r, l)))
                for r in rays
            ]
            rays.append(l)
        else:
            values = [pairing(a, r) for r in rays]
            pos = [r for r, s in zip(rays, values) if s > 0]
            zero = [r for r, s in zip(rays, values) if s == 0]
            neg = [r for r, s in zip(rays, values) if s < 0]
            target = n - len(lineality) - 2
            new = []
            for rp, rm in itertools.product(pos, neg):
                tight = [
                    b
                    for b in processed
                    if pairing(b, rp) == 0 and pairing(b, rm) == 0
                ]
                if rank(tight) != target:
                    continue
                sp, sm = pairing(a, rp), pairing(a, rm)
                new.append(
                    primitive(tuple(sp * x - sm * y for x, y in zip(rm, rp)))
                )
            rays = pos + zero + new
        processed.append(a)
        rays = list(dict.fromkeys(rays))
    return sorted(set(rays)), lineality


class DualConeDescription(NamedTuple):
    """Generators of the dual cone sigma^v inside X(T).

    ``rays`` are the extreme rays modulo lineality, ``lineality`` is a
    lattice basis of sigma^perp (both signs of each basis vector belong to
    the dual cone); ``generators`` is the combined irredundant list.
    """

    rays: tuple[Vector, ...]
    lineality: tuple[Vector, ...]

    @property
    def generators(self) -> tuple[Vector, ...]:
        out = list(self.rays)
        for b in self.lineality:
            out.append(b)
            out.append(tuple(-x for x in b))
        return tuple(out)


class Cone:
    """A rational polyhedral cone, generated by primitive integer vectors."""

    def __init__(
        self,
        generators: Sequence[Sequence[int]],
        ambient_dim: int,
    ):
        gens = []
        for g in generators:
            if len(g) != ambient_dim:
                raise ValueError(
                    f"generator of length {len(g)} in ambient Z^{ambient_dim}"
                )
            p = primitive(g)
            if p not in gens:
                gens.append(p)
        self.generators: tuple[Vector, ...] = tuple(gens)
        self.n = ambient_dim

    def __repr__(self):
        return f"Cone({list(self.generators)}, n={self.n})"

    @cached_property
    def dim(self) -> int:
        if not self.generators:
            return 0
        return rank([list(g) for g in self.generators])

    @cached_property
    def _chart(self) -> tuple[Matrix, Matrix, Matrix]:
        """The Smith normal form ``(U, D, V)``, ``U G V = D``, of the
        generator rows G; V = I for the zero cone."""
        if not self.generators:
            return [], [], identity_matrix(self.n)
        return smith_normal_form([list(g) for g in self.generators])

    @cached_property
    def perp(self) -> tuple[Vector, ...]:
        """A lattice basis of sigma^perp = ker G: the columns of the chart's
        V past the rank."""
        _, d, v = self._chart
        r = sum(1 for x in diagonal_of(d) if x)
        return tuple(tuple(row[j] for row in v) for j in range(r, self.n))

    @cached_property
    def _dual(self) -> DualConeDescription:
        rays, _ = double_description(self.generators, self.n)
        return DualConeDescription(tuple(rays), self.perp)

    def dual_cone(self) -> DualConeDescription:
        return self._dual

    @property
    def facet_normals(self) -> tuple[Vector, ...]:
        return self._dual.rays

    @cached_property
    def extreme_rays(self) -> tuple[Vector, ...]:
        # Linearly independent generators are the extreme rays already.
        if len(self.generators) == self.dim:
            return tuple(sorted(self.generators))
        rays, _ = double_description(self._dual.generators, self.n)
        return tuple(rays)

    @cached_property
    def _vertex(self) -> bool:
        return rank(self._dual.generators) == self.n

    def has_vertex(self) -> bool:
        """True iff sigma meets -sigma only in 0; decided once per cone."""
        return self._vertex

    def contains(self, v: Sequence[int]) -> bool:
        return all(pairing(g, v) >= 0 for g in self._dual.rays) and all(
            pairing(b, v) == 0 for b in self._dual.lineality
        )

    def same_cone(self, other: "Cone") -> bool:
        return all(other.contains(g) for g in self.generators) and all(
            self.contains(g) for g in other.generators
        )

    def is_smooth(self) -> bool:
        """True iff the generators are part of a Z-basis of Y(T) (Cox, Little
        and Schenck, *Toric Varieties*, Def. 1.2.16): the chart's D is [I | 0]."""
        _, d, _ = self._chart
        return len(self.generators) <= self.n and all(x == 1 for x in diagonal_of(d))

    @cached_property
    def dual_basis(self) -> Optional[tuple[Vector, ...]]:
        """Characters chi_i with <chi_i, g_j> = delta_ij on the k generators
        g_j, or None when the cone is not smooth.  They are the columns of
        V[:, :k] U, as G V[:, :k] U = U^-1 D V^-1 V[:, :k] U = I."""
        if not self.is_smooth():
            return None
        u, _, v = self._chart
        k = range(len(self.generators))
        return tuple(tuple(sum(row[s] * u[s][i] for s in k) for row in v) for i in k)

    @cached_property
    def stabilizer_characters(self) -> QuotientLatticePresentation:
        """X(T_sigma) = X(T) / (sigma^perp intersect X(T))."""
        return quotient_by_sublattice(self.n, self.perp)

    @cached_property
    def face_generator_sets(self) -> list[frozenset[int]]:
        """Faces as index sets into ``generators``, smallest first.

        Every face of a pointed cone is an intersection of facets; facets
        are read off as the generators tight on a facet normal.
        """
        full = frozenset(range(len(self.generators)))
        facet_sets = {
            frozenset(
                i for i, g in enumerate(self.generators) if pairing(eta, g) == 0
            )
            for eta in self._dual.rays
        }
        faces = {full}
        frontier = {full}
        while frontier:
            nxt = set()
            for f in frontier:
                for fs in facet_sets:
                    g = f & fs
                    if g not in faces:
                        faces.add(g)
                        nxt.add(g)
            frontier = nxt
        return sorted(faces, key=lambda s: (len(s), sorted(s)))

    def hilbert_basis(self) -> list[Vector]:
        """Minimal generating set of the monoid sigma^v intersect X(T).

        Requires a cone with a vertex.  When sigma is not full dimensional
        the dual has lineality sigma^perp; the basis then consists of both
        signs of a lattice basis of sigma^perp together with lifts of the
        Hilbert basis of the projected pointed cone.
        """
        if not self.has_vertex():
            raise PointednessError("cone without vertex has no Hilbert basis")
        if self.n == 0:
            return []
        dual = self._dual
        if not dual.lineality:
            return _hilbert_pointed(
                list(dual.rays), list(self.extreme_rays), self.n
            )
        q = quotient_by_sublattice(self.n, dual.lineality)
        proj = q.projection_matrix()
        lifts = q.lift_basis()
        projected = Cone([mat_vec(proj, r) for r in dual.rays], q.rank)
        # The projected cone is the image of sigma^v, pointed and full
        # dimensional downstairs; its Hilbert basis lifts along any section.
        sub = _hilbert_pointed(
            list(projected.generators), list(projected.facet_normals), q.rank
        )
        out: list[Vector] = []
        for b in dual.lineality:
            out.append(b)
            out.append(tuple(-x for x in b))
        for h in sub:
            x = tuple(
                sum(h[j] * lifts[j][i] for j in range(q.rank))
                for i in range(self.n)
            )
            if any(pairing(x, g) < 0 for g in self.generators):
                raise ToricError(
                    f"lifted Hilbert basis element {x} is not in the dual cone"
                )
            out.append(x)
        return out


def _hilbert_pointed(
    gens: list[Vector], normals: list[Vector], d: int
) -> list[Vector]:
    """Hilbert basis of the pointed full-dimensional cone spanned by ``gens``.

    ``normals`` cut the cone out: x belongs iff <x, nu> >= 0 for all nu.
    Candidates are the generators plus the lattice points of the half-open
    parallelepipeds of a triangulation; reducible candidates (x - y stays
    in the cone for an accepted y) are discarded in increasing order of a
    strictly positive linear functional.  x - y lies in the cone exactly
    when y's values on ``normals`` are at most x's, so each candidate's
    values are computed once.
    """
    if not gens:
        return []
    if len(gens) == 1:
        return [gens[0]]
    candidates = set(gens)
    for simplex in _triangulate(Cone(gens, d)):
        candidates.update(_parallelepiped_points(simplex))
    candidates.discard((0,) * d)
    ell = tuple(sum(nu[i] for nu in normals) for i in range(d))
    ordered = sorted(candidates, key=lambda x: (pairing(ell, x), x))
    basis: list[Vector] = []
    accepted: list[list[int]] = []
    for x in ordered:
        values = [pairing(x, nu) for nu in normals]
        if not any(
            all(a <= b for a, b in zip(y, values)) for y in accepted
        ):
            basis.append(x)
            accepted.append(values)
    return sorted(basis)


def _triangulate(cone: Cone) -> list[list[Vector]]:
    """Split a pointed cone into simplicial subcones on its extreme rays."""
    rays = list(cone.extreme_rays)
    if len(rays) == cone.dim:
        return [rays]
    v = rays[0]
    out = []
    facets = [
        s
        for s in cone.face_generator_sets
        if rank([list(cone.generators[i]) for i in s]) == cone.dim - 1
    ]
    for s in facets:
        facet_rays = [cone.generators[i] for i in sorted(s)]
        if v in facet_rays:
            continue
        for simplex in _triangulate(Cone(facet_rays, cone.n)):
            out.append(simplex + [v])
    return out


def _parallelepiped_points(cols: list[Vector]) -> list[Vector]:
    """Nonzero lattice points of {sum t_i g_i : 0 <= t_i < 1}.

    ``cols`` are linearly independent and there are exactly dim-many of
    them, so the box is a genuine parallelepiped with |det| lattice points,
    one per class of Z^d / G Z^d.  With U G V = D and e = d_last, the class
    z of sum Z/d_i is U w for a coset representative w, and
    G^-1 w = V D^-1 z; so t = (V (z_i e / d_i)) mod e is e times the
    fractional part of G^-1 w, and the point is G t / e.  Raises
    ``ToricError`` when there are more than ``MAX_PARALLELEPIPED_POINTS``.
    """
    d = len(cols[0])
    g = [[cols[j][i] for j in range(len(cols))] for i in range(d)]
    if len(cols) != d:
        raise ValueError("parallelepiped needs a square generator matrix")
    _, dd, v = smith_normal_form(g)
    diag = diagonal_of(dd)
    if 0 in diag:
        raise ValueError("degenerate parallelepiped")
    count = prod(diag)
    if count > MAX_PARALLELEPIPED_POINTS:
        raise ToricError(
            f"the dual cone has a fundamental parallelepiped with {count} lattice "
            f"points, more than the {MAX_PARALLELEPIPED_POINTS} torikit enumerates"
        )
    e = diag[-1]
    scale = [e // x for x in diag]
    pts = []
    for z in itertools.product(*[range(x) for x in diag]):
        t = [x % e for x in mat_vec(v, [zi * s for zi, s in zip(z, scale)])]
        if not any(t):
            continue
        pts.append(tuple(sum(t[j] * row[j] for j in range(d)) // e for row in g))
    return pts
