"""Rational polyhedral cones in Y(T)_R, with exact integer arithmetic.

A cone is stored by its primitive generators.  One Smith normal form
U G V = D of the generator rows G, the cone's chart, gives sigma^perp,
smoothness and the dual basis.  One double description gives the facet
normals, and with sigma^perp they generate the dual.  ``Cone.facets``
maps each facet, as the set of generators on it, to its normal; the
faces, the extreme rays and whether there is a vertex are read off those
sets, and so are a fan's walls, its pair check and its completeness.  The
double description can also cut a pointed cone it is given by more
half-spaces, which is how a fan intersects two of its cones.  Hilbert
bases of dual monoids come from the dual's image modulo sigma^perp.  In
dimension 2 that image's basis is its Hirzebruch-Jung continued fraction,
walked from one ray to the other.  In higher dimension the image is
triangulated on its facet normals and the half-open fundamental
parallelepiped of each simplicial piece is enumerated, stepping from
coset to coset of the lattice its rays span.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import prod
from operator import le
from typing import Optional, Sequence

from .errors import PointednessError, ToricError
from .lattice import (
    Matrix,
    QuotientLatticePresentation,
    Vector,
    _bezout,
    diagonal_of,
    identity_matrix,
    mat_vec,
    pairing,
    primitive,
    quotient_by_sublattice,
    rank,
    smith_normal_form,
    transpose,
)

# ``hilbert_basis`` refuses a parallelepiped with more lattice points (it
# has |det| of them); those of the goldens and the benchmark have at most
# a few hundred.
MAX_PARALLELEPIPED_POINTS = 100_000
# It refuses a 2-D dual with a longer Hilbert basis.  A 2-D cone of
# determinant D has at most D + 1 basis elements, so every 2-D cone whose
# parallelepiped the bound above lets through is answered.
MAX_HILBERT_BASIS_SIZE = MAX_PARALLELEPIPED_POINTS + 1


def double_description(
    inequalities: Sequence[Vector], n: int, within: Optional[Cone] = None
) -> tuple[list[Vector], list[Vector]]:
    """Extreme rays and lineality basis of {x : a.x >= 0 for all a}, cut
    from all of R^n, or from the pointed cone ``within`` when one is given.

    Inequalities are inserted one at a time; while a lineality vector hits
    the new hyperplane the whole description is folded into it, otherwise
    adjacent (+,-) ray pairs are combined.  Adjacency is decided by the
    rank of the constraints tight at both rays.  A pointed cone is already
    such a state: its extreme rays, no lineality, and its dual's generators
    as the processed inequalities (Fukuda and Prodon, "Double description
    method revisited", 1996), so cutting it inserts only ``inequalities``.
    """
    if within is None:
        lineality = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        rays: list[Vector] = []
        processed: list[Vector] = []
    else:
        lineality, rays = [], list(within.extreme_rays)
        processed = list(within.dual_generators)
    seen = set(processed)
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

            def fold(v: Vector) -> Vector:
                av = pairing(a, v)
                return primitive(tuple(al * x - av * y for x, y in zip(v, l)))

            lineality = [fold(v) for v in lineality]
            rays = [fold(r) for r in rays]
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


class Cone:
    """A rational polyhedral cone, generated by primitive integer vectors."""

    def __init__(
        self,
        generators: Sequence[Sequence[int]],
        ambient_dim: int,
    ):
        gens: dict[Vector, None] = {}
        for g in generators:
            if len(g) != ambient_dim:
                raise ValueError(
                    f"generator of length {len(g)} in ambient Z^{ambient_dim}"
                )
            gens[primitive(g)] = None
        self.generators: tuple[Vector, ...] = tuple(gens)
        self.n = ambient_dim

    def __repr__(self):
        return f"Cone({list(self.generators)}, n={self.n})"

    @cached_property
    def dim(self) -> int:
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
    def facet_normals(self) -> tuple[Vector, ...]:
        """The extreme rays of the dual sigma^v modulo its lineality
        sigma^perp; for a pointed cone, its facet normals."""
        return tuple(double_description(self.generators, self.n)[0])

    @cached_property
    def dual_generators(self) -> tuple[Vector, ...]:
        """Generators of sigma^v: the facet normals, then both signs of
        each basis vector of sigma^perp."""
        return self.facet_normals + tuple(
            x for b in self.perp for x in (b, tuple(-y for y in b))
        )

    @cached_property
    def extreme_rays(self) -> tuple[Vector, ...]:
        """The generators that span a face of their own, sorted."""
        if not self.has_vertex():
            raise PointednessError("cone without vertex has no extreme rays")
        faces = self.face_generator_sets
        return tuple(sorted(self.generators[min(s)] for s in faces if len(s) == 1))

    @cached_property
    def facets(self) -> dict[frozenset[int], Vector]:
        """Each facet as the index set into ``generators`` of the generators
        on its hyperplane, mapped to its normal, in ``facet_normals`` order.
        Distinct facets hold distinct generator sets, as a face is generated
        by the generators it contains."""
        return {
            frozenset(i for i, g in enumerate(self.generators) if pairing(a, g) == 0): a
            for a in self.facet_normals
        }

    @cached_property
    def _vertex(self) -> bool:
        """sigma has a vertex iff no generator lies on every facet.

        A generator g on every facet pairs to 0 with the dual's rays and
        with sigma^perp, so with all of sigma^v, which puts g in
        sigma & -sigma.  Conversely sigma & -sigma is a face of sigma, and
        a face is generated by the generators it contains; so if it is not
        0, some generator lies in it, and so on every facet.
        """
        return not frozenset(range(len(self.generators))).intersection(*self.facets)

    def has_vertex(self) -> bool:
        """True iff sigma meets -sigma only in 0; decided once per cone."""
        return self._vertex

    def contains(self, v: Sequence[int]) -> bool:
        return all(pairing(g, v) >= 0 for g in self.dual_generators)

    def same_cone(self, other: "Cone") -> bool:
        return all(other.contains(g) for g in self.generators) and all(
            self.contains(g) for g in other.generators
        )

    def is_smooth(self) -> bool:
        """True iff the generators are part of a Z-basis of Y(T) (Cox, Little
        and Schenck, *Toric Varieties*, Def. 1.2.16): there are at most n of
        them, which is checked before the chart is built, and the chart's D
        is [I | 0]."""
        if len(self.generators) > self.n:
            return False
        _, d, _ = self._chart
        return all(x == 1 for x in diagonal_of(d))

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

        Every face of a pointed cone is an intersection of facets, so
        intersecting the faces found so far with each facet in turn finds
        them all.
        """
        faces = {frozenset(range(len(self.generators)))}
        for facet in self.facets:
            faces |= {f & facet for f in faces}
        return sorted(faces, key=lambda s: (len(s), sorted(s)))

    def hilbert_basis(self) -> list[Vector]:
        """Minimal generating set of the monoid sigma^v intersect X(T).

        Requires a cone with a vertex.  The basis is both signs of a lattice
        basis of sigma^perp, the dual's lineality, and lifts of the Hilbert
        basis of the image tau of sigma^v in X(T_sigma) = X(T) / sigma^perp.
        With projection P and lift columns L (P L = I, and P = L = I when
        sigma is full dimensional), m - L P m lies in sigma^perp, so
        <P m, L^T g> = <m, g> for g in sigma.  Hence tau, spanned by the P r
        for the dual's rays r, is {y : <y, L^T g> >= 0} over the extreme rays
        g of sigma (y = P (L y)), and as L^T is injective on the span of
        sigma, the L^T g are its facet normals.
        """
        if not self.has_vertex():
            raise PointednessError("cone without vertex has no Hilbert basis")
        q = self.stabilizer_characters
        lifts = q.lift_basis()
        sub = _hilbert_pointed(
            [primitive(q.free_part(r)) for r in self.facet_normals],
            [primitive(mat_vec(lifts, g)) for g in self.extreme_rays],
            q.rank,
        )
        # both signs of each lineality basis vector, which follow the rays
        out = list(self.dual_generators[len(self.facet_normals):])
        lift_matrix = transpose(lifts)
        for h in sub:
            x = mat_vec(lift_matrix, h)
            if any(pairing(x, g) < 0 for g in self.generators):
                raise ToricError(
                    f"lifted Hilbert basis element {x} is not in the dual cone"
                )
            out.append(x)
        return out


def _hilbert_pointed(
    gens: list[Vector], normals: list[Vector], d: int
) -> list[Vector]:
    """Hilbert basis of the pointed full-dimensional cone with extreme rays
    ``gens`` and facet normals ``normals``: x belongs iff <x, nu> >= 0.

    In dimension 2 the basis is walked (``_hirzebruch_jung``).  Otherwise
    candidates are the generators plus the lattice points of the half-open
    parallelepipeds of a triangulation; reducible candidates (x - y stays
    in the cone for an accepted y) are discarded in increasing order of the
    sum of their values on ``normals``, a linear functional positive on the
    nonzero points of the cone.  x - y lies in the cone exactly when y's
    values are at most x's, so each candidate's values are computed once.
    """
    if not gens:
        return []
    if len(gens) == 1:
        return [gens[0]]
    if d == 2:
        return _hirzebruch_jung(*gens)
    candidates = set(gens)
    for simplex in _triangulate(gens, normals):
        candidates.update(_parallelepiped_points(simplex))
    candidates.discard((0,) * d)
    values = {x: [pairing(x, nu) for nu in normals] for x in candidates}
    basis: list[Vector] = []
    accepted: list[list[int]] = []
    for x in sorted(candidates, key=lambda x: (sum(values[x]), x)):
        if not any(all(map(le, y, values[x])) for y in accepted):
            basis.append(x)
            accepted.append(values[x])
    return sorted(basis)


def _hirzebruch_jung(u: Vector, v: Vector) -> list[Vector]:
    """Hilbert basis of the 2-D cone on the primitive rays ``u`` and ``v``.

    With det(u, v) > 0 the basis is u = u_0, u_1, ..., u_k = v, where each
    u_{i+1} is the lattice point with det(u_i, u_{i+1}) = 1 and
    0 <= det(u_{i+1}, v) < det(u_i, v): these are the lattice points on
    the compact edges of the convex hull of the cone's nonzero lattice
    points (Oda, *Convex Bodies and Algebraic Geometry*, Sec. 1.6).  So
    u_{i+1} = b_i u_i - u_{i-1} with b_i = ceil(r_{i-1} / r_i), where
    r_i = det(u_i, v), and the walk stops at r_k = 0.  Raises ``ToricError``
    once there are more than ``MAX_HILBERT_BASIS_SIZE`` elements.
    """
    r_u = u[0] * v[1] - u[1] * v[0]
    if r_u < 0:
        u, v, r_u = v, u, -r_u
    # w with det(u, w) = 1, by extended Euclid on u's coprime entries
    g, s, t = _bezout(u[0], u[1]) if u[0] else (u[1], 0, 1)
    w = (-t * g, s * g)
    r_w = w[0] * v[1] - w[1] * v[0]
    k = -(r_w // r_u)  # the least k with det(w + k u, v) >= 0
    prev, cur = u, (w[0] + k * u[0], w[1] + k * u[1])
    r_prev, r_cur = r_u, r_w + k * r_u
    basis = [prev, cur]
    while r_cur:
        b = -(-r_prev // r_cur)
        prev, cur = cur, (b * cur[0] - prev[0], b * cur[1] - prev[1])
        r_prev, r_cur = r_cur, b * r_cur - r_prev
        basis.append(cur)
        if len(basis) > MAX_HILBERT_BASIS_SIZE:
            raise ToricError(
                f"the dual cone has a Hilbert basis with more elements than the "
                f"{MAX_HILBERT_BASIS_SIZE} torikit enumerates"
            )
    return sorted(basis)


def _triangulate(
    gens: list[Vector], normals: list[Vector]
) -> list[list[Vector]]:
    """Split the pointed full-dimensional cone with extreme rays ``gens`` and
    facet normals ``normals`` into simplicial cones, pulling the least ray.

    Faces are index sets into ``gens``: the facets are the sets tight on a
    normal, and the facets of a face F the maximal proper sets F & f.  A
    face is simplicial when its size is its dimension.  Facets are visited
    in the order (size, sorted indices).
    """
    facets = {
        frozenset(i for i, g in enumerate(gens) if pairing(nu, g) == 0)
        for nu in normals
    }

    def pull(face: frozenset[int], dim: int) -> list[list[Vector]]:
        rays = sorted(gens[i] for i in face)
        if len(face) == dim:
            return [rays]
        v = gens.index(rays[0])
        cuts = {face & f for f in facets} - {face}
        out = []
        for s in sorted(cuts, key=lambda s: (len(s), sorted(s))):
            if v not in s and not any(s < t for t in cuts):
                out.extend(simplex + [rays[0]] for simplex in pull(s, dim - 1))
        return out

    return pull(frozenset(range(len(gens))), len(gens[0]))


def _parallelepiped_points(cols: list[Vector]) -> list[Vector]:
    """Nonzero lattice points of {sum t_i g_i : 0 <= t_i < 1}.

    ``cols`` are linearly independent and there are exactly dim-many of
    them, so the box is a genuine parallelepiped with |det| lattice points,
    one per class of Z^d / G Z^d.  With U G V = D and e = d_last, the class
    z of sum Z/d_i is U w for a coset representative w, and
    G^-1 w = V D^-1 z; so t = (V (z_i e / d_i)) mod e is e times the
    fractional part of G^-1 w, and the point is G t / e.

    The classes are stepped through one invariant factor at a time,
    carrying the pair (t, q = G t): a step in factor i adds
    c_i = (V (e / d_i) e_i) mod e to t and the precomputed G c_i to q, and
    each coordinate t_j that wraps past e takes e G e_j off q.  Raises
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
    wraps = [tuple(e * x for x in col) for col in cols]
    cosets = [((0,) * d, (0,) * d)]
    for i, di in enumerate(diag):
        if di == 1:
            continue
        c = tuple(row[i] * (e // di) % e for row in v)
        gc = mat_vec(g, c)
        steps = []
        for t, q in cosets:
            for _ in range(di - 1):
                t = [a + b for a, b in zip(t, c)]
                q = [a + b for a, b in zip(q, gc)]
                for j, tj in enumerate(t):
                    if tj >= e:
                        t[j] = tj - e
                        q = [a - b for a, b in zip(q, wraps[j])]
                steps.append((t, q))
        cosets += steps
    return [tuple(x // e for x in q) for _, q in cosets[1:]]
