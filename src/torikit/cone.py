"""Rational polyhedral cones in Y(T)_R, with exact integer arithmetic.

A cone is stored by its primitive generators.  One Smith normal form
U G V = D of the generator rows G, the cone's chart, gives sigma^perp,
smoothness and the dual basis.  One double description gives the facet
normals, and with sigma^perp they generate the dual.  ``Cone.facets``
maps each facet, as the set of generators on it, to its normal.  The
faces are read off those sets; so is whether some generators are those on
a face (``Cone.is_face``), with no face listed, and with it the extreme
rays and the vertex; and so are a fan's walls, its pair check and its
completeness.  A
face tau of a simplicial cone sigma, one whose generators are linearly
independent, is read off sigma (``Cone.face``): its generators are
independent too, so its dimension is their count, and with nu_j the
facet normal of sigma opposite g_j, tau^v = cone(nu_j : g_j in tau) +
tau^perp (Cox, Little and Schenck, *Toric Varieties*, Sec. 1.2).  So the
nu_j of tau's generators are tau's facet normals, up to tau^perp and a
positive factor, and no double description is run for tau.  The
double description can also cut a pointed cone it is given by more
half-spaces, which is how a fan intersects two of its cones.  Hilbert
bases of dual monoids come from the dual's image modulo sigma^perp.  In
dimension 2 that image's basis is its Hirzebruch-Jung continued fraction,
walked from one ray to the other.  In higher dimension the lattice points
of a half-open fundamental parallelepiped are enumerated by their
coordinates t over its rays, column by column of t.  A simplicial image
is reduced in those coordinates, with no pairing: the columns of t that
are 0 on every point are left out, and one filter (``_minimal``) keeps
the minimal t: in lexicographic order, so that every point below t comes
before it, it searches the accepted t in a staircase when there are
three entries, in each staircase of a Fenwick tree with four or five, and
by a scan with more.  Only the accepted t are turned into lattice
points, all at once, and the basis is lifted from the image to X(T) and
checked against the cone's generators in one pass too.  Any other image
is triangulated on its facet normals, and its candidates go through the
same filter as their values on the normals.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import cached_property
from math import prod
from operator import add, floordiv, le, mul
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
)

# ``hilbert_basis`` refuses a parallelepiped with more lattice points (it
# has |det| of them); those of the goldens and the benchmark have at most
# a few hundred.
MAX_PARALLELEPIPED_POINTS = 100_000
# It refuses a 2-D dual with a longer Hilbert basis.  A 2-D cone of
# determinant D has at most D + 1 basis elements, so every 2-D cone whose
# parallelepiped the bound above lets through is answered.
MAX_HILBERT_BASIS_SIZE = MAX_PARALLELEPIPED_POINTS + 1
# ``_minimal`` nests staircases in Fenwick trees for points of at most
# this many entries k (a box's nonzero t-columns, or a dual's facet
# normals).  A point is inserted into up to (log2(e) + 1)^(k - 3)
# staircases; past k = 5 that takes about as long as comparing it with
# every accepted point, and far more memory, so longer points are scanned.
MAX_NESTED_COLUMNS = 5
# The scan refuses to compare a point with an accepted one more often, a
# few seconds of work.  The 6-column box of the dual of the cone on
# N e_i - e_6 (i <= 5) and e_6 needs (N - 1)(N - 2) / 2 comparisons, so it
# is answered up to N = 3 163.
MAX_SCAN_COMPARISONS = 5_000_000
# ``Cone.face_generator_sets`` and a fan's face closure list at most this
# many faces; a simplicial cone on k rays has 2^k, so the orthant of Z^16
# is answered.  Validation, the gates and Picard list none.
MAX_FACES = 100_000


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
        return tuple(
            sorted(g for i, g in enumerate(self.generators) if self.is_face(frozenset([i])))
        )

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

    def is_face(self, indices: frozenset[int]) -> bool:
        """Whether the generators at ``indices`` are those on a face: the
        facets through them meet in them alone.  Every face is an
        intersection of facets (sigma the empty one) and is generated by
        the generators it contains (Cox, Little and Schenck, *Toric
        Varieties*, Sec. 1.2).  At the empty set this is the vertex test:
        sigma & -sigma, the smallest face, is 0 iff no generator lies on
        every facet."""
        on_all = frozenset(range(len(self.generators)))
        return on_all.intersection(*(f for f in self.facets if indices <= f)) == indices

    def has_vertex(self) -> bool:
        """True iff sigma meets -sigma only in 0: no generator is on every facet."""
        return self.is_face(frozenset())

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

    def face(self, indices: frozenset[int]) -> Cone:
        """The face on the generators at ``indices``, one of
        ``face_generator_sets``.  A face of a simplicial cone, one whose
        generators are linearly independent, reads its dimension and its
        facet normals off this cone (``_SimplicialFace``); any other face is
        a cone of its own."""
        if self.dim == len(self.generators):
            return _SimplicialFace(self, indices)
        return Cone([self.generators[i] for i in sorted(indices)], self.n)

    @cached_property
    def face_generator_sets(self) -> list[frozenset[int]]:
        """Faces as index sets into ``generators``, smallest first.

        Every face of a pointed cone is an intersection of facets, so
        intersecting the faces found so far with each facet in turn finds
        them all.  Past ``MAX_FACES`` faces this raises ``ToricError``, at
        once for a simplicial cone, whose k generators span 2^k faces.
        """
        k = len(self.generators)
        faces = {frozenset(range(k))}
        too_many = 2**k > MAX_FACES and self.dim == k
        for facet in self.facets:
            if too_many:
                break
            faces |= {f & facet for f in faces}
            too_many = len(faces) > MAX_FACES
        if too_many:
            raise ToricError(
                f"a cone on {k} rays has more faces than the {MAX_FACES} torikit enumerates"
            )
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

        The basis of tau is lifted in one product, column by column of the
        lifts, and each generator of sigma is then paired with all of the
        lifts at once.  A lift that pairs below 0 with some generator raises
        ``ToricError`` naming the first such lift, in basis order.
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
        if not sub:
            return out
        # column i of the lifts is sum_k L[i][k] h_k over the whole basis,
        # and a generator's values on them are one such sum of columns
        sub_cols = list(zip(*sub))
        cols = [_combine(row, sub_cols) for row in zip(*lifts)]
        first = len(sub)
        for g in self.generators:
            values = _combine(g, cols)
            if min(values) < 0:
                first = min(first, next(i for i, v in enumerate(values) if v < 0))
        lifted = list(zip(*cols))
        if first < len(sub):
            raise ToricError(
                f"lifted Hilbert basis element {lifted[first]} is not in the dual cone"
            )
        out.extend(lifted)
        return out


def _combine(coeffs: Sequence[int], cols: Sequence[Sequence[int]]) -> Sequence[int]:
    """sum_k coeffs[k] cols[k], entry by entry, for columns of one nonzero
    length; a coefficient 0 is skipped and a coefficient 1 takes the column
    as it is."""
    acc: Sequence[int] = ()
    for a, col in zip(coeffs, cols):
        if a:
            term = col if a == 1 else list(map(mul, itertools.repeat(a), col))
            acc = list(map(add, acc, term)) if acc else term
    return acc or [0] * len(cols[0])


class _SimplicialFace(Cone):
    """The face on the generators at ``indices`` of the simplicial ``cone``.
    Its generators are linearly independent, so its dimension is their
    count, and its facet normals are those of ``cone`` opposite them, read
    when first asked for."""

    def __init__(self, cone: Cone, indices: frozenset[int]):
        super().__init__([cone.generators[i] for i in sorted(indices)], cone.n)
        self._cone = cone
        self._indices = indices

    @cached_property
    def dim(self) -> int:
        return len(self.generators)

    @cached_property
    def facet_normals(self) -> tuple[Vector, ...]:
        return tuple(
            a for facet, a in self._cone.facets.items() if not self._indices <= facet
        )


def _hilbert_pointed(
    gens: list[Vector], normals: list[Vector], d: int
) -> list[Vector]:
    """Hilbert basis of the pointed full-dimensional cone with extreme rays
    ``gens`` and facet normals ``normals``: x belongs iff <x, nu> >= 0.

    In dimension 2 the basis is walked (``_hirzebruch_jung``).  A simplicial
    cone (d extreme rays) is reduced in the coordinates t of its half-open
    parallelepiped, x = sum t_j g_j / e with 0 <= t_j < e, and no pairing
    is computed.  Each normal vanishes on all generators but one, g_j, so
    <x, nu> = t_j <g_j, nu> / e with <g_j, nu> > 0: the values on the
    normals are the t_j, each scaled by a positive factor.  A nonzero
    lattice point x of the cone is reducible iff x - y stays in the cone
    for a nonzero lattice point y != x of the cone, that is iff y's values
    on the normals are at most x's.  Every irreducible point other than the
    generators lies in the box (x - g_j is in the cone once t_j >= e), and
    a y whose coordinates are at most x's lies in the same box.  So the
    basis is the generators plus the box points whose t is minimal.

    A column of t that is 0 on every box point plays no part in the order,
    so it is left out, and fewer than three columns are padded with 0
    columns in front to three; the minimal t are then those ``_minimal``
    keeps.  Only they are turned into points x, all at once, one
    coordinate at a time.  Other cones go to ``_hilbert_triangulated``.
    """
    if not gens:
        return []
    if len(gens) == 1:
        return [gens[0]]
    if d == 2:
        return _hirzebruch_jung(*gens)
    if len(gens) != d:
        return _hilbert_triangulated(gens, normals)
    t_cols, e = _parallelepiped(gens)
    kept = [j for j, col in enumerate(t_cols) if any(col)]
    cols = [t_cols[j] for j in kept]
    vecs = [gens[j] for j in kept]
    if len(kept) <= 3:
        pad = 3 - len(kept)
        cols[:0] = [[0] * len(t_cols[0])] * pad
        vecs[:0] = [(0,) * d] * pad
    # t = 0, the point 0, sorts first; the next point is minimal
    points = sorted(zip(*cols))[1:]
    basis = list(gens)
    if points:
        basis.extend(_box_points(vecs, list(zip(*_minimal(points, e))), e))
    return sorted(basis)


def _minimal(points: list[Vector], e: int) -> list[Vector]:
    """The ``points`` that no earlier point is at most in every entry.

    The points are distinct, of k >= 3 entries each in [0, e), and in
    lexicographic order, so a point y below t comes before t; if some y is
    below t so is a minimal one, which was accepted when it was reached.
    Every accepted y also has y_1 <= t_1, so with k = 3, t is reducible iff
    some accepted y has y_2 <= t_2 and y_3 <= t_3.  Those pairs are kept as
    a staircase (``_add_step``).  With k = 4 or 5, the accepted t are kept
    in Fenwick trees over t_2, ..., t_(k-2) nested around staircases on the
    last two entries (``_insert``), so that each t is tested against at most
    (log2(e) + 1)^(k-3) staircases and is inserted into as many; the
    staircases are those of the sweep for maxima by Kung, Luccio and
    Preparata (J. ACM, 1975).  With more than ``MAX_NESTED_COLUMNS``
    entries each t is compared with the accepted ones until one is below
    it, and ``ToricError`` is raised once the scan has made more than
    ``MAX_SCAN_COMPARISONS`` comparisons.
    """
    if len(points[0]) == 3:
        y2s: list[int] = []
        y3s: list[int] = []
        return [t for t in points if _add_step(y2s, y3s, t[1], t[2])]
    accepted: list[Vector] = []
    if len(points[0]) <= MAX_NESTED_COLUMNS:
        tree: dict = {}
        for t in points:
            if not _below(tree, t, 1):
                _insert(tree, t, 1, e)
                accepted.append(t)
        return accepted
    budget = MAX_SCAN_COMPARISONS
    for t in points:
        # the count of accepted points compared up to the first below t
        below = next((i for i, y in enumerate(accepted, 1) if all(map(le, y, t))), 0)
        budget -= below or len(accepted)
        if budget < 0:
            raise ToricError(
                f"the dual cone's Hilbert basis needs more than the "
                f"{MAX_SCAN_COMPARISONS} comparisons of lattice points torikit makes"
            )
        if not below:
            accepted.append(t)
    return accepted


def _box_points(
    vecs: list[Vector], t_cols: Sequence[Sequence[int]], e: int
) -> list[Vector]:
    """The points x = G t / e, G the matrix with columns ``vecs``, of the
    t whose entries are the columns ``t_cols``, all at once, one
    coordinate of x at a time."""
    coords = [_combine(row, t_cols) for row in zip(*vecs)]
    return list(zip(*(list(map(floordiv, c, itertools.repeat(e))) for c in coords)))


def _add_step(y2s: list[int], y3s: list[int], a: int, b: int) -> bool:
    """Add the pair (a, b) to the staircase ``y2s``, ``y3s`` unless some
    step is at most it in both entries; True iff it was added.

    The steps are minimal pairs, y_2 increasing and y_3 decreasing, so the
    last step with y_2 <= a has the least y_3 of those with y_2 <= a.  The
    added pair replaces the steps it is below: the one with y_2 = a, if any,
    and the steps after it with y_3 >= b."""
    k = bisect_right(y2s, a)
    if k and y3s[k - 1] <= b:
        return False
    i = k - 1 if k and y2s[k - 1] == a else k
    j = k
    while j < len(y3s) and y3s[j] >= b:
        j += 1
    y2s[i:j] = [a]
    y3s[i:j] = [b]
    return True


def _below(tree: dict | tuple, t: Vector, c: int) -> bool:
    """True iff some point inserted into ``tree`` (``_insert``) is at most
    ``t`` in the entries c, c + 1, ... of t."""
    if len(t) - c == 2:
        k = bisect_right(tree[0], t[c])
        return k > 0 and tree[1][k - 1] <= t[c + 1]
    i = t[c] + 1
    while i:
        node = tree.get(i)
        if node is not None and _below(node, t, c + 1):
            return True
        i &= i - 1
    return False


def _insert(tree: dict | tuple, t: Vector, c: int, e: int) -> None:
    """Insert the entries c, c + 1, ... of ``t``, each in [0, e), into
    ``tree``.  With two entries left it is a staircase (``_add_step``); with
    more, a Fenwick tree over the value of entry c, whose node i holds the
    later entries of the points with t_c + 1 in (i - lowbit(i), i].  So
    the points with entry c at most t_c are those of at most log2(e) + 1
    nodes, and each point is inserted into as many."""
    if len(t) - c == 2:
        _add_step(*tree, t[c], t[c + 1])
        return
    i = t[c] + 1
    while i <= e:
        node = tree.get(i)
        if node is None:
            node = tree[i] = ([], []) if len(t) - c == 3 else {}
        _insert(node, t, c + 1, e)
        i += i & -i


def _hilbert_triangulated(gens: list[Vector], normals: list[Vector]) -> list[Vector]:
    """Hilbert basis of the pointed full-dimensional cone with extreme rays
    ``gens`` and facet normals ``normals``, of dimension at least 3.

    Candidates are the generators plus the lattice points of the half-open
    parallelepipeds of a triangulation.  A candidate x is reducible iff
    x - y stays in the cone for another candidate y, that is iff y's values
    on ``normals`` are at most x's; so the basis is the candidates whose
    tuples of values are minimal (``_minimal``).  The normals span, so
    distinct candidates have distinct tuples.
    """
    d = len(gens[0])
    candidates = set(gens)
    for simplex in _triangulate(gens, normals):
        candidates.update(_box_points(simplex, *_parallelepiped(simplex)))
    candidates.discard((0,) * d)
    by_values = {tuple(pairing(x, nu) for nu in normals): x for x in candidates}
    values = sorted(by_values)
    e = max(map(max, values)) + 1
    return sorted(by_values[v] for v in _minimal(values, e))


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


def _parallelepiped(cols: list[Vector]) -> tuple[list[list[int]], int]:
    """The lattice points x = sum t_j g_j / e, 0 <= t_j < e, of the
    half-open parallelepiped on the columns g_j = ``cols``, as the pair
    ``(t_cols, e)``: ``t_cols[j]`` holds t_j of every point, one entry per
    point in one order, with x = 0 first.

    ``cols`` are linearly independent and there are exactly dim-many of
    them, so the box is a genuine parallelepiped with |det| lattice points,
    one per class of Z^d / G Z^d.  With U G V = D and e = d_last, the class
    z of sum Z/d_i is U w for a coset representative w, and
    G^-1 w = V D^-1 z; so t = (sum z_i c_i) mod e, with
    c_i = (V (e / d_i) e_i) mod e, is e times the fractional part of
    G^-1 w, and the point is G t / e.

    Each column of t is built over all classes at once, one invariant
    factor at a time: the classes found so far, shifted by k c_i for
    k < d_i.  A column is 0 on every point when its c_i all are.  The
    callers build x = G t / e (``_box_points``) only for the t they keep.
    Raises ``ToricError`` when there are more than
    ``MAX_PARALLELEPIPED_POINTS``, before anything is enumerated.
    """
    d = len(cols[0])
    if len(cols) != d:
        raise ValueError("parallelepiped needs a square generator matrix")
    g = [[col[i] for col in cols] for i in range(d)]
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
    t_cols = [[0] for _ in range(d)]
    for i, di in enumerate(diag):
        if di == 1:
            continue
        for j, col in enumerate(t_cols):
            c = v[j][i] * (e // di) % e
            t_cols[j] = [(a + k * c) % e for k in range(di) for a in col]
    return t_cols, e
