"""Fans: parsing, validation, the smooth/complete dictionary, orbits.

A fan is a face-closed collection of pointed rational cones whose pairwise
intersections are common faces.  Cones are stored as sorted tuples of
indices into the ray table.  ``Fan`` closes the cones it is given under
faces, so the input format lists only maximal cones.  The closure is built
on first use, and only the orbit decomposition, every cone in
``Fan.cones``, reads it: validation, the smoothness and completeness
verdicts and Picard read the given cones, and decide which of their ray
sets are faces by ``Cone.is_face``.

Every invariant needs a valid fan, and most need a smooth, or a smooth
complete, one.  ``require_valid``, ``require_smooth`` and
``require_complete`` enforce that policy for the whole package; the
verdict of ``validate_fan`` is computed once per fan and kept as
``Fan.validation``.  The lattice data of a cone (sigma^perp, smoothness,
the dual basis, X(T_sigma)) are kept on its ``Cone``; the orbit table
needs none of them, as X(T_sigma) is free of rank dim sigma.  Validation
and the smoothness verdict are decided on the maximal cones, so a face
needs no dual and no chart for them.  A fan of full-dimensional
simplicial maximal cones is first certified valid and complete by wall
crossing, one local check per facet on the facet records the parse
computed (``Cone.facets``), and ``Fan.wall_certified`` keeps the verdict;
only when it fails or does not apply are pairs of maximal cones intersected.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from .cone import MAX_FACES, Cone, double_description
from .errors import CompletenessError, ParseError, SmoothnessError, ToricError
from .lattice import QuotientLatticePresentation, Vector, pairing, primitive

RaySet = tuple[int, ...]


class Fan:
    """A fan in Y(T)_R, rank ``n``, with a primitive ray table.

    ``cones`` are index sets into ``rays``.  The fan holds them, the zero
    cone, and all faces of each of them that has a vertex, so every cone
    is a face of a given one and axiom (a) holds by construction.  The
    maximal cones are the given cones whose ray set is not a proper subset
    of another given cone's (the zero cone when none is given): every cone
    lies on the rays of a given cone.

    Only the given cones are built with the fan.  The face closure and the
    sorted ``cones`` are built the first time they are read, each face by
    ``Cone.face`` from a given cone, and ``cone`` answers a given cone
    without them.  ``validate_fan``, the smoothness and validity gates,
    ``incompleteness_reasons`` and ``picard`` build no face on a valid fan;
    only naming a singular cone (``first_singular_cone``) reads the faces.
    """

    def __init__(
        self,
        n: int,
        rays: Sequence[Sequence[int]],
        cones: Iterable[Iterable[int]],
        warnings: Optional[list[str]] = None,
    ):
        self.n = n
        self.rays: tuple[Vector, ...] = tuple(primitive(r) for r in rays)
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate ray in ray table")
        given = sorted({tuple(sorted(c)) for c in cones} - {()})
        for c in given:
            if any(i < 0 or i >= len(self.rays) for i in c):
                raise ValueError(f"ray index out of range in cone {c}")
            if len(set(c)) != len(c):
                raise ValueError(f"duplicate ray index in cone {c}")
        self._given: dict[RaySet, Cone] = {
            c: Cone([self.rays[i] for i in c], n) for c in given
        }
        # a given cone that contains c contains c's first ray
        containing: dict[int, list[frozenset[int]]] = {}
        for c in given:
            for i in c:
                containing.setdefault(i, []).append(frozenset(c))
        self.maximal_cones: tuple[RaySet, ...] = tuple(
            c for c in given if not any(d > set(c) for d in containing[c[0]])
        ) or ((),)
        self.warnings = warnings or []

    def cone(self, rayset: Iterable[int]) -> Cone:
        """The cone on ``rayset``; a given cone is answered without
        building the face closure."""
        key = tuple(sorted(rayset))
        if key in self._given:
            return self._given[key]
        if key not in self._closure:
            raise KeyError(f"cone {key} not in fan")
        return self._closure[key]

    @cached_property
    def _closure(self) -> dict[RaySet, Cone]:
        """Every cone of the fan: the given cones, the faces of each given
        cone that has a vertex, built by ``Cone.face`` from the first such
        cone in ray-set order, and the zero cone.  Past ``MAX_FACES`` cones
        this raises ``ToricError``."""
        objs = dict(self._given)
        for c, cone in self._given.items():
            if cone.has_vertex():
                for f in cone.face_generator_sets:
                    face = _face_rayset(c, f)
                    if face not in objs:
                        objs[face] = cone.face(f)
                        if len(objs) > MAX_FACES:
                            raise ToricError(
                                f"the fan has more cones than the {MAX_FACES} torikit enumerates"
                            )
        objs.setdefault((), Cone([], self.n))
        return objs

    @cached_property
    def cones(self) -> tuple[RaySet, ...]:
        """The ray sets of all cones, by dimension, then by ray set."""
        objs = self._closure
        return tuple(sorted(objs, key=lambda c: (objs[c].dim, c)))

    @cached_property
    def validation(self) -> ValidationReport:
        """The verdict of ``validate_fan`` on this fan, computed once."""
        return validate_fan(self)

    @cached_property
    def wall_certified(self) -> bool:
        """Whether the wall-crossing certificate of ``validate_fan`` holds,
        which makes the fan valid and complete."""
        return _wall_certificate(self)

    @cached_property
    def first_singular_cone(self) -> Optional[RaySet]:
        """The first cone, in ``cones`` order, that is not smooth, or None.
        The faces are charted, to name it, only when a maximal cone is
        singular (see ``validate_fan``)."""
        if all(self.cone(c).is_smooth() for c in self.maximal_cones):
            return None
        return next(c for c in self.cones if not self.cone(c).is_smooth())

    @cached_property
    def simplices(self) -> frozenset[frozenset[int]]:
        """The ray sets of the cones, as the faces of the face ring."""
        return frozenset(frozenset(c) for c in self.cones)

    def stabilizer_characters(self, rayset: Iterable[int]) -> QuotientLatticePresentation:
        """X(T_sigma) = X(T) / (sigma^perp intersect X(T)), kept on the
        cone; raises ``KeyError`` for a ray set that is not a cone.  The
        package reads the cone's own; ``perfbench`` traces this name."""
        return self.cone(rayset).stabilizer_characters


class ValidationReport:
    def __init__(self) -> None:
        self.violations: list[tuple[str, str]] = []

    @property
    def valid(self) -> bool:
        return not self.violations

    def add(self, kind: str, message: str) -> None:
        self.violations.append((kind, message))


def validate_fan(fan: Fan) -> ValidationReport:
    """Check pointedness and the fan axiom (b): two cones meet in a face
    of each.  The check stops after vertex violations.  Axiom (a), every
    face of a cone is a cone of the fan, holds by construction of ``Fan``.

    A fan that passes the wall-crossing certificate (``Fan.wall_certified``)
    is valid, and its report is empty.  The certificate applies when every
    maximal cone is full dimensional and simplicial, so that every cone is
    a face of one and the facets of a maximal cone, the walls, are its
    sets of n - 1 rays.  It holds when

    1. every wall lies in exactly two maximal cones;
    2. the rays of those two cones opposite the wall lie strictly on
       opposite sides of it, read off the facet normal of one of them;
    3. the sum of the rays of the first maximal cone, a point of its
       interior, lies in no other maximal cone.

    Then the fan is valid and complete (De Loera, Rambau and Santos,
    *Triangulations*, 2010, Section 4.5).  Proof: call a point generic
    when it lies on no cone spanned by n - 2 rays of a maximal cone and on
    no two walls in distinct hyperplanes.  The other points lie in finitely
    many subspaces of codimension 2, so any two generic points are joined
    by a path of generic points that crosses walls transversally.  Let
    deg x count the maximal cones that contain a generic x; it is constant
    off the walls.  The walls through a generic y lie in one hyperplane H,
    and a maximal cone with y on its boundary has exactly one of them as a
    facet.  By 1 and 2 those walls pair such cones, one on each side of H,
    so deg is the same on both sides of y.  A pseudo-manifold with proper
    walls thus covers R^n with constant degree.  By 3 the generic points
    near the interior point lie in the first cone only, so the degree is 1:
    the support is R^n and no two maximal cones share an interior point.

    Axiom (b): let x lie in maximal cones sigma and tau, and let S be the
    rays of the face of sigma that has x in its relative interior.  In a
    small ball around x, the only walls of the maximal cones on S are
    those through x, which contain S; by 1 and 2 each is shared by two
    maximal cones on S, one on each side.  As above, these cones cover the
    generic points of the ball with constant degree, at least 1 (sigma is
    one of them) and at most 1.  tau is full dimensional, so it contains
    generic points of the ball, and tau too is a maximal cone on S.  So x
    lies in the cone on the common rays of sigma and tau, which is then
    sigma & tau, a face of each.  Every cone is pointed, being a face of
    a cone on linearly independent rays.

    When the certificate fails or does not apply, the checks below run on
    the given cones, by dimension, then by ray set, and the report names
    every violation.  Every cone lies on a subset of the rays of a maximal
    cone, so it has a vertex if that cone has one; and it is smooth if
    that cone is, since a subset of a part of a Z-basis is part of a
    Z-basis.  The closure adds faces of pointed cones only, so a cone
    without a vertex is a given one.

    Once every cone has a vertex, (b) needs checking only on pairs of
    maximal cones.  Proof: let sigma and tau be maximal (possibly
    equal) and meet in rho, a face of both, and let sigma' <= sigma and
    tau' <= tau be faces.  Writing & for intersection,

        sigma' & tau' = (sigma' & rho) & (tau' & rho).

    sigma' & rho is the meet of two faces of sigma, so it is a face of
    sigma lying in rho, hence a face of rho; so is tau' & rho.  Two faces
    of rho meet in a face of rho, which is a face of sigma contained in
    sigma', hence a face of sigma', and likewise of tau'.

    The proof needs every cone to be a face of the maximal cones that
    contain its rays, so each given cone on a ray subset of a maximal cone
    d that is not a face of d (``Cone.is_face``), such as a ray through
    the interior of a quadrant, is checked against d.  Any other such
    cone c is a face of a given G on the rays of a maximal G', and the fan
    fails without c: either G is not a face of G', and (G, G') fails, or
    c is a face of G' (so G' is not d) and (G', d) fails, as c, a face of
    G' inside G' & d, would be a face of G' & d, and so of d, were G' & d
    a face of both.
    """
    report = ValidationReport()
    if fan.wall_certified:
        return report
    maximal = fan.maximal_cones
    given = sorted(fan._given, key=lambda c: (fan.cone(c).dim, c))
    for c in given:
        if not fan.cone(c).has_vertex():
            report.add("vertex", f"cone {c} contains a line (no vertex)")
    if not report.valid:
        return report
    nonfaces = [
        (c, d)
        for d in maximal
        for c in given
        if set(c) < set(d) and not fan.cone(d).is_face(frozenset(map(d.index, c)))
    ]
    for c1, c2 in list(itertools.combinations(maximal, 2)) + nonfaces:
        for c in _check_pair(fan, c1, c2):
            report.add(
                "axiom-b",
                f"intersection of cones {c1} and {c2} is not a face of {c}",
            )
    return report


def _wall_certificate(fan: Fan) -> bool:
    """Whether the three checks of ``validate_fan`` hold; False when some
    maximal cone is not full dimensional and simplicial.

    A full-dimensional simplicial cone has one facet per ray: the other
    rays, off which that ray lies.  Its dual is generated by its facet
    normals, so they decide membership.
    """
    n, maximal = fan.n, fan.maximal_cones
    if any(len(c) != n or fan.cone(c).dim != n for c in maximal):
        return False
    sides: dict[RaySet, list[tuple[Vector, int]]] = {}
    for c in maximal:
        for facet, a in fan.cone(c).facets.items():
            [j] = set(range(n)) - facet
            sides.setdefault(_face_rayset(c, facet), []).append((a, c[j]))
    for cones in sides.values():
        if len(cones) != 2:
            return False
        (a1, _), (_, v2) = cones
        if pairing(a1, fan.rays[v2]) >= 0:
            return False
    point = [sum(x) for x in zip(*(fan.rays[i] for i in maximal[0]))]
    for c in maximal[1:]:
        if all(pairing(a, point) >= 0 for a in fan.cone(c).facet_normals):
            return False
    return True


def _face_rayset(c: RaySet, face: Iterable[int]) -> RaySet:
    """The ray indices of a face given as indices into ``c``'s generators."""
    return tuple(c[i] for i in sorted(face))


def _check_pair(fan: Fan, c1: RaySet, c2: RaySet) -> list[RaySet]:
    """Those of ``c1`` and ``c2`` of which their intersection is not a face.

    The intersection is ``c1`` cut by the half-spaces of ``c2``'s dual
    generators, so one double description seeded with ``c1`` gives its
    rays.  ``c1`` is pointed: validation checks pairs only once every
    cone has a vertex, and a non-face ``c1`` lies on the rays of a pointed
    maximal ``c2``.  So the intersection has no lineality.  Cutting from
    all of R^n by ``c1``'s dual generators first would reach the same
    state: ``c1``'s extreme rays, no lineality, and those generators
    processed, with the same tight sets at every ray.  The insertions of
    ``c2``'s generators then run as they would after those.

    The smallest face of a cone that contains the intersection is the
    meet of the facets whose normals vanish on its rays.  It contains the
    intersection and lies in the cone, so it is the intersection, which
    is then a face, iff it lies in the other cone.
    """
    k1, k2 = fan.cone(c1), fan.cone(c2)
    inter, _ = double_description(k2.dual_generators, fan.n, within=k1)

    def smallest_face_lies_in(k: Cone, other: Cone) -> bool:
        face = frozenset(range(len(k.generators))).intersection(
            *(f for f, a in k.facets.items() if not any(pairing(a, g) for g in inter))
        )
        return all(other.contains(k.generators[i]) for i in face)

    return [
        c
        for c, k, other in ((c1, k1, k2), (c2, k2, k1))
        if not smallest_face_lies_in(k, other)
    ]


def require_valid(fan: Fan) -> None:
    """Raise ``ToricError`` naming every violation unless the fan is valid."""
    report = fan.validation
    if not report.valid:
        msgs = "; ".join(m for _, m in report.violations)
        raise ToricError(f"fan is not valid: {msgs}")


def require_smooth(fan: Fan) -> None:
    """Raise unless the fan is valid and every cone is smooth."""
    require_valid(fan)
    c = fan.first_singular_cone
    if c is not None:
        raise SmoothnessError(
            f"fan not smooth: rays of cone {c} are not part of a Z-basis"
        )


def is_smooth_fan(fan: Fan) -> bool:
    """Whether every maximal cone, and so every cone, is smooth."""
    return all(fan.cone(c).is_smooth() for c in fan.maximal_cones)


def incompleteness_reasons(fan: Fan) -> list[str]:
    """Why the support of the fan is not all of R^n (empty list = complete).
    Raises ``ToricError`` unless the fan is valid.

    For a valid fan whose maximal cones are full dimensional, completeness
    is equivalent to every facet of a maximal cone being a facet of
    exactly two maximal cones.  A facet is named by its extreme rays, the
    generators on it that span a ray face of their maximal cone, since two
    maximal cones may list different rays on the same facet.  A fan that
    passes the wall-crossing certificate (``Fan.wall_certified``) is
    complete (see ``validate_fan``).
    """
    require_valid(fan)
    if fan.wall_certified:  # else validate, betti, ring run 2-9% slower
        return []
    reasons = [
        f"maximal cone {c} has dimension {fan.cone(c).dim} < {fan.n}"
        for c in fan.maximal_cones
        if fan.cone(c).dim < fan.n
    ]
    if reasons:
        return reasons
    borders: Counter[RaySet] = Counter()
    for c in fan.maximal_cones:
        cone = fan.cone(c)
        extreme = frozenset(i for i in range(len(c)) if cone.is_face(frozenset([i])))
        borders.update(_face_rayset(c, f & extreme) for f in cone.facets)
    for c, count in sorted(borders.items()):
        if count != 2:
            label = f"cone {c}" if len(c) != 1 else f"ray {c[0]}"
            reasons.append(f"{label} borders {count} maximal cone(s), expected 2")
    return reasons


def is_complete(fan: Fan) -> bool:
    return not incompleteness_reasons(fan)


def require_complete(fan: Fan) -> None:
    """Raise unless the fan is valid and its support is all of R^n."""
    reasons = incompleteness_reasons(fan)
    if reasons:
        raise CompletenessError("fan not complete: " + "; ".join(reasons))


class OrbitEntry(NamedTuple):
    rayset: RaySet
    codim: int
    divisors: RaySet  # rays v with D_v containing the orbit closure


def orbit_table(fan: Fan) -> tuple[OrbitEntry, ...]:
    """One orbit per cone; codimension = cone dimension, which is also the
    rank of X(T_sigma) = X(T)/(sigma^perp intersect X(T)): it is free, as
    sigma^perp intersect X(T) is saturated (presented by
    ``fan.cone(c).stabilizer_characters``)."""
    require_valid(fan)
    return tuple(
        OrbitEntry(rayset=c, codim=fan.cone(c).dim, divisors=c) for c in fan.cones
    )


class SimplicialComplex(NamedTuple):
    num_vertices: int
    simplices: frozenset[frozenset[int]]
    minimal_nonfaces: tuple[RaySet, ...]


def simplicial_complex(fan: Fan) -> SimplicialComplex:
    """Vertices are the rays; a subset is a simplex iff it is the ray set
    of some cone.

    Every facet of a minimal non-face t is a simplex, so t is a simplex s
    plus one vertex v; the zero cone is a simplex, which covers the
    single-vertex non-faces.  So one pass grows every simplex by one
    vertex and keeps the grown sets that are not simplices but whose
    facets all are (t - {v} = s is one of them)."""
    simps = fan.simplices
    k = len(fan.rays)
    nonfaces = set()
    for s in simps:
        for v in range(k):
            if v in s:
                continue
            t = s | {v}
            if t not in simps and all(t - {x} in simps for x in s):
                nonfaces.add(t)
    return SimplicialComplex(
        num_vertices=k,
        simplices=simps,
        minimal_nonfaces=tuple(sorted(tuple(sorted(t)) for t in nonfaces)),
    )


def parse_fan(text: str) -> Fan:
    """Parse the line-oriented fan format.

    Grammar (``#`` starts a comment, blank lines are ignored)::

        rank <n>
        rays <k>
        <k lines of n space-separated integers>
        maxcones <m>
        <m lines of space-separated 0-based ray indices>

    Errors carry 1-based line numbers.  Non-primitive rays are normalized
    with a warning recorded on the returned fan.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            lines.append((lineno, content.split()))
    pos = 0

    def take(expected: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"unexpected end of file, expected '{expected}'")
        lineno, toks = lines[pos]
        pos += 1
        return lineno, toks

    def keyword_count(expected: str) -> int:
        lineno, toks = take(expected)
        if len(toks) != 2 or toks[0] != expected:
            raise ParseError(f"expected '{expected} <count>'", lineno)
        [value] = _integers(toks[1:], f"'{toks[1]}' is not an integer", lineno)
        if value < 0:
            raise ParseError(f"negative count for '{expected}'", lineno)
        return value

    lineno, toks = take("rank")
    if len(toks) != 2 or toks[0] != "rank":
        raise ParseError("expected 'rank <n>'", lineno)
    [n] = _integers(toks[1:], f"'{toks[1]}' is not an integer", lineno)
    if n < 1:
        raise ParseError("rank must be at least 1", lineno)

    k = keyword_count("rays")
    rays: dict[Vector, None] = {}
    warnings: list[str] = []
    for _ in range(k):
        lineno, toks = take("ray coordinates")
        if len(toks) != n:
            raise ParseError(
                f"expected {n} coordinates, got {len(toks)}", lineno
            )
        v = tuple(_integers(toks, "ray coordinates must be integers", lineno))
        if not any(v):
            raise ParseError("zero vector is not a valid ray", lineno)
        p = primitive(v)
        if p != v:
            warnings.append(
                f"line {lineno}: ray {v} is not primitive, normalized to {p}"
            )
        if p in rays:
            raise ParseError(f"duplicate ray {p}", lineno)
        rays[p] = None

    m = keyword_count("maxcones")
    maxcones = []
    for _ in range(m):
        lineno, toks = take("cone ray indices")
        idx = _integers(toks, "ray indices must be integers", lineno)
        if len(set(idx)) != len(idx):
            raise ParseError("duplicate ray index in cone", lineno)
        for i in idx:
            if i < 0 or i >= k:
                raise ParseError(f"ray index {i} out of range", lineno)
        maxcones.append(tuple(sorted(idx)))

    if pos != len(lines):
        raise ParseError("trailing content after maxcones", lines[pos][0])
    return Fan(n, list(rays), maxcones, warnings)


def _integers(tokens: list[str], message: str, lineno: int) -> list[int]:
    """The tokens as integers, or ``ParseError(message)``.  A decimal token
    with more digits than Python converts from a string is refused by a
    message that names the limit (``sys.get_int_max_str_digits()``)."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        limit = sys.get_int_max_str_digits()
        for t in tokens:
            digits = (t[1:] if t[0] in "+-" else t).replace("_", "")
            if digits.isdecimal() and 0 < limit < len(digits):
                message = f"integer has {len(digits)} digits; Python's limit is {limit}"
        raise ParseError(message, lineno)
