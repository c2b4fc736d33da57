import itertools
import random
import sys
import time
from math import gcd, prod
from operator import le

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torikit.cone
from torikit.cone import (
    MAX_HILBERT_BASIS_SIZE,
    Cone,
    _hilbert_pointed,
    _hilbert_triangulated,
    _parallelepiped,
    double_description,
)
from torikit.errors import PointednessError, ToricError
from torikit.lattice import pairing, primitive, rank

from conftest import POLYGONS, oracles
from test_elimination import box_points, simplicial_cones, sympy_divisors


def brute_force_dual_check(cone, samples):
    """Every sample point of the dual description must pair >= 0 with the
    generators, and vice versa."""
    for chi in cone.facet_normals:
        for g in cone.generators:
            assert pairing(chi, g) >= 0
    for chi in cone.perp:
        for g in cone.generators:
            assert pairing(chi, g) == 0
    for x in samples:
        in_primal = cone.contains(x)
        in_double_dual = all(
            pairing(chi, x) >= 0 for chi in cone.dual_generators
        )
        assert in_primal == in_double_dual


def box(n, radius):
    return list(itertools.product(range(-radius, radius + 1), repeat=n))


def test_zero_cone_has_dimension_zero():
    for n in (1, 2, 3):
        assert Cone([], n).dim == 0


def test_generators_are_deduplicated_in_linear_time():
    assert Cone([(2, 4), (0, 1), (1, 2), (0, 3)], 2).generators == ((1, 2), (0, 1))
    with pytest.raises(ValueError, match="zero vector"):
        Cone([(1, 0), (0, 0), (1,)], 2)
    start = time.perf_counter()
    cone = Cone([(1, i) for i in range(10_000)], 2)
    assert time.perf_counter() - start < 0.5
    assert len(cone.generators) == 10_000


def test_dual_of_quadrant():
    c = Cone([(1, 0), (0, 1)], 2)
    assert sorted(c.facet_normals) == [(0, 1), (1, 0)]
    assert c.perp == ()


def test_dual_of_a1_cone():
    c = Cone([(0, 1), (2, -1)], 2)
    assert sorted(c.facet_normals) == [(1, 0), (1, 2)]


def test_dual_of_ray_has_lineality():
    c = Cone([(1, 0)], 2)
    assert len(c.perp) == 1
    assert c.perp[0][0] == 0


def test_dual_of_halfplane():
    c = Cone([(1, 0), (-1, 0), (0, 1)], 2)
    assert c.facet_normals == ((0, 1),)
    assert c.perp == ()
    assert not c.has_vertex()


def test_duality_is_an_involution():
    rng = random.Random(23)
    pts = box(2, 4)
    for _ in range(25):
        gens = [
            (rng.randint(-4, 4), rng.randint(-4, 4))
            for _ in range(rng.randint(1, 4))
        ]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = Cone(gens, 2)
        brute_force_dual_check(c, pts)


def test_duality_involution_3d():
    rng = random.Random(31)
    pts = box(3, 2)
    for _ in range(10):
        gens = [
            tuple(rng.randint(-3, 3) for _ in range(3))
            for _ in range(rng.randint(1, 4))
        ]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        brute_force_dual_check(Cone(gens, 3), pts)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cutting_a_cone_matches_cutting_the_whole_space(data):
    """Cutting a pointed cone sigma by half-spaces gives the rays of
    cutting R^n by sigma's dual generators and then those half-spaces.  A
    lower-dimensional sigma puts both signs of sigma^perp among the
    processed inequalities."""
    n = data.draw(st.integers(1, 4))
    vectors = st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=n + 1)
    sigma = Cone([g for g in data.draw(vectors) if any(g)], n)
    assume(sigma.has_vertex())
    ineqs = data.draw(vectors)
    rays, lineality = double_description(ineqs, n, within=sigma)
    assert lineality == []
    assert set(rays) == set(double_description(sigma.dual_generators + tuple(ineqs), n)[0])


def frontier_faces(cone):
    """Faces as index sets into the generators, found by intersecting each
    new face with every facet until no new face appears."""
    full = frozenset(range(len(cone.generators)))
    faces, frontier = {full}, {full}
    while frontier:
        frontier = {f & facet for f in frontier for facet in cone.facets} - faces
        faces |= frontier
    return sorted(faces, key=lambda s: (len(s), sorted(s)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_facet_record_matches_the_facet_normals(data):
    """Each facet of ``Cone.facets`` is the set of generators on which its
    normal vanishes, the normals are ``facet_normals`` in order, the faces
    are the frontier search's, and ``is_face`` holds on exactly those sets;
    cones without a vertex included."""
    n = data.draw(st.integers(1, 4))
    gens = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=n + 2))
    cone = Cone([g for g in gens if any(g)], n)
    for facet, a in cone.facets.items():
        assert facet == {i for i, g in enumerate(cone.generators) if pairing(a, g) == 0}
    assert tuple(cone.facets.values()) == cone.facet_normals
    assert cone.face_generator_sets == frontier_faces(cone)
    k = len(cone.generators)
    for size in range(k + 1):
        for indices in map(frozenset, itertools.combinations(range(k), size)):
            assert cone.is_face(indices) == (indices in cone.face_generator_sets)


def test_the_face_listing_is_bounded(monkeypatch):
    """A cone lists at most ``MAX_FACES`` faces: the orthant of Z^16 lists
    its 65 536, and a simplicial cone with more is refused before they are
    listed; a cone over a square lists its 10 faces unless the bound is
    lower."""
    orthant = lambda n: Cone([[int(i == j) for j in range(n)] for i in range(n)], n)
    assert len(orthant(16).face_generator_sets) == 2**16
    start = time.perf_counter()
    with pytest.raises(ToricError, match=r"^a cone on 60 rays has more faces than the 100000 torikit enumerates$"):
        orthant(60).face_generator_sets
    assert time.perf_counter() - start < 1
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    assert len(Cone(square, 3).face_generator_sets) == 10
    monkeypatch.setattr(torikit.cone, "MAX_FACES", 9)
    with pytest.raises(ToricError, match=r"^a cone on 4 rays has more faces than the 9 torikit enumerates$"):
        Cone(square, 3).face_generator_sets


@st.composite
def independent_generators(draw):
    """k linearly independent vectors of Z^n, 2 <= n <= 4 and 1 <= k <= n,
    spanning a parallelepiped of volume at most 20, so that the dual's
    parallelepiped has at most 20^3 points."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=k, max_size=k))
    g = sympy.Matrix(gens)
    assume(0 < (g * g.T).det() <= 20**2)
    return gens, n


@settings(max_examples=80, deadline=None)
@given(independent_generators())
def test_a_face_of_a_simplicial_cone_is_the_cone_on_its_generators(example):
    """A face that reads its dimension and its facet normals off its
    simplicial cone agrees with the cone built afresh on its generators:
    the same facets, with normals equal modulo tau^perp up to a positive
    factor, the same points of a box, and the same Hilbert basis."""
    gens, n = example
    cone = Cone(gens, n)
    points = box(n, 2)
    for indices in cone.face_generator_sets:
        face = cone.face(indices)
        fresh = Cone([cone.generators[i] for i in sorted(indices)], n)
        assert face.generators == fresh.generators
        assert face.dim == fresh.dim == len(indices)
        assert face.facets.keys() == fresh.facets.keys()
        q = fresh.stabilizer_characters
        for facet, a in face.facets.items():
            assert primitive(q.free_part(a)) == primitive(q.free_part(fresh.facets[facet]))
        assert [face.contains(x) for x in points] == [fresh.contains(x) for x in points]
        assert face.hilbert_basis() == fresh.hilbert_basis()


def test_double_description_full_space():
    rays, lineality = double_description([], 2)
    assert list(rays) == []
    assert len(lineality) == 2


def test_extreme_rays_drop_redundant_generators():
    c = Cone([(1, 0), (0, 1), (1, 1)], 2)
    assert sorted(c.extreme_rays) == [(0, 1), (1, 0)]


def test_extreme_rays_need_a_vertex():
    with pytest.raises(PointednessError):
        Cone([(1, 0), (-1, 0), (0, 1)], 2).extreme_rays


def test_faces_of_quadrant():
    c = Cone([(1, 0), (0, 1)], 2)
    sets = [frozenset(s) for s in c.face_generator_sets]
    assert frozenset() in sets
    assert frozenset([0]) in sets
    assert frozenset([1]) in sets
    assert frozenset([0, 1]) in sets
    assert len(sets) == 4


def test_dim_and_vertex():
    assert Cone([(1, 0), (0, 1)], 2).dim == 2
    assert Cone([(1, 1)], 2).dim == 1
    assert Cone([(1, 0), (-1, 0)], 2).dim == 1
    assert Cone([(1, 0), (0, 1)], 2).has_vertex()
    assert not Cone([(1, 0), (-1, 0)], 2).has_vertex()


@pytest.mark.parametrize("gens", [[(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (-1, 0, 0)]])
def test_vertex_verdict_is_ranked_once(monkeypatch, gens):
    cone = Cone(gens, 3)
    first = cone.has_vertex()
    calls = []
    monkeypatch.setattr(torikit.cone, "rank", lambda *a: calls.append(a))
    assert cone.has_vertex() == first
    assert calls == []


def test_vertex_verdict_reads_the_facets(monkeypatch):
    """sigma has a vertex iff its dual spans X(T)_R, that is iff the dual's
    generators have rank n; the verdict is read off the facet sets, with
    no rank once the dual is known."""
    rng = random.Random(0)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        gens = [v for v in box(n, 2) if any(v) and rng.random() < 4 / 5**n]
        cone = Cone(gens, n)
        spans = rank(cone.dual_generators) == n
        with monkeypatch.context() as m:
            m.setattr(torikit.cone, "rank", None)
            assert cone.has_vertex() == spans, gens
        verdicts.add(spans)
    assert verdicts == {True, False}


def test_contains():
    c = Cone([(0, 1), (2, -1)], 2)
    assert c.contains((1, 0))
    assert c.contains((0, 0))
    assert c.contains((2, -1))
    assert not c.contains((-1, 0))
    assert not c.contains((1, -1))


def test_is_smooth():
    assert Cone([(1, 0), (0, 1)], 2).is_smooth()
    assert Cone([(1, 0), (1, 1)], 2).is_smooth()
    assert not Cone([(1, 0), (1, 2)], 2).is_smooth()
    assert not Cone([(0, 1), (2, -1)], 2).is_smooth()
    assert Cone([(1, 1)], 2).is_smooth()
    # the extreme rays of a quadrant, with (1, 1) listed as a third ray
    assert not Cone([(1, 0), (1, 1), (0, 1)], 2).is_smooth()


def test_more_generators_than_dimensions_is_not_smooth_without_a_chart(monkeypatch):
    cone = Cone([(1, i) for i in range(50)], 2)

    def no_chart(m):
        raise AssertionError("a chart was built")

    monkeypatch.setattr(torikit.cone, "smith_normal_form", no_chart)
    assert not cone.is_smooth()


def test_dual_basis():
    for gens in ([(1, 0), (1, 1)], [(2, 1, 0), (1, 1, 1)], [(1, 1)], []):
        cone = Cone(gens, len(gens[0]) if gens else 2)
        duals = cone.dual_basis
        assert [[pairing(chi, g) for g in gens] for chi in duals] == [
            [int(i == j) for j in range(len(gens))] for i in range(len(gens))
        ]
    assert Cone([(1, 0), (1, 2)], 2).dual_basis is None
    assert Cone([(1, 0), (1, 1), (0, 1)], 2).dual_basis is None


def test_hilbert_basis_a1():
    # sigma^v is the A_1 cone spanned by (1,0) and (1,2); the semigroup
    # needs the interior point (1,1) on top of the two rays
    c = Cone([(0, 1), (2, -1)], 2)
    assert sorted(c.hilbert_basis()) == [(1, 0), (1, 1), (1, 2)]


def test_hilbert_basis_quadrant():
    c = Cone([(1, 0), (0, 1)], 2)
    assert sorted(c.hilbert_basis()) == [(0, 1), (1, 0)]


def test_hilbert_basis_cone_over_square():
    # sigma cut out so that sigma^v is the cone over the unit square,
    # whose semigroup is generated at height one
    c = Cone([(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)], 3)
    hb = sorted(c.hilbert_basis())
    assert hb == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]


SQUARE = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]


def test_hilbert_basis_builds_no_cone(monkeypatch):
    cones = [Cone(SQUARE, 3), Cone([(1, 0, 0), (1, 2, 0)], 3), Cone([(1, 1, 2)], 3)]
    built = []
    init = Cone.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Cone, "__init__", counting_init)
    for cone in cones:
        cone.hilbert_basis()
    assert built == []


def test_square_cone_dual_is_triangulated_without_elimination(monkeypatch):
    """The dual of the cone over a square is not simplicial, so its
    triangulation recurses into facets; the facets come from the facet
    normals, not from another double description or rank."""
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            frame, names = sys._getframe(1), set()
            while frame:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            calls.append((name, "_triangulate" in names))
            return fn(*args)

        return wrapper

    cone = Cone(SQUARE, 3)
    for name in ("double_description", "rank"):
        monkeypatch.setattr(torikit.cone, name, counting(name, getattr(torikit.cone, name)))
    hb = sorted(cone.hilbert_basis())
    assert hb == sorted((a, b, 1) for a in (-1, 0, 1) for b in (-1, 0, 1))
    assert sorted(calls) == [("double_description", False)] + [("rank", False)] * 2


def test_hilbert_basis_elements_lie_in_dual():
    c = Cone([(1, 1, 2), (1, -1, 0), (1, 1, -2)], 3)
    for h in c.hilbert_basis():
        assert all(pairing(g, h) >= 0 for g in c.generators)


@pytest.mark.parametrize("first_fails_on", [0, -1], ids=["first-generator", "last-generator"])
@pytest.mark.parametrize(
    "cone",
    [
        Cone([(1, 0), (1, 2)], 2),
        Cone([(1, 0, 0), (1, 2, 0), (0, 1, 3)], 3).face(frozenset({0, 1})),
    ],
    ids=["full-dimensional", "face"],
)
def test_a_lifted_element_outside_the_dual_is_named(cone, first_fails_on, monkeypatch):
    """Two elements outside the image cone are slipped into the image's
    basis, the first failing on one generator only and the second only on
    the other; the error names the lift of the first, in basis order."""
    q = cone.stabilizer_characters
    lifts = q.lift_basis()

    def lift(h):
        return tuple(sum(a * l[i] for a, l in zip(h, lifts)) for i in range(cone.n))

    def failing_only_on(g):
        return next(
            h
            for h in itertools.product(range(-2, 3), repeat=q.rank)
            if [pairing(lift(h), x) < 0 for x in cone.generators] == [x == g for x in cone.generators]
        )

    first_bad = failing_only_on(cone.generators[first_fails_on])
    second_bad = failing_only_on(cone.generators[-1 - first_fails_on])
    pointed = torikit.cone._hilbert_pointed

    def with_bad_elements(*args):
        basis = pointed(*args)
        return basis[:1] + [first_bad] + basis[1:] + [second_bad]

    monkeypatch.setattr(torikit.cone, "_hilbert_pointed", with_bad_elements)
    with pytest.raises(ToricError) as err:
        cone.hilbert_basis()
    assert str(err.value) == f"lifted Hilbert basis element {lift(first_bad)} is not in the dual cone"


def test_hilbert_basis_requires_vertex():
    with pytest.raises(PointednessError):
        Cone([(1, 0), (-1, 0)], 2).hilbert_basis()


def test_hilbert_basis_lower_dimensional_cone():
    # sigma a single ray: sigma^v is a half plane and the semigroup needs
    # both signs of the orthogonal direction
    hb = Cone([(1, 0)], 2).hilbert_basis()
    assert set(hb) == {(1, 0), (0, 1), (0, -1)}


def hilbert_oracle_check(cone, radius):
    """Soundness, bounded completeness and minimality against brute force."""
    hb = cone.hilbert_basis()

    def in_dual(x):
        return all(pairing(g, x) >= 0 for g in cone.generators)

    members = [x for x in box(cone.n, radius) if any(x) and in_dual(x)]
    # soundness
    for h in hb:
        assert in_dual(h)
    # bounded completeness: every dual lattice point in the box is an
    # N-combination of basis elements
    for x in members:
        assert decompose(cone, x, hb), f"{x} is not an N-combination of the basis"
    # minimality: no basis element is an N-combination of the others
    for i, h in enumerate(hb):
        others = hb[:i] + hb[i + 1 :]
        assert not decompose(cone, h, others), f"{h} is redundant"


def decompose(cone, target, pool):
    """Does target lie in the N-span of pool inside sigma^v?

    Partial remainders of a valid decomposition stay inside sigma^v, and
    the functional lam = sum of the cone generators is strictly positive
    on its nonzero points when sigma is full dimensional, so it drops at
    every step and the memoized search is exact and finite.
    """
    lam = tuple(sum(col) for col in zip(*cone.generators))

    def in_dual(x):
        return all(pairing(g, x) >= 0 for g in cone.generators)

    seen = set()

    def rec(t):
        if not any(t):
            return True
        if t in seen:
            return False
        seen.add(t)
        for g in pool:
            if not any(g):
                continue
            r = tuple(a - b for a, b in zip(t, g))
            if in_dual(r) and pairing(lam, r) < pairing(lam, t) and rec(r):
                return True
        return False

    return rec(tuple(target))


def random_full_dim_pointed_cone(rng, n):
    while True:
        gens = [
            tuple(rng.randint(-5, 5) for _ in range(n))
            for _ in range(rng.randint(n, n + 2))
        ]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = Cone(gens, n)
        if c.has_vertex() and c.dim == n:
            return c


def test_hilbert_basis_random_oracle():
    rng = random.Random(41)
    for i in range(6):
        hilbert_oracle_check(random_full_dim_pointed_cone(rng, 2), radius=6)
    for i in range(4):
        hilbert_oracle_check(random_full_dim_pointed_cone(rng, 3), radius=4)
    # duals with 4 and 5 rays are not simplicial, so they are triangulated
    for rays in (4, 4, 4, 5, 5):
        cone = random_full_dim_pointed_cone(rng, 3)
        while len(cone.extreme_rays) != rays:
            cone = random_full_dim_pointed_cone(rng, 3)
        hilbert_oracle_check(cone, radius=4)


def cone_with_extreme_rays(rng, n, count):
    """A pointed full-dimensional cone in Z^n with ``count`` extreme rays, on
    rays (x, h) with entries of x in [-2, 2] and h in {1, 2}, drawn until
    every ray is extreme."""
    while True:
        gens = {
            primitive(tuple(rng.randint(-2, 2) for _ in range(n - 1)) + (rng.randint(1, 2),))
            for _ in range(count)
        }
        cone = Cone(sorted(gens), n)
        if len(cone.extreme_rays) == count and cone.dim == n:
            return cone


@pytest.mark.parametrize(
    "n, facets",
    [(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (4, 7)],
    ids=["rank3-4-facets", "rank3-5-facets", "rank3-6-facets", "rank4-5-facets", "rank4-6-facets", "rank4-7-facets"],
)
def test_non_simplicial_duals_match_the_oracle(n, facets):
    """A dual with more facets than its rank is triangulated; its candidates'
    values on the facet normals have 4 or 5 entries (the nested staircases)
    or more (the scan)."""
    rng = random.Random(100 * n + facets)
    for _ in range(4):
        cone = cone_with_extreme_rays(rng, n, facets)
        assert len(cone.facet_normals) > n
        hilbert_oracle_check(cone, radius=4 if n == 3 else 3)


@st.composite
def primitive_2d_cones(draw, entry, max_det):
    """Two primitive rays u, v of a 2-D cone with 0 < |det(u, v)| <= max_det,
    and the cone's inward facet normals.  Each ray is a nonzero vector
    divided by the gcd of its entries, so that little but a zero vector or
    a det out of range is filtered out."""
    coords = st.integers(-entry, entry)
    rays = st.tuples(coords, coords).filter(any).map(primitive)
    u, v = draw(rays), draw(rays)
    det = u[0] * v[1] - u[1] * v[0]
    assume(0 < abs(det) <= max_det)
    sign = 1 if det > 0 else -1
    normals = [primitive((-sign * u[1], sign * u[0])), primitive((sign * v[1], -sign * v[0]))]
    return [u, v], normals


def enumerated_hilbert_basis(gens, normals):
    """The generators and the parallelepiped's points, found by scanning its
    bounding box, less those that an accepted smaller candidate reduces."""
    candidates = set(gens) | box_points(gens)
    ell = tuple(map(sum, zip(*normals)))
    basis, accepted = [], []
    for x in sorted(candidates, key=lambda x: (pairing(ell, x), x)):
        values = [pairing(x, nu) for nu in normals]
        if not any(all(map(le, y, values)) for y in accepted):
            basis.append(x)
            accepted.append(values)
    return sorted(basis)


@settings(max_examples=80, deadline=None)
@given(primitive_2d_cones(entry=12, max_det=150))
def test_the_2d_walk_matches_the_box_oracle(cone):
    # the cone walked is the dual of the cone on its facet normals
    gens, normals = cone
    assert _hilbert_pointed(gens, normals, 2) == oracles.hilbert_box(normals)


@settings(max_examples=80, deadline=None)
@given(primitive_2d_cones(entry=100, max_det=10_000))
def test_the_2d_walk_matches_the_enumeration(cone):
    gens, normals = cone
    assert _hilbert_pointed(gens, normals, 2) == enumerated_hilbert_basis(gens, normals)


def test_the_2d_walk_bounds_the_basis_size():
    # the cone on (0, 1) and (k, 1) has the k + 1 basis elements (i, 1)
    k = MAX_HILBERT_BASIS_SIZE - 1
    basis = _hilbert_pointed([(0, 1), (k, 1)], [(1, 0), (-1, k)], 2)
    assert basis == [(i, 1) for i in range(k + 1)]
    k += 1
    with pytest.raises(ToricError, match=f"more elements than the {MAX_HILBERT_BASIS_SIZE} "):
        _hilbert_pointed([(0, 1), (k, 1)], [(1, 0), (-1, k)], 2)


@st.composite
def simplicial_duals(draw):
    """The extreme rays of a simplicial cone in dimension 3 or 4 whose
    parallelepiped group has at least two invariant factors above 1.

    The rays are the columns of U D T with D = diag(1, p, p q, ...), p >= 2,
    T unit upper triangular with a first row of ones, so that each column
    of D T starts with 1 and is primitive, and U a product of elementary
    row operations; they are then signed and shuffled.
    """
    d = draw(st.integers(3, 4))
    p = draw(st.integers(2, 4 if d == 3 else 3))
    diag = [1, p]
    for _ in range(d - 2):
        diag.append(diag[-1] * draw(st.integers(1, 2)))
    assume(prod(diag) <= 64)
    t = [[1] * d] + [
        [int(i == j) or (draw(st.integers(-2, 2)) if j > i else 0) for j in range(d)]
        for i in range(1, d)
    ]
    m = [[diag[i] * x for x in row] for i, row in enumerate(t)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(d)))[:2]
        k = draw(st.sampled_from([-1, 1]))
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    signs = [draw(st.sampled_from([-1, 1])) for _ in range(d)]
    gens = [tuple(signs[j] * row[j] for row in m) for j in draw(st.permutations(range(d)))]
    return gens


def check_simplicial_dual(gens):
    """The basis of the cone on ``gens`` against the box oracle, which is
    given the facet normals, and against the triangulated path."""
    d = len(gens)
    normals = [tuple(u) for u in oracles._dual_generators(gens)]
    basis = _hilbert_pointed(gens, normals, d)
    assert basis == oracles.hilbert_box(normals)
    assert _hilbert_triangulated(gens, normals) == basis


@settings(max_examples=60, deadline=None)
@given(simplicial_duals())
def test_simplicial_duals_with_non_cyclic_groups_match_the_box_oracle(gens):
    g = [[c[i] for c in gens] for i in range(len(gens))]
    assert sum(x > 1 for x in sympy_divisors(g)) >= 2
    check_simplicial_dual(gens)


@settings(max_examples=60, deadline=None)
@given(simplicial_cones().filter(lambda cols: len(cols) > 2 and all(gcd(*c) == 1 for c in cols)))
def test_random_simplicial_duals_match_the_box_oracle(gens):
    check_simplicial_dual(gens)


def test_a_simplicial_dual_is_neither_triangulated_nor_paired(monkeypatch):
    """The basis of a simplicial cone comes from its parallelepiped
    coordinates alone; the dual of the cone over a square, which is not
    simplicial, still takes both."""
    # the dual of the cone on e1, e2 and (-3, -5, -31), with 31^2 box points
    gens = [(31, 0, -3), (0, 31, -5), (0, 0, -1)]
    normals = [tuple(u) for u in oracles._dual_generators(gens)]
    square = Cone(SQUARE, 3)
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name in ("_triangulate", "pairing"):
        monkeypatch.setattr(torikit.cone, name, counting(name, getattr(torikit.cone, name)))
    basis = _hilbert_pointed(gens, normals, 3)
    assert calls == []
    assert basis == oracles.hilbert_box(normals)
    _hilbert_pointed(list(square.facet_normals), list(square.extreme_rays), 3)
    assert {"_triangulate", "pairing"} <= set(calls)


def sum_ordered_basis(gens):
    """The reduction that the staircase sweep replaced, as a reference: every
    box point in increasing order of sum(t), compared with every accepted t,
    and x = G t / e built for the accepted ones."""
    t_cols, e = _parallelepiped(gens)
    accepted = []
    for t in sorted(list(zip(*t_cols))[1:], key=sum):
        if not any(all(map(le, y, t)) for y in accepted):
            accepted.append(t)
    rows = list(zip(*gens))
    return sorted(
        list(gens) + [tuple(pairing(row, t) // e for row in rows) for t in accepted]
    )


@st.composite
def sweep_duals(draw):
    """The extreme rays of a simplicial cone in dimension 3 or 4, shaped for
    the sweep's cases.

    A block B of size k <= d is one of: the thin cone on (1, 0), (1, N),
    whose N - 1 box points are all irreducible; a block with a non-cyclic
    group (columns of D T as in ``simplicial_duals``), so that box points
    tie in every coordinate; or random entries.  The rays are B's columns
    padded with 0 and the unit vectors e_{k+1}, ..., e_d, whose t-columns
    are identically 0 on the box.  A unimodular change of coordinates,
    signs and a shuffle follow; the first keeps the t-columns.
    """
    d = draw(st.integers(3, 4))
    kind = draw(st.sampled_from(["thin", "non-cyclic", "random"]))
    if kind == "thin":
        k = 2
        block = [(1, 0), (1, draw(st.integers(2, 25)))]
    elif kind == "non-cyclic":
        k = draw(st.integers(3, d))
        p = draw(st.integers(2, 3))
        diag = [1, p] + [p * draw(st.integers(1, 2)) for _ in range(k - 2)]
        t = [[1] * k] + [
            [int(i == j) or (draw(st.integers(-2, 2)) if j > i else 0) for j in range(k)]
            for i in range(1, k)
        ]
        block = [tuple(diag[i] * t[i][j] for i in range(k)) for j in range(k)]
    else:
        k = draw(st.integers(2, d))
        block = [tuple(draw(st.integers(-4, 4)) for _ in range(k)) for _ in range(k)]
        assume(all(gcd(*c) == 1 for c in block))
        det = sympy.Matrix([list(c) for c in block]).det()
        assume(0 < abs(det) <= 60)
    gens = [c + (0,) * (d - k) for c in block]
    gens += [tuple(int(i == j) for i in range(d)) for j in range(k, d)]
    return scrambled(draw, gens)


def transformed(draw, gens):
    """``gens`` after a drawn unimodular change of coordinates: up to two
    row operations on the matrix whose columns they are."""
    n = len(gens[0])
    m = [list(row) for row in zip(*gens)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.permutations(range(n)))[:2]
        s = draw(st.sampled_from([-1, 1]))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    return list(zip(*m))


def scrambled(draw, gens):
    """``gens`` ``transformed``, then signed and shuffled; the change of
    coordinates keeps the t-columns."""
    d = len(gens)
    gens = transformed(draw, gens)
    signs = [draw(st.sampled_from([-1, 1])) for _ in range(d)]
    order = draw(st.permutations(range(d)))
    return [tuple(signs[j] * x for x in gens[j]) for j in order]


@settings(max_examples=150, deadline=None)
@given(sweep_duals())
def test_the_sweep_matches_the_sum_ordered_scan_and_the_box_oracle(gens):
    d = len(gens)
    normals = [tuple(u) for u in oracles._dual_generators(gens)]
    basis = _hilbert_pointed(gens, normals, d)
    assert basis == sum_ordered_basis(gens)
    assert basis == oracles.hilbert_box(normals)


@st.composite
def wide_duals(draw):
    """The extreme rays of a simplicial cone whose box points have four or
    more nonzero t-columns, on both sides of ``MAX_NESTED_COLUMNS``: the
    facet normals of the cone on (0, -1, N, 0), (0, 1, 0, 0), (0, 1, 0, N)
    and (N, -1, 0, 0), whose N box points but 0 are all irreducible; random
    entries in dimension 4 or 5; e_1, ..., e_(d-1) and (a_1, ..., a_(d-1), N)
    with 0 < a_i < N in dimension 4 to 7, a cyclic box of N points that are
    all irreducible when every a_i is 1 (the dual of the cone on N e_i - e_d
    and e_d); or, in dimension 7, (1, ..., 1), 2 e_2, ..., 2 e_7, whose 64
    box points tie in every coordinate and have six nonzero t-columns.  All
    but the random ones are then ``scrambled``."""
    kind = draw(st.sampled_from(["normals", "random", "cyclic", "ties"]))
    if kind == "normals":
        n = draw(st.integers(2, 60))
        rays = [(0, -1, n, 0), (0, 1, 0, 0), (0, 1, 0, n), (n, -1, 0, 0)]
        gens = scrambled(draw, [tuple(u) for u in oracles._dual_generators(rays)])
    elif kind == "random":
        d = draw(st.integers(4, 5))
        gens = [tuple(draw(st.integers(-3, 3)) for _ in range(d)) for _ in range(d)]
        assume(all(gcd(*c) == 1 for c in gens))
        assume(0 < abs(sympy.Matrix([list(c) for c in gens]).det()) <= 80)
    elif kind == "cyclic":
        d = draw(st.integers(4, 7))
        n = draw(st.integers(2, 40))
        ones = draw(st.booleans())
        last = tuple(1 if ones else draw(st.integers(1, n - 1)) for _ in range(d - 1)) + (n,)
        assume(gcd(*last) == 1)
        gens = scrambled(draw, [tuple(int(i == j) for i in range(d)) for j in range(d - 1)] + [last])
    else:
        gens = scrambled(draw, [(1,) * 7] + [tuple(2 * (i == j) for i in range(7)) for j in range(1, 7)])
    assume(sum(map(any, _parallelepiped(gens)[0])) >= 4)
    return gens


@settings(max_examples=120, deadline=None)
@given(wide_duals())
def test_wide_boxes_match_the_sum_ordered_scan(gens):
    d = len(gens)
    normals = [tuple(u) for u in oracles._dual_generators(gens)]
    basis = _hilbert_pointed(gens, normals, d)
    assert basis == sum_ordered_basis(gens)
    if d == 4:
        assert basis == oracles.hilbert_box(normals)


@pytest.mark.parametrize(
    "gens, zero_columns",
    [
        # the product of the thin 2-D cone and a ray: one column is 0
        ([(1, 0, 0), (1, 7, 0), (0, 0, 1)], 1),
        # the same with two unit rays, in dimension 4: two columns are 0
        ([(1, 0, 0, 0), (1, 7, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 2),
        # Z/3 x Z/3 times a ray: the last column is 0, three points on
        # each value of t_1
        ([(1, 0, 0, 0), (1, 3, 0, 0), (1, 0, 3, 0), (0, 0, 0, 1)], 1),
        # Z/2 x Z/2 x Z/2 again, with four nonzero columns: the nested
        # staircases
        ([(1, 0, 0, 0), (1, 2, 0, 0), (1, 0, 2, 0), (1, 0, 0, 2)], 0),
        # Z/3 x Z/3: three nonzero columns, three points on each t_1
        ([(1, 0, 0), (1, 3, 0), (1, 0, 3)], 0),
        # the same group on a cone where a step of the staircase has a
        # later point's t_2, and a later point is below a step
        ([(1, 0, 0), (-1, -3, 0), (-1, 0, -3)], 0),
    ],
    ids=["one-zero-column", "two-zero-columns", "Z3^2-times-a-ray", "Z2^3-nested", "Z3^2", "Z3^2-signed"],
)
def test_the_sweep_on_zero_columns_and_ties(gens, zero_columns):
    t_cols, _ = _parallelepiped(gens)
    assert sum(not any(col) for col in t_cols) == zero_columns
    normals = [tuple(u) for u in oracles._dual_generators(gens)]
    basis = _hilbert_pointed(gens, normals, len(gens))
    assert basis == sum_ordered_basis(gens) == oracles.hilbert_box(normals)


def sum_ordered_triangulated_basis(gens, normals):
    """The reduction of a non-simplicial dual that ``_minimal`` replaced, as
    a reference: the generators and the points of the triangulation's
    parallelepipeds in increasing order of the sum of their values on
    ``normals``, each compared with every accepted one."""
    candidates = set(gens)
    for simplex in torikit.cone._triangulate(gens, normals):
        candidates.update(torikit.cone._box_points(simplex, *_parallelepiped(simplex)))
    candidates.discard((0,) * len(gens[0]))
    values = {x: [pairing(x, nu) for nu in normals] for x in candidates}
    basis, accepted = [], []
    for x in sorted(candidates, key=lambda x: (sum(values[x]), x)):
        if not any(all(map(le, y, values[x])) for y in accepted):
            basis.append(x)
            accepted.append(values[x])
    return sorted(basis)


@st.composite
def large_non_simplicial_cones(draw):
    """A pointed full-dimensional cone whose dual is not simplicial and has
    many candidates: the cone over a square, a pentagon or a hexagon at
    height N <= 12, whose dual has 4, 5 or 6 facets and 3 N^2 to 4 N^2
    irreducible points, or the cone on 5 to 8 random rays (x, h) in rank 4,
    with entries of x in [-2, 2] and h in {1, 2}, whose dual's
    triangulation has at most 20 000 candidates.  A unimodular change of
    coordinates follows."""
    kind = draw(st.sampled_from(sorted(POLYGONS) + ["random"]))
    if kind == "random":
        coords = st.integers(-2, 2)
        rays = [
            (draw(coords), draw(coords), draw(coords), draw(st.integers(1, 2)))
            for _ in range(draw(st.integers(5, 8)))
        ]
    else:
        height = draw(st.integers(1, 12))
        rays = [v + (height,) for v in POLYGONS[kind]]
    cone = Cone(transformed(draw, rays), len(rays[0]))
    assume(cone.dim == cone.n and len(cone.extreme_rays) > cone.n)
    simplices = torikit.cone._triangulate(list(cone.facet_normals), list(cone.extreme_rays))
    assume(sum(abs(sympy.Matrix(s).det()) for s in simplices) <= 20_000)
    return cone


@settings(max_examples=60, deadline=None)
@given(large_non_simplicial_cones())
def test_non_simplicial_duals_match_the_sum_ordered_scan(cone):
    gens, normals = list(cone.facet_normals), list(cone.extreme_rays)
    basis = _hilbert_pointed(gens, normals, cone.n)
    assert basis == sum_ordered_triangulated_basis(gens, normals)


def test_the_scan_refuses_past_its_comparison_bound(monkeypatch):
    """m points of six entries, none below another, then m points above the
    first of them: the scan compares the j-th of the first m with the j - 1
    accepted before it, and each later point with the first one only."""
    m = 40
    antichain = [(j, m - 1 - j, 0, 0, 0, 0) for j in range(m)]
    points = antichain + [(m, m - 1, j, 0, 0, 0) for j in range(m)]
    comparisons = m * (m - 1) // 2 + m
    monkeypatch.setattr(torikit.cone, "MAX_SCAN_COMPARISONS", comparisons)
    assert torikit.cone._minimal(points, m + 1) == antichain
    monkeypatch.setattr(torikit.cone, "MAX_SCAN_COMPARISONS", comparisons - 1)
    with pytest.raises(ToricError, match=f"more than the {comparisons - 1} comparisons"):
        torikit.cone._minimal(points, m + 1)
