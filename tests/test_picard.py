import importlib
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torikit.cone
import torikit.lattice
from torikit import (
    CharacterFamily,
    Fan,
    IncompatibleFamilyError,
    divisor_class,
    equivariant_picard,
    face_monomial_count,
    is_principal,
    parse_fan,
    picard,
)
from torikit.errors import ToricError
from torikit.lattice import kernel_basis, pairing, rank, solve_integer
from torikit.picard import _equivariant_part, _in_limit_coordinates

from conftest import COMPLETE_GOLDEN, SMOOTH_GOLDEN, fans, load_fan

# The package exports the function ``picard`` under the module's name.
picard_module = importlib.import_module("torikit.picard")


def test_picard_ranks():
    expected = {"p2": 1, "p1xp1": 2, "hirzebruch1": 2, "p1": 1}
    for name, want in expected.items():
        rep = picard(load_fan(name))
        assert rep.ordinary_rank == want, name
        assert rep.ordinary_torsion == ()


def test_equivariant_rank_matches_degree_two_monomial_count():
    # H^2_T has one basis class per degree-2 face monomial
    for name in SMOOTH_GOLDEN:
        fan = load_fan(name)
        rep = equivariant_picard(fan)
        assert rep.equivariant_rank == face_monomial_count(fan, 2), name
        assert rep.equivariant_torsion == ()


def test_equivariant_rank_rays_formula():
    # for complete smooth fans: rank Pic = #rays - n, rank Pic_T = #rays
    for name in COMPLETE_GOLDEN:
        fan = load_fan(name)
        rep = picard(fan)
        assert rep.equivariant_rank == len(fan.rays)
        assert rep.ordinary_rank == len(fan.rays) - fan.n


def test_basis_families_are_compatible():
    for name in SMOOTH_GOLDEN:
        fan = load_fan(name)
        for fam in picard(fan).equivariant_basis:
            fam.check_compatible()


def test_divisor_class_signs(p2):
    # D_0 = divisor of ray 0: on a cone containing ray 0 the character
    # pairs to -1 with mu_0 and to 0 with the other rays of the cone
    fam = divisor_class(p2, [1, 0, 0])
    for c, chi in zip(p2.maximal_cones, fam.chars):
        for v in c:
            want = -1 if v == 0 else 0
            assert pairing(chi, p2.rays[v]) == want


def test_divisor_class_additive(p1xp1):
    rng = random.Random(19)
    for _ in range(10):
        a = [rng.randint(-4, 4) for _ in p1xp1.rays]
        b = [rng.randint(-4, 4) for _ in p1xp1.rays]
        fam = divisor_class(p1xp1, [x + y for x, y in zip(a, b)])
        split = divisor_class(p1xp1, a) + divisor_class(p1xp1, b)
        assert fam.same_family(split)


def test_principal_divisors_round_trip():
    rng = random.Random(29)
    for name in COMPLETE_GOLDEN:
        fan = load_fan(name)
        for _ in range(20):
            chi = tuple(rng.randint(-5, 5) for _ in range(fan.n))
            coeffs = [pairing(chi, mu) for mu in fan.rays]
            fam = divisor_class(fan, coeffs)
            back = is_principal(fan, fam)
            assert back is not None
            # div(chi) realizes the constant family -chi, so the divisor
            # of -back induces the original family again
            neg = tuple(-b for b in back)
            fam2 = divisor_class(fan, [pairing(neg, mu) for mu in fan.rays])
            assert fam.same_family(fam2)
            assert back == tuple(-c for c in chi)


def test_non_principal_divisor(p2):
    fam = divisor_class(p2, [1, 0, 0])
    assert is_principal(p2, fam) is None


def test_principal_exactly_the_kernel(p2):
    # a divisor is principal iff its coefficient vector is (chi . mu_v)_v
    # for some character chi; on P^2 that means a_2 = -a_0 - a_1
    assert is_principal(p2, divisor_class(p2, [1, -1, 0])) is not None
    assert is_principal(p2, divisor_class(p2, [1, -1, 1])) is None


def test_incompatible_family_rejected(p2):
    chars = [(0, 0)] * len(p2.maximal_cones)
    chars[0] = (5, 7)
    fam = CharacterFamily(p2, tuple(chars))
    with pytest.raises(IncompatibleFamilyError):
        fam.check_compatible()


def test_family_arithmetic(p1xp1):
    a = divisor_class(p1xp1, [1, 0, 0, 0])
    b = divisor_class(p1xp1, [0, 0, 2, 0])
    s = a + b
    s.check_compatible()
    assert (s - b).same_family(a)
    assert (a - a).same_family(divisor_class(p1xp1, [0, 0, 0, 0]))


def test_picard_affine_plane(affine_plane):
    rep = picard(affine_plane)
    # C^2 has trivial Picard group; equivariantly it is X(T)
    assert rep.ordinary_rank == 0
    assert rep.ordinary_torsion == ()
    assert rep.equivariant_rank == 2


def test_equivariant_picard_is_the_equivariant_part_of_picard():
    for name in SMOOTH_GOLDEN:
        fan = load_fan(name)
        full, eq = picard(fan), equivariant_picard(fan)
        assert eq.equivariant_rank == full.equivariant_rank, name
        assert eq.equivariant_torsion == full.equivariant_torsion, name
        assert eq.equivariant_basis == full.equivariant_basis, name
        assert eq.ordinary_rank is None and eq.ordinary_torsion is None


def test_vector_outside_the_limit_lattice_is_a_toric_error():
    with pytest.raises(ToricError, match="compatibility lattice"):
        _in_limit_coordinates([(2, 0), (0, 1)], [[1, 0]])
    # outside the span, not only outside the lattice
    with pytest.raises(ToricError, match="compatibility lattice"):
        _in_limit_coordinates([(1, 0, 0)], [[0, 1, 0]])


@st.composite
def saturated_bases(draw):
    """A kernel basis of a random integer matrix, and lattice vectors."""
    cols = draw(st.integers(2, 7))
    rows = draw(st.integers(1, cols - 1))
    row = st.lists(st.integers(-6, 6), min_size=cols, max_size=cols)
    basis = kernel_basis(draw(st.lists(row, min_size=rows, max_size=rows)))
    coeff = st.lists(st.integers(-9, 9), min_size=len(basis), max_size=len(basis))
    coeffs = draw(st.lists(coeff, max_size=4))
    vecs = [
        [sum(c * b[i] for c, b in zip(cs, basis)) for i in range(cols)]
        for cs in coeffs
    ]
    return basis, vecs, coeffs


@settings(max_examples=80, deadline=None)
@given(saturated_bases())
def test_batched_coordinates_match_per_vector_solves(case):
    basis, vecs, coeffs = case
    cols = [[b[i] for b in basis] for i in range(len(basis[0]))]
    batched = _in_limit_coordinates(basis, vecs)
    assert batched == [solve_integer(cols, v) for v in vecs]
    assert batched == [tuple(cs) for cs in coeffs]
    assert _in_limit_coordinates(basis, []) == []


SMALL_INCOMPLETE = {
    # full-dimensional maximal cones: sigma^perp is 0, nothing is killed
    "affine plane": (((1, 0), (0, 1)), [(0, 1)]),
    "P^2 minus a cone": (((1, 0), (0, 1), (-1, -1)), [(0, 1), (1, 2)]),
    "(P^1)^2 minus two opposite cones": (
        ((1, 0), (0, 1), (-1, 0), (0, -1)),
        [(0, 1), (2, 3)],
    ),
    "(P^1)^2 minus two adjacent cones": (
        ((1, 0), (0, 1), (-1, 0)),
        [(0, 1), (1, 2)],
    ),
    # lower-dimensional maximal cones: sigma^perp is killed
    "rays of P^2": (((1, 0), (0, 1), (-1, -1)), [(0,), (1,), (2,)]),
    "C x C*": (((1, 0),), [(0,)]),
    "P^1 x C*": (((1, 0), (-1, 0)), [(0,), (1,)]),
}


@pytest.mark.parametrize("name", SMALL_INCOMPLETE)
def test_incomplete_smooth_fans_against_the_ray_oracle(name):
    """On a smooth fan H^2_T is Z^rays and Pic is its quotient by X(T),
    whose image has the rank of the span of the rays (Cox, Little and
    Schenck, Ch. 4); each of these fans has a unimodular ray matrix, so
    there is no torsion."""
    rays, maxcones = SMALL_INCOMPLETE[name]
    fan = Fan.from_maximal_cones(2, rays, maxcones)
    rep = picard(fan)
    assert rep.equivariant_rank == len(rays)
    assert rep.equivariant_torsion == ()
    assert rep.ordinary_rank == len(rays) - rank([list(r) for r in rays])
    assert rep.ordinary_torsion == ()
    killed = _equivariant_part(fan)[1]
    full = all(len(c) == 2 for c in maxcones)
    assert (not killed) == full


SNF_CALLERS = (
    "_limit_lattice",
    "_perp_generators",
    "quotient_by_sublattice",
    "require_smooth",
)


def test_picard_makes_one_elimination_for_its_coordinates(monkeypatch):
    """On a complete fan nothing is killed, so the constant families are
    the only coordinates to find: one echelon, no Smith normal form."""
    fan = parse_fan(fans.iterated_blowup_p2(22).text())
    assert len(fan.maximal_cones) == 25
    snf_callers = Counter()
    echelons = []
    snf, echelon = torikit.lattice.smith_normal_form, picard_module.echelon

    def counting_snf(*args):
        frame, caller = sys._getframe(1), "elsewhere"
        while frame is not None:
            if frame.f_code.co_name in SNF_CALLERS:
                caller = frame.f_code.co_name
                break
            frame = frame.f_back
        snf_callers[caller] += 1
        return snf(*args)

    def counting_echelon(*args):
        echelons.append(args)
        return echelon(*args)

    monkeypatch.setattr(torikit.lattice, "smith_normal_form", counting_snf)
    monkeypatch.setattr(torikit.cone, "smith_normal_form", counting_snf)
    monkeypatch.setattr(picard_module, "echelon", counting_echelon)
    rep = picard(fan)
    assert rep.ordinary_rank == 23
    assert len(echelons) == 1
    assert snf_callers["_limit_lattice"] == 1
    assert snf_callers["_perp_generators"] == 25
    # the equivariant quotient has no generators and needs no SNF
    assert snf_callers["quotient_by_sublattice"] == 1
    assert snf_callers["require_smooth"] > 0
    assert "elsewhere" not in snf_callers
    # the smoothness verdict is kept on the fan
    snf_callers.clear()
    picard(fan)
    assert "require_smooth" not in snf_callers
