import random

import pytest

from torikit import (
    CharacterFamily,
    IncompatibleFamilyError,
    divisor_class,
    equivariant_picard,
    face_monomial_count,
    is_principal,
    picard,
)
from torikit.errors import ToricError
from torikit.lattice import pairing
from torikit.picard import _in_limit_coordinates

from conftest import COMPLETE_GOLDEN, SMOOTH_GOLDEN, load_fan


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
        _in_limit_coordinates([(2, 0), (0, 1)], [1, 0])
