from functools import partial

import pytest
from hypothesis import given, settings

from torikit import (
    CompletenessError,
    SmoothnessError,
    certify_perfection,
    check_restriction_injectivity,
    dual_basis_character,
    equivariant_poincare_series,
    ordinary_cohomology,
    ordinary_poincare_polynomial,
    picard,
    sr_presentation,
    stratify,
)
from torikit.lattice import pairing
from torikit.stratification import PoincareSeries

from conftest import COMPLETE_GOLDEN, SMOOTH_GOLDEN, load_fan, smooth_fans


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def one_minus_t2_pow(k: int) -> list[int]:
    """(1 - t^2)^k as a coefficient list in t."""
    out = [1]
    for _ in range(k):
        out = poly_mul(out, [1, 0, -1])
    return out


def test_poincare_series_geometric():
    # 1/(1-t^2) = 1 + t^2 + t^4 + ...
    s = PoincareSeries((1,), 1)
    assert s.coefficients(8) == [1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_poincare_series_polynomial_case():
    s = PoincareSeries((1, 0, 1), 0)
    assert s.coefficient(0) == 1
    assert s.coefficient(2) == 1
    assert s.coefficient(4) == 0
    assert s.coefficient(3) == 0
    assert s.coefficient(-2) == 0


def test_dual_basis_characters_p2(p2):
    for c in p2.maximal_cones:
        for v in c:
            chi = dual_basis_character(p2, c, v)
            for w in c:
                assert pairing(chi, p2.rays[w]) == (1 if w == v else 0)


SMOOTH_ONLY = {
    "stratify": stratify,
    "sr_presentation": sr_presentation,
    "ordinary_cohomology": partial(ordinary_cohomology, max_degree=4),
    "check_restriction_injectivity": partial(
        check_restriction_injectivity, max_degree=4
    ),
    "equivariant_poincare_series": equivariant_poincare_series,
    "picard": picard,
}


@pytest.mark.parametrize("entry", SMOOTH_ONLY)
def test_entry_points_require_smooth(entry, a1_singular):
    # cone((0,1),(2,-1)) has index 2: its rays are not part of a Z-basis,
    # so there is no integral dual basis to restrict or count with
    with pytest.raises(SmoothnessError, match=r"cone \(0, 1\)"):
        SMOOTH_ONLY[entry](a1_singular)


def test_stratification_order_is_filtered(p2):
    strat = stratify(p2)
    order = strat.order
    # every prefix is closed under faces, so it indexes a subfan
    seen = set()
    for rayset in order:
        for f in p2.cone(rayset).face_generator_sets:
            face = tuple(sorted(rayset[i] for i in f))
            assert face == rayset or face in seen
        seen.add(rayset)


def test_stratum_weight_count(p2):
    strat = stratify(p2)
    for s in strat.strata:
        assert len(s.normal_weights) == len(s.rayset)
        assert s.codim == p2.cone(s.rayset).dim


@settings(max_examples=60, deadline=None)
@given(smooth_fans())
def test_strata_weights_restrict_the_maximal_dual_bases(fan):
    """Each stratum's weights pair to delta_vw with its rays, so they lift
    its cone's dual basis; the strata keep the order of ``fan.cones``, and
    the perfection certificate holds."""
    strat = stratify(fan)
    assert strat.order == fan.cones
    for s in strat.strata:
        k = len(s.rayset)
        assert s.codim == k
        pairings = [[pairing(chi, fan.rays[w]) for w in s.rayset] for chi in s.normal_weights]
        assert pairings == [[int(i == j) for j in range(k)] for i in range(k)], s
    assert certify_perfection(strat).certified


def test_perfection_certified_on_golden_fans():
    for name in SMOOTH_GOLDEN:
        strat = stratify(load_fan(name))
        report = certify_perfection(strat)
        assert report.certified, name
        assert report.failures == []


def test_equivariant_series_p2(p2):
    s = equivariant_poincare_series(p2)
    assert s.denominator_exponent == 2
    assert list(s.numerator) == [1, 0, 1, 0, 1]


def test_equivariant_series_affine_plane(affine_plane):
    s = equivariant_poincare_series(affine_plane)
    # H_T^*(C^2) is a polynomial ring on two degree-2 generators
    assert s.coefficients(8) == [1, 0, 2, 0, 3, 0, 4, 0, 5]


def test_equivariant_series_additivity():
    # the numerator is the sum over strata of t^(2 codim) (1-t^2)^(n-codim)
    for name in SMOOTH_GOLDEN:
        fan = load_fan(name)
        strat = stratify(fan)
        total = [0]
        for s in strat.strata:
            term = [0] * (2 * s.codim) + [1]
            term = poly_mul(term, one_minus_t2_pow(fan.n - s.codim))
            total = [
                a + b
                for a, b in zip(
                    total + [0] * (len(term) - len(total)),
                    term + [0] * (len(total) - len(term)),
                )
            ]
        series = equivariant_poincare_series(fan)
        num = list(series.numerator)
        total = total + [0] * (len(num) - len(total))
        num = num + [0] * (len(total) - len(num))
        assert total == num


def test_ordinary_polynomials():
    expected = {
        "p1": [1, 0, 1],
        "p2": [1, 0, 1, 0, 1],
        "p1xp1": [1, 0, 2, 0, 1],
        "hirzebruch1": [1, 0, 2, 0, 1],
    }
    for name, want in expected.items():
        assert ordinary_poincare_polynomial(load_fan(name)) == want


def test_ordinary_polynomial_palindromic_and_euler():
    for name in COMPLETE_GOLDEN:
        fan = load_fan(name)
        p = ordinary_poincare_polynomial(fan)
        assert p == p[::-1]  # Poincare duality
        # Euler characteristic = number of top-dimensional cones
        assert sum(p) == len(
            [c for c in fan.cones if fan.cone(c).dim == fan.n]
        )


def test_ordinary_polynomial_requires_complete(affine_plane):
    with pytest.raises(CompletenessError):
        ordinary_poincare_polynomial(affine_plane)
