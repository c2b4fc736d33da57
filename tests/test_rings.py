import random
import sys
from collections import Counter
from functools import partial

import pytest
import sympy

from torikit import (
    CompletenessError,
    Fan,
    char_to_linear_form,
    check_restriction_injectivity,
    dual_basis_character,
    equivariant_poincare_series,
    face_monomial_count,
    face_monomials,
    ordinary_cohomology,
    parse_fan,
    restriction_map,
    sr_monomial,
    sr_one,
    sr_presentation,
    sr_variable,
    sr_zero,
    stratify,
)
from torikit.lattice import (
    diagonal_of,
    invert_unimodular,
    mat_vec,
    rank,
    smith_normal_form,
)
from torikit.rings import GradedPiece, InjectivityEntry, _mv_mul

from conftest import COMPLETE_GOLDEN, SMOOTH_GOLDEN, fans, load_fan, transpose


def test_presentation_p2(p2):
    pres = sr_presentation(p2)
    assert pres.num_generators == 3
    assert pres.relations == ((0, 1, 2),)


def test_presentation_p1xp1(p1xp1):
    pres = sr_presentation(p1xp1)
    assert pres.relations == ((0, 1), (2, 3))


def test_sr_relations_hold(p2, p1xp1):
    x0, x1, x2 = (sr_variable(p2, v) for v in range(3))
    assert (x0 * x1 * x2).is_zero
    assert not (x0 * x1).is_zero
    y = [sr_variable(p1xp1, v) for v in range(4)]
    assert (y[0] * y[1]).is_zero
    assert (y[2] * y[3]).is_zero
    assert not (y[0] * y[2]).is_zero


def test_ring_arithmetic(p2):
    x0, x1, x2 = (sr_variable(p2, v) for v in range(3))
    one = sr_one(p2)
    zero = sr_zero(p2)
    assert x0 + zero == x0
    assert x0 - x0 == zero
    assert one * x1 == x1
    assert 3 * x0 + 2 * x0 == 5 * x0
    assert x0 * x1 == x1 * x0
    assert (x0 + x1) * x2 == x0 * x2 + x1 * x2
    assert (x0 * x1) * x2 == x0 * (x1 * x2)  # both sides zero here


def test_ring_multiplication_random_associativity(p1xp1):
    rng = random.Random(9)
    vars_ = [sr_variable(p1xp1, v) for v in range(4)]

    def rand_elt():
        out = sr_zero(p1xp1)
        for _ in range(rng.randint(1, 3)):
            term = sr_one(p1xp1)
            for _ in range(rng.randint(0, 2)):
                term = term * vars_[rng.randrange(4)]
            out = out + rng.randint(-3, 3) * term
        return out

    for _ in range(20):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_face_monomials_match_series():
    # the face monomials of degree 2k form a basis of H_T^2k
    for name in SMOOTH_GOLDEN:
        fan = load_fan(name)
        series = equivariant_poincare_series(fan)
        for deg in range(0, 21, 2):
            monos = face_monomials(fan, deg)
            assert len(monos) == face_monomial_count(fan, deg)
            assert len(monos) == series.coefficient(deg), (name, deg)


def test_face_monomials_are_faces(p2):
    for expo in face_monomials(p2, 6):
        support = tuple(v for v, e in enumerate(expo) if e)
        assert support in p2.cones
        assert sum(expo) == 3


def test_char_to_linear_form(p2):
    chi = (2, -1)
    elt = char_to_linear_form(p2, chi)
    # sum over rays of <chi, mu_v> x_v
    want = 2 * sr_variable(p2, 0) + (-1) * sr_variable(p2, 1) + (-1) * sr_variable(p2, 2)
    assert elt == want


def test_ordinary_cohomology_p2(p2):
    pieces = ordinary_cohomology(p2, 6)
    assert [p.rank for p in pieces] == [1, 1, 1, 0]
    for piece in pieces:
        assert piece.torsion == ()


def test_ordinary_cohomology_matches_poincare():
    from torikit import ordinary_poincare_polynomial

    for name in COMPLETE_GOLDEN:
        fan = load_fan(name)
        poly = ordinary_poincare_polynomial(fan)
        for piece in ordinary_cohomology(fan, 2 * fan.n):
            want = poly[piece.degree] if piece.degree < len(poly) else 0
            assert piece.rank == want, (name, piece.degree)
            assert piece.torsion == ()


def test_ordinary_cohomology_requires_complete(affine_plane):
    with pytest.raises(CompletenessError):
        ordinary_cohomology(affine_plane, 4)


def test_ordinary_cohomology_basis_independence(p1xp1, hirzebruch1):
    # ranks are intrinsic: recompute after a unimodular change of basis
    rng = random.Random(13)
    for fan in (p1xp1, hirzebruch1):
        u = [[1, 0], [0, 1]]
        for _ in range(3):
            a = rng.randint(-2, 2)
            u = [[u[0][0] + a * u[1][0], u[0][1] + a * u[1][1]], u[1]]
            u = [u[1], u[0]]
        invert_unimodular(u)  # sanity: unimodular
        moved = Fan(
            fan.n,
            [mat_vec(u, r) for r in fan.rays],
            fan.maximal_cones,
        )
        a = [p.rank for p in ordinary_cohomology(fan, 2 * fan.n)]
        b = [p.rank for p in ordinary_cohomology(moved, 2 * fan.n)]
        assert a == b


def test_restriction_of_variable(p2):
    # on sigma = cone(mu_0, mu_1), x_0 restricts to the dual basis
    # character of ray 0, expressed in X(T_sigma) coordinates; on a cone
    # not containing ray 0 it restricts to 0
    poly = restriction_map(p2, sr_variable(p2, 0), (1, 2))
    assert poly == {}
    poly = restriction_map(p2, sr_variable(p2, 0), (0, 1))
    assert poly  # nonzero linear polynomial


def test_restriction_is_multiplicative(p2):
    for c in p2.maximal_cones:
        rank = p2.stabilizer_characters(c).rank
        xs = [sr_variable(p2, v) for v in c]
        prod_elt = sr_one(p2)
        prod_poly = {(0,) * rank: 1}
        for x in xs:
            prod_elt = prod_elt * x
            prod_poly = _mv_mul(prod_poly, restriction_map(p2, x, c))
        assert restriction_map(p2, prod_elt, c) == prod_poly


def test_restriction_is_additive(p1xp1):
    a = sr_variable(p1xp1, 0) + 2 * sr_variable(p1xp1, 2)
    b = sr_variable(p1xp1, 1) - sr_variable(p1xp1, 3)
    for c in p1xp1.maximal_cones:
        ra = restriction_map(p1xp1, a, c)
        rb = restriction_map(p1xp1, b, c)
        rsum = dict(ra)
        for k, v in rb.items():
            rsum[k] = rsum.get(k, 0) + v
            if rsum[k] == 0:
                del rsum[k]
        assert restriction_map(p1xp1, a + b, c) == rsum


def test_restriction_kills_off_support_monomials(p2):
    # compatibility with the stratification: a face monomial restricts to
    # zero on every cone that does not contain its support
    strat = stratify(p2)
    for expo in face_monomials(p2, 4):
        support = frozenset(v for v, e in enumerate(expo) if e)
        for rayset in strat.order:
            if not support <= set(rayset):
                elt = sr_monomial(p2, expo)
                assert restriction_map(p2, elt, rayset) == {}


def test_restriction_unknown_cone(p2):
    with pytest.raises(KeyError):
        restriction_map(p2, sr_one(p2), (0, 1, 2))


def test_dual_basis_character_of_a_ray_off_the_cone(p2):
    with pytest.raises(KeyError, match=r"ray 2 not in cone \(0, 1\)"):
        dual_basis_character(p2, (0, 1), 2)


def test_euler_monomial_is_product_of_weights(p2, p1xp1):
    # the class of the top monomial of sigma restricts on sigma to the
    # product of the normal weights chi_v
    for fan in (p2, p1xp1):
        for c in fan.maximal_cones:
            top = sr_one(fan)
            for v in c:
                top = top * sr_variable(fan, v)
            got = restriction_map(fan, top, c)
            pres = fan.stabilizer_characters(c)
            want = {(0,) * pres.rank: 1}
            for v in c:
                chi = dual_basis_character(fan, c, v)
                free = pres.free_part(chi)
                lin = {}
                for i, a in enumerate(free):
                    if a:
                        key = tuple(
                            1 if j == i else 0 for j in range(len(free))
                        )
                        lin[key] = a
                want = _mv_mul(want, lin)
            assert got == want


def test_injectivity_on_golden_fans():
    for name in SMOOTH_GOLDEN:
        fan = load_fan(name)
        entries = check_restriction_injectivity(fan, 10)
        assert all(e.injective for e in entries), name
        for e in entries:
            assert e.domain_rank == e.image_rank
            assert e.degree % 2 == 0


def reference_injectivity(fan, max_degree):
    """The total restriction as a matrix, kept as an oracle: one column per
    face monomial, one row per (cone, monomial of Sym X(T_sigma)) in the
    SNF coordinates of ``restriction_map``, and its exact rank."""
    entries = []
    for degree in range(0, max_degree + 1, 2):
        monos = face_monomials(fan, degree)
        row_index = {}
        columns = [dict() for _ in monos]
        for c in fan.cones:
            for j, m in enumerate(monos):
                poly = restriction_map(fan, sr_monomial(fan, m), c)
                for e, coeff in poly.items():
                    columns[j][row_index.setdefault((c, e), len(row_index))] = coeff
        matrix = [[0] * len(monos) for _ in row_index]
        for j, col in enumerate(columns):
            for i, coeff in col.items():
                matrix[i][j] = coeff
        entries.append(
            InjectivityEntry(
                degree=degree, domain_rank=len(monos), image_rank=rank(matrix)
            )
        )
    return tuple(entries)


def relabelled(data, seed):
    return parse_fan(fans.relabel(data, random.Random(seed)).text())


INJECTIVITY_CASES = {name: (partial(load_fan, name), 10) for name in SMOOTH_GOLDEN}
for data in (
    fans.projective_space(2),
    fans.projective_space(3),
    fans.p1_power(3),
    *(fans.hirzebruch(a) for a in range(4)),
    fans.blow_up_points(fans.projective_space(3), 2),
    fans.iterated_blowup_p2(19),
):
    for seed in range(2):
        INJECTIVITY_CASES[f"{data.name} #{seed}"] = (partial(relabelled, data, seed), 8)


@pytest.mark.parametrize("name", INJECTIVITY_CASES)
def test_injectivity_count_agrees_with_the_restriction_matrix(name):
    load, max_degree = INJECTIVITY_CASES[name]
    fan = load()
    entries = check_restriction_injectivity(fan, max_degree)
    assert entries == reference_injectivity(fan, max_degree)
    assert all(e.injective for e in entries)


ELIMINATIONS = ("restriction_map", "rank", "smith_normal_form")


def test_injectivity_builds_no_restriction_matrix(monkeypatch):
    """On P^3 at degree 10 the entries are a count of face monomials: no
    restriction map, no elimination outside the smoothness check, and no
    Smith normal form but the chart of each maximal cone."""
    fan = parse_fan(fans.projective_space(3).text())
    calls = Counter()

    def counting(name, fn, *args, **kwargs):
        frame, caller = sys._getframe(1), "elsewhere"
        while frame is not None:
            if frame.f_code.co_name == "require_smooth":
                caller = "require_smooth"
                break
            frame = frame.f_back
        calls[name, caller] += 1
        return fn(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("torikit."):
            for name in ELIMINATIONS:
                fn = vars(module).get(name)
                if fn is not None:
                    monkeypatch.setattr(module, name, partial(counting, name, fn))
    entries = check_restriction_injectivity(fan, 10)
    assert [e.image_rank for e in entries] == [
        face_monomial_count(fan, d) for d in range(0, 11, 2)
    ]
    assert all(e.injective for e in entries)
    # the smoothness gate charts the maximal cones, as validation reads
    # their sigma^perp and the smoothness verdict their charts: one Smith
    # normal form each
    assert calls["smith_normal_form", "require_smooth"] == len(fan.maximal_cones) == 4
    assert {caller for _, caller in calls} == {"require_smooth"}, calls


def reference_cohomology(fan, max_degree):
    """The graded pieces by the dense construction, kept as an oracle: the
    relation matrix has one column per product theta_j * m' (through
    ``char_to_linear_form`` and face-ring multiplication), its divisors are
    the nonzero diagonal of a dense Smith normal form, and the basis rows
    are the non-pivot columns of sympy's ``rref`` of its transpose."""
    thetas = [
        char_to_linear_form(fan, [int(i == j) for i in range(fan.n)])
        for j in range(fan.n)
    ]
    pieces = []
    for degree in range(0, max_degree + 1, 2):
        rows = face_monomials(fan, degree)
        index = {m: i for i, m in enumerate(rows)}
        cols = []
        if degree >= 2:
            for theta in thetas:
                for m in face_monomials(fan, degree - 2):
                    col = [0] * len(rows)
                    for e, c in (theta * sr_monomial(fan, m)).terms.items():
                        col[index[e]] = c
                    cols.append(col)
        matrix = transpose(cols)
        divisors = [x for x in diagonal_of(smith_normal_form(matrix)[1]) if x] if cols else []
        pivots = set(sympy.Matrix(cols).rref()[1]) if cols else set()
        pieces.append(
            GradedPiece(
                degree=degree,
                rank=len(rows) - len(divisors),
                torsion=tuple(x for x in divisors if x > 1),
                basis=tuple(m for i, m in enumerate(rows) if i not in pivots),
            )
        )
    return tuple(pieces)


COHOMOLOGY_CASES = {
    name: (partial(load_fan, name), 2 * load_fan(name).n + 2) for name in COMPLETE_GOLDEN
}
for data, max_degree in (
    (fans.projective_space(3), 10),
    (fans.p1_power(3), 8),
    *((fans.hirzebruch(a), 10) for a in range(4)),
    (fans.blow_up_points(fans.projective_space(3), 2), 8),
    # in some labellings the echelon of the relations keeps rows with
    # non-unit pivots, so the dense Smith normal form of the leftover
    # block is exercised
    (fans.iterated_blowup_p2(3), 6),
    (fans.iterated_blowup_p2(8), 6),
):
    for seed in range(2):
        COHOMOLOGY_CASES[f"{data.name} #{seed}"] = (partial(relabelled, data, seed), max_degree)


@pytest.mark.parametrize("name", COHOMOLOGY_CASES)
def test_ordinary_cohomology_agrees_with_the_dense_construction(name):
    load, max_degree = COHOMOLOGY_CASES[name]
    fan = load()
    assert ordinary_cohomology(fan, max_degree) == reference_cohomology(fan, max_degree)


@pytest.mark.parametrize("name", ["p2", "p1xp1", "p3"])
def test_ordinary_cohomology_vanishes_past_twice_the_dimension(name):
    fan = load_fan(name)
    top = 2 * fan.n
    pieces = ordinary_cohomology(fan, top + 4)
    assert pieces == reference_cohomology(fan, top + 4)
    assert pieces[-2:] == (GradedPiece(top + 2, 0, (), ()), GradedPiece(top + 4, 0, (), ()))


def test_ordinary_cohomology_pivots_only_on_units(monkeypatch):
    """On P^3 at degree 10 every pivot of the relations is a unit, so
    ``ordinary_cohomology`` runs no dense elimination outside the
    smoothness check, and no Smith normal form but the chart of each
    maximal cone."""
    fan = parse_fan(fans.projective_space(3).text())
    calls = Counter()

    def counting(name, fn, *args, **kwargs):
        frame, caller = sys._getframe(1), "elsewhere"
        while frame is not None:
            if frame.f_code.co_name == "require_smooth":
                caller = "require_smooth"
                break
            frame = frame.f_back
        calls[name, caller] += 1
        return fn(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("torikit."):
            for name in ("smith_normal_form",):
                fn = vars(module).get(name)
                if fn is not None:
                    monkeypatch.setattr(module, name, partial(counting, name, fn))
    pieces = ordinary_cohomology(fan, 10)
    assert [p.rank for p in pieces] == [1, 1, 1, 1, 0, 0]
    # the smoothness gate charts the maximal cones, as validation reads
    # their sigma^perp and the smoothness verdict their charts: one Smith
    # normal form each
    assert calls["smith_normal_form", "require_smooth"] == len(fan.maximal_cones) == 4
    assert {caller for _, caller in calls} == {"require_smooth"}, calls


def test_ordinary_cohomology_reduces_each_piece_once(monkeypatch):
    """The rank, torsion and basis of a graded piece up to degree 2n all
    come from one ``lattice.cokernel`` call on its relations; past 2n the
    pieces are 0 and nothing is reduced."""
    fan = relabelled(fans.iterated_blowup_p2(8), 0)
    calls = []
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("torikit."):
            fn = vars(module).get("cokernel")
            if fn is not None:

                def counting(rows, fn=fn):
                    calls.append(len(rows))
                    return fn(rows)

                monkeypatch.setattr(module, "cokernel", counting)
    pieces = ordinary_cohomology(fan, 8)
    assert calls == [face_monomial_count(fan, p.degree) for p in pieces if p.degree <= 4]
