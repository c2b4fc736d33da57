import ast
import importlib
import random
import re
import sys
from collections import Counter
from functools import partial
from itertools import combinations
from math import gcd, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torikit.cone
import torikit.fan
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
from torikit.lattice import (
    kernel_basis,
    pairing,
    primitive,
    quotient_by_sublattice,
    rank,
    solve_integer,
)
from torikit.picard import PicardReport

from conftest import COMPLETE_GOLDEN, SMOOTH_GOLDEN, fans, load_fan, smooth_fans

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


def same_family(a, b):
    """Equal iff all per-cone classes agree in X(T_sigma): the difference
    pairs to 0 with every ray of each maximal cone."""
    fan = a.fan
    return all(
        pairing([x - y for x, y in zip(chi, psi)], fan.rays[v]) == 0
        for c, chi, psi in zip(fan.maximal_cones, a.chars, b.chars)
        for v in c
    )


def test_divisor_class_additive(p1xp1):
    rng = random.Random(19)
    for _ in range(10):
        a = [rng.randint(-4, 4) for _ in p1xp1.rays]
        b = [rng.randint(-4, 4) for _ in p1xp1.rays]
        fam = divisor_class(p1xp1, [x + y for x, y in zip(a, b)])
        split = divisor_class(p1xp1, a) + divisor_class(p1xp1, b)
        assert same_family(fam, split)


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
            assert same_family(fam, fam2)
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


def pairwise_disagreement(fam):
    """The first pair of maximal cones, in index order, whose classes differ
    on a ray of their intersection; None when the family is compatible."""
    fan, maxc = fam.fan, fam.fan.maximal_cones
    for i, j in combinations(range(len(maxc)), 2):
        diff = [a - b for a, b in zip(fam.chars[i], fam.chars[j])]
        if any(pairing(diff, fan.rays[v]) for v in set(maxc[i]) & set(maxc[j])):
            return maxc[i], maxc[j]
    return None


@settings(max_examples=80, deadline=None)
@given(k=st.integers(0, 8), seed=st.integers(0, 3), data=st.data())
def test_check_compatible_matches_the_pairwise_rule(k, seed, data):
    """One pass keyed by ray gives the verdict of checking every pair of
    maximal cones, on a basis family with at most one character moved,
    and names two cones that do disagree on their intersection."""
    data_k = fans.relabel(fans.iterated_blowup_p2(k), random.Random(seed))
    fan = parse_fan(data_k.text())
    basis = picard(fan).equivariant_basis
    chars = list(basis[data.draw(st.integers(0, len(basis) - 1))].chars)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(chars) - 1))
        shift = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        chars[i] = tuple(a + b for a, b in zip(chars[i], shift))
    fam = CharacterFamily(fan, tuple(chars))
    if pairwise_disagreement(fam) is None:
        fam.check_compatible()
        return
    with pytest.raises(IncompatibleFamilyError) as err:
        fam.check_compatible()
    named = re.fullmatch(
        r"classes on cones (.+) and (.+) disagree on their intersection (.+)",
        str(err.value),
    )
    b, c, common = map(ast.literal_eval, named.groups())
    assert common == tuple(sorted(set(b) & set(c)))
    chi_b, chi_c = (chars[fan.maximal_cones.index(x)] for x in (b, c))
    diff = [x - y for x, y in zip(chi_b, chi_c)]
    assert any(pairing(diff, fan.rays[v]) for v in common)


def test_family_arithmetic(p1xp1):
    a = divisor_class(p1xp1, [1, 0, 0, 0])
    b = divisor_class(p1xp1, [0, 0, 2, 0])
    s = a + b
    s.check_compatible()
    assert same_family(s - b, a)
    assert same_family(a - a, divisor_class(p1xp1, [0, 0, 0, 0]))


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


SMALL_INCOMPLETE = {
    # full-dimensional maximal cones: sigma^perp is 0
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
    # lower-dimensional maximal cones: sigma^perp is not 0
    "rays of P^2": (((1, 0), (0, 1), (-1, -1)), [(0,), (1,), (2,)]),
    "C x C*": (((1, 0),), [(0,)]),
    "P^1 x C*": (((1, 0), (-1, 0)), [(0,), (1,)]),
    # the rays span a sublattice of index 2: Pic is Z/2
    "torsion Z/2": (((1, 0), (1, 2)), [(0,), (1,)]),
    # ray 2 lies in no cone and does not count
    "unused ray": (((1, 0), (0, 1), (-1, -1)), [(0, 1)]),
}


@pytest.mark.parametrize("name", SMALL_INCOMPLETE)
def test_incomplete_smooth_fans_against_the_ray_oracle(name):
    """On a smooth fan H^2_T is Z^rays over the rays in some cone, and Pic
    is its quotient by X(T), whose image has the rank r of the span of
    those rays (Cox, Little and Schenck, Ch. 4); the order of the torsion
    is the gcd of the r x r minors of their matrix."""
    rays, maxcones = SMALL_INCOMPLETE[name]
    fan = Fan(2, rays, maxcones)
    used = [rays[v] for v in sorted({v for c in maxcones for v in c})]
    r = rank([list(mu) for mu in used])
    minors = [
        int(sympy.Matrix([[mu[t] for t in cols] for mu in sub]).det())
        for sub in combinations(used, r)
        for cols in combinations(range(2), r)
    ]
    rep = picard(fan)
    assert rep.equivariant_rank == len(used)
    assert rep.equivariant_torsion == ()
    assert rep.ordinary_rank == len(used) - r
    assert prod(rep.ordinary_torsion) == abs(gcd(*minors))


def reference_picard(fan):
    """The inverse limit as the paper builds it, kept as an oracle.

    Compatible tuples over the m maximal cones form a saturated kernel in
    Z^(n*m); H^2_T is that lattice modulo the block-embedded sublattices
    sigma^perp, Pic its further quotient by the constant families.  Their
    coordinates in the kernel basis come from one integer solve each.
    """
    maxc = fan.maximal_cones
    n, m = fan.n, len(maxc)
    rows = []
    for (i, a), (j, b) in combinations(enumerate(maxc), 2):
        for v in sorted(set(a) & set(b)):
            row = [0] * (n * m)
            row[i * n : (i + 1) * n] = fan.rays[v]
            row[j * n : (j + 1) * n] = [-x for x in fan.rays[v]]
            rows.append(row)
    identity = [tuple(int(i == j) for i in range(n * m)) for j in range(n * m)]
    basis = kernel_basis(rows) if rows else identity
    columns = [[b[k] for b in basis] for k in range(n * m)]

    def coordinates(vec):
        x = solve_integer(columns, vec)
        assert x is not None, "vector outside the limit lattice"
        return x

    killed = []
    for i, c in enumerate(maxc):
        gens = [list(fan.rays[v]) for v in c]
        perp = kernel_basis(gens) if gens else identity[:n]
        for p in perp:
            vec = [0] * (n * m)
            vec[i * n : (i + 1) * n] = p
            killed.append(coordinates(vec))
    equivariant = quotient_by_sublattice(len(basis), killed)
    families = []
    for lift in equivariant.lift_basis():
        flat = [sum(c * b[k] for c, b in zip(lift, basis)) for k in range(n * m)]
        families.append(
            CharacterFamily(
                fan, tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(m))
            )
        )
    constants = [
        coordinates([int(k % n == t) for k in range(n * m)]) for t in range(n)
    ]
    ordinary = quotient_by_sublattice(len(basis), killed + constants)
    return PicardReport(
        equivariant_rank=equivariant.rank,
        equivariant_torsion=equivariant.torsion,
        equivariant_basis=tuple(families),
        ordinary_rank=ordinary.rank,
        ordinary_torsion=ordinary.torsion,
    )


def ray_values(fan, basis):
    """<chi_sigma, mu_v> of each family on each ray v in some maximal cone,
    read on the first maximal cone through v."""
    used = sorted({v for c in fan.maximal_cones for v in c})
    first = {v: next(i for i, c in enumerate(fan.maximal_cones) if v in c) for v in used}
    return [
        [pairing(fam.chars[first[v]], fan.rays[v]) for v in used]
        for fam in basis
    ]


REFERENCE_FAMILIES = [
    fans.projective_space(2),
    fans.projective_space(3),
    fans.p1_power(3),
    *(fans.hirzebruch(a) for a in range(4)),
    fans.blow_up_points(fans.projective_space(2), 2),
    fans.blow_up_points(fans.projective_space(3), 2),
    fans.iterated_blowup_p2(19),
    fans.iterated_blowup_p2(22),
]


def relabelled(data, seed):
    return parse_fan(fans.relabel(data, random.Random(seed)).text())


REFERENCE_CASES = {name: partial(load_fan, name) for name in SMOOTH_GOLDEN}
for data in REFERENCE_FAMILIES:
    for seed in range(4):
        REFERENCE_CASES[f"{data.name} #{seed}"] = partial(relabelled, data, seed)
for name, (rays, maxcones) in SMALL_INCOMPLETE.items():
    REFERENCE_CASES[name] = partial(Fan, 2, rays, maxcones)


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_picard_agrees_with_the_inverse_limit(name):
    """Same ranks and torsion as the inverse limit, and the two bases span
    the same lattice: on the rays, the ray-coordinate basis is the
    identity and the limit-lattice basis is unimodular."""
    fan = REFERENCE_CASES[name]()
    rep, ref = picard(fan), reference_picard(fan)
    assert rep.equivariant_rank == ref.equivariant_rank
    assert rep.equivariant_torsion == ref.equivariant_torsion == ()
    assert rep.ordinary_rank == ref.ordinary_rank
    assert rep.ordinary_torsion == ref.ordinary_torsion
    k = rep.equivariant_rank
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    assert ray_values(fan, rep.equivariant_basis) == identity
    assert sympy.Matrix(ray_values(fan, ref.equivariant_basis)).det() in (1, -1)
    for fam in rep.equivariant_basis + ref.equivariant_basis:
        fam.check_compatible()


def test_picard_makes_one_elimination_for_its_coordinates(monkeypatch):
    """Pic is the cokernel of X(T) -> Z^rays: one ``cokernel`` of the 2
    sparse rows of ray coordinates over the 25 rays, no Smith normal form
    past the charts of the smoothness gate, and no kernel of any matrix."""
    fan = parse_fan(fans.iterated_blowup_p2(22).text())
    assert len(fan.maximal_cones) == 25
    # the validity verdict is the gate's work, not Picard's; it is kept on
    # the fan, so compute it before counting
    assert fan.validation.valid
    snf_callers = Counter()
    cokernels, kernels = [], []
    snf, coker = torikit.lattice.smith_normal_form, picard_module.cokernel
    kernel = torikit.lattice.kernel_basis

    def counting_snf(*args):
        frame, caller = sys._getframe(1), "elsewhere"
        while frame is not None:
            if frame.f_code.co_name == "require_smooth":
                caller = "require_smooth"
                break
            frame = frame.f_back
        snf_callers[caller] += 1
        return snf(*args)

    def counting_cokernel(rows):
        cokernels.append((len(rows), len(set().union(*rows))))
        return coker(rows)

    def counting_kernel(*args):
        kernels.append(args)
        return kernel(*args)

    monkeypatch.setattr(torikit.lattice, "smith_normal_form", counting_snf)
    monkeypatch.setattr(torikit.cone, "smith_normal_form", counting_snf)
    monkeypatch.setattr(picard_module, "cokernel", counting_cokernel)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("torikit") and "kernel_basis" in vars(module):
            monkeypatch.setattr(module, "kernel_basis", counting_kernel)
    rep = picard(fan)
    assert rep.ordinary_rank == 23
    assert kernels == []
    assert cokernels == [(2, 25)]
    # the smoothness gate charts each maximal cone once (a fan certified
    # by wall crossing has none charted by validation), and the dual basis
    # characters are read off those charts
    assert snf_callers == {"require_smooth": 25}
    snf_callers.clear()
    picard(fan)
    assert snf_callers == {}
    assert cokernels == [(2, 25)] * 2


def dense_ordinary_picard(fan):
    """Pic(X) = Z^used / X(T) from the dense Smith normal form of the n rows
    of ray coordinates over the used rays, kept as the reference for
    ``picard``'s cokernel."""
    used = sorted({v for c in fan.maximal_cones for v in c})
    pres = quotient_by_sublattice(
        len(used), [[fan.rays[v][t] for v in used] for t in range(fan.n)]
    )
    return pres.rank, pres.torsion


@settings(max_examples=80, deadline=None)
@given(smooth_fans())
def test_ordinary_picard_matches_the_dense_presentation(fan):
    rep = picard(fan)
    assert (rep.ordinary_rank, rep.ordinary_torsion) == dense_ordinary_picard(fan)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n).filter(any),
            min_size=1,
            max_size=5,
        )
    )
)
@example([[1, 0], [1, 2]])  # Pic = Z/2
@example([[1, 0, 0], [1, 2, 0], [1, 0, 2]])  # Pic = (Z/2)^2
def test_ordinary_picard_of_lone_rays_matches_the_dense_presentation(vectors):
    """Rays that are each their own cone make a smooth fan whose Pic is
    Z^rays / X(T), with torsion when the rays span a proper sublattice."""
    rays = list(dict.fromkeys(primitive(v) for v in vectors))
    fan = Fan(len(rays[0]), rays, [(i,) for i in range(len(rays))])
    rep = picard(fan)
    assert (rep.ordinary_rank, rep.ordinary_torsion) == dense_ordinary_picard(fan)
