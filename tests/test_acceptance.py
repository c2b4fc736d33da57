"""Acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line so the suite output doubles as
an acceptance report.  Run with ``pytest -v -s tests/test_acceptance.py``
to see the lines as they appear.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

import sympy

from torikit import (
    certify_perfection,
    check_restriction_injectivity,
    divisor_class,
    dual_basis_character,
    equivariant_picard,
    equivariant_poincare_series,
    face_monomial_count,
    is_principal,
    ordinary_cohomology,
    ordinary_poincare_polynomial,
    orbit_table,
    picard,
    restriction_map,
    sr_one,
    sr_variable,
    stratify,
)
from torikit.cone import Cone
from torikit.lattice import (
    mat_vec,
    pairing,
    smith_normal_form,
)
from torikit.rings import _mv_mul

from conftest import SMOOTH_GOLDEN, load_fan

ROOT = Path(__file__).resolve().parent.parent


def report(number, ok, text):
    marker = "PASS" if ok else "FAIL"
    print(f"{marker} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_1_affine_plane_orbits():
    fan = load_fan("affine_plane")
    table = orbit_table(fan)
    codims = sorted(e.codim for e in table)
    ok = len(table) == 4 and codims == [0, 1, 1, 2]
    report(1, ok, "affine plane has 4 orbits with codimensions 0,1,1,2")


def test_criterion_2_two_path_poincare_agreement():
    expected = {
        "p1": [1, 0, 1],
        "p2": [1, 0, 1, 0, 1],
        "p1xp1": [1, 0, 2, 0, 1],
        "hirzebruch1": [1, 0, 2, 0, 1],
    }
    ok = True
    for name, want in expected.items():
        fan = load_fan(name)
        via_stratification = ordinary_poincare_polynomial(fan)
        ranks = [p.rank for p in ordinary_cohomology(fan, 2 * fan.n)]
        via_ring = []
        for deg in range(0, 2 * fan.n + 1):
            via_ring.append(ranks[deg // 2] if deg % 2 == 0 else 0)
        while via_ring and via_ring[-1] == 0:
            via_ring.pop()
        if via_stratification != want or via_ring != want:
            ok = False
            break
    report(
        2,
        ok,
        "stratification and ring quotient give the same Poincare "
        "polynomials (1+t^2; 1+t^2+t^4; 1+2t^2+t^4; 1+2t^2+t^4)",
    )


def test_criterion_3_graded_rank_identity():
    start = time.monotonic()
    ok = True
    for name in SMOOTH_GOLDEN:
        fan = load_fan(name)
        series = equivariant_poincare_series(fan)
        for deg in range(0, 21, 2):
            if face_monomial_count(fan, deg) != series.coefficient(deg):
                ok = False
    elapsed = time.monotonic() - start
    report(
        3,
        ok and elapsed < 1.0,
        "face monomial counts match the equivariant Poincare series "
        f"in all even degrees <= 20 ({elapsed:.2f}s)",
    )


def test_criterion_4_restriction_injectivity():
    start = time.monotonic()
    ok = all(
        e.injective
        for name in SMOOTH_GOLDEN
        for e in check_restriction_injectivity(load_fan(name), 10)
    )
    elapsed = time.monotonic() - start
    report(
        4,
        ok and elapsed < 5.0,
        f"restriction to orbits is injective in degrees <= 10 ({elapsed:.2f}s)",
    )


def test_criterion_5_perfection_certificates():
    ok = True
    for name in SMOOTH_GOLDEN:
        fan = load_fan(name)
        strat = stratify(fan)
        rep = certify_perfection(strat)
        if not rep.certified:
            ok = False
            continue
        # the Euler monomial of each stratum restricts on its own cone to
        # the product of the normal weights
        for s in strat.strata:
            pres = fan.stabilizer_characters(s.rayset)
            top = sr_one(fan)
            want = {(0,) * pres.rank: 1}
            for v in s.rayset:
                top = top * sr_variable(fan, v)
                chi = dual_basis_character(fan, s.rayset, v)
                free = pres.free_part(chi)
                lin = {
                    tuple(int(j == i) for j in range(pres.rank)): a
                    for i, a in enumerate(free)
                    if a
                }
                want = _mv_mul(want, lin)
            if restriction_map(fan, top, s.rayset) != want:
                ok = False
    report(
        5,
        ok,
        "all strata certified perfect; Euler monomials restrict to the "
        "product of normal weights",
    )


def test_criterion_6_picard():
    expected = {"p2": 1, "p1xp1": 2, "hirzebruch1": 2}
    ok = True
    for name, want in expected.items():
        rep = picard(load_fan(name))
        if rep.ordinary_rank != want or rep.ordinary_torsion != ():
            ok = False
    for name in SMOOTH_GOLDEN:
        fan = load_fan(name)
        rep = equivariant_picard(fan)
        if rep.equivariant_rank != face_monomial_count(fan, 2):
            ok = False
    rng = random.Random(71)
    for name in ["p2", "p1xp1", "hirzebruch1"]:
        fan = load_fan(name)
        for _ in range(20):
            chi = tuple(rng.randint(-5, 5) for _ in range(fan.n))
            coeffs = [pairing(chi, mu) for mu in fan.rays]
            if is_principal(fan, divisor_class(fan, coeffs)) is None:
                ok = False
    report(
        6,
        ok,
        "Picard ranks 1,2,2 torsion-free; equivariant rank matches the "
        "degree-2 count; 20 random principal divisors per fan round-trip",
    )


def _box(n, radius):
    import itertools

    return itertools.product(range(-radius, radius + 1), repeat=n)


def _random_cone(rng, n):
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


def _is_comb(cone, target, pool, fail_memo):
    lam = tuple(sum(col) for col in zip(*cone.generators))

    def in_dual(x):
        return all(pairing(g, x) >= 0 for g in cone.generators)

    def rec(t):
        if not any(t):
            return True
        if t in fail_memo:
            return False
        for g in pool:
            r = tuple(a - b for a, b in zip(t, g))
            if in_dual(r) and pairing(lam, r) < pairing(lam, t) and rec(r):
                return True
        fail_memo.add(t)
        return False

    return rec(tuple(target))


def test_criterion_7_hilbert_basis_oracle():
    start = time.monotonic()
    rng = random.Random(97)
    ok = True
    cones = [_random_cone(rng, 2) for _ in range(6)]
    cones += [_random_cone(rng, 3) for _ in range(4)]
    for cone in cones:
        hb = cone.hilbert_basis()
        pool = sorted(
            hb,
            key=lambda h: -sum(pairing(g, h) for g in cone.generators),
        )
        # soundness
        for h in hb:
            if not all(pairing(g, h) >= 0 for g in cone.generators):
                ok = False
        # minimality
        for h in hb:
            if _is_comb(cone, h, [x for x in pool if x != h], set()):
                ok = False
        memo = set()
        # bounded completeness, sup-norm <= 10
        members = (
            x
            for x in _box(cone.n, 10)
            if any(x) and all(pairing(g, x) >= 0 for g in cone.generators)
        )
        for x in members:
            if not _is_comb(cone, x, pool, memo):
                ok = False
                break
    elapsed = time.monotonic() - start
    report(
        7,
        ok and elapsed < 30.0,
        "Hilbert bases of 10 random pointed cones are sound, minimal and "
        f"complete on the radius-10 box ({elapsed:.2f}s)",
    )


def test_criterion_8_snf_contract():
    start = time.monotonic()
    rng = random.Random(83)
    ok = True
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = [
            [rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)
        ]
        u, d, v = smith_normal_form(m)
        su, sv = sympy.Matrix(u), sympy.Matrix(v)
        if abs(su.det()) != 1 or abs(sv.det()) != 1:
            ok = False
        if su * sympy.Matrix(m) * sv != sympy.Matrix(d):
            ok = False
        diag = [d[i][i] for i in range(min(rows, cols))]
        nz = [a for a in diag if a != 0]
        if diag[: len(nz)] != nz or any(a < 0 for a in diag):
            ok = False
        if any(b % a != 0 for a, b in zip(nz, nz[1:])):
            ok = False
    elapsed = time.monotonic() - start
    report(
        8,
        ok and elapsed < 5.0,
        f"200 random matrices satisfy the SNF contract ({elapsed:.2f}s)",
    )


def test_criterion_9_negative_tests():
    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "torikit.cli"] + args,
            capture_output=True,
            text=True,
            cwd=ROOT,
        )

    ring = run(["ring", "fans/a1_singular.fan"])
    certify = run(["certify", "fans/a1_singular.fan"])
    overlap = run(["validate", "fans/overlap_invalid.fan"])
    ok = (
        ring.returncode == 1
        and certify.returncode == 1
        and overlap.returncode == 1
        and "axiom-b" in overlap.stdout
    )
    report(
        9,
        ok,
        "singular fan rejected by ring/certify with exit 1; overlapping "
        "cones reported as an axiom (b) violation",
    )
