import random
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import torikit.lattice
from torikit.lattice import (
    diagonal_of,
    invert_unimodular,
    kernel_basis,
    mat_vec,
    pairing,
    primitive,
    quotient_by_sublattice,
    rank,
    smith_normal_form,
    solve_integer,
)


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def assert_snf_contract(m):
    rows = len(m)
    cols = len(m[0]) if m else 0
    u, d, v = smith_normal_form(m)
    # U and V are unimodular
    assert abs(sympy.Matrix(u).det()) == 1
    assert abs(sympy.Matrix(v).det()) == 1
    # U m V == D
    assert sympy.Matrix(u) * sympy.Matrix(m) * sympy.Matrix(v) == sympy.Matrix(d)
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for a in diag:
        assert a >= 0
    nz = [a for a in diag if a != 0]
    # nonzero entries come first and divide their successors
    assert diag[: len(nz)] == nz
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0


def test_snf_small_examples():
    # divisors via gcds of minors: d1 = 2, d1 d2 = 4, d1 d2 d3 = det = 624
    u, d, v = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert [d[i][i] for i in range(3)] == [2, 2, 156]
    _, d, _ = smith_normal_form([[1, 0], [0, 1]])
    assert [d[i][i] for i in range(2)] == [1, 1]
    _, d, _ = smith_normal_form([[0, 0], [0, 0]])
    assert [d[i][i] for i in range(2)] == [0, 0]


def test_snf_random_contract():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        assert_snf_contract(random_matrix(rng, rows, cols))


def test_snf_rectangular_shapes():
    rng = random.Random(11)
    for rows, cols in [(1, 8), (8, 1), (2, 5), (5, 2)]:
        for _ in range(5):
            assert_snf_contract(random_matrix(rng, rows, cols))


def full_scan_snf(m):
    """Reference for ``smith_normal_form``: the same operations, with every
    pivot found by scanning the whole trailing submatrix."""
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        for row in a + v:
            row[i] -= q * row[j]

    def reduce_at(t):
        while True:
            piv = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if a[i][j] != 0 and (
                        piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])
                    ):
                        piv = (i, j)
            if piv is None:
                return False
            a[t], a[piv[0]] = a[piv[0]], a[t]
            u[t], u[piv[0]] = u[piv[0]], u[t]
            for row in a + v:
                row[t], row[piv[1]] = row[piv[1]], row[t]
            clean = True
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
                    clean = clean and a[i][t] == 0
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
                    clean = clean and a[t][j] == 0
            if clean:
                return True

    limit = min(rows, cols)
    t = 0
    while t < limit and reduce_at(t):
        t += 1
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj != 0 and (di == 0 or dj % di != 0):
                col_op(i, i + 1, -1)
                k = i
                while k < limit and reduce_at(k):
                    k += 1
                changed = True
                break
    for i in range(limit):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return u, a, v


@st.composite
def snf_inputs(draw):
    """Small integer matrices, half with no entry of absolute value 1 and
    half with a unit placed off the diagonal."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    units = draw(st.booleans())
    entry = st.integers(-40, 40)
    if not units:
        entry = entry.filter(lambda x: abs(x) != 1)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    off_diagonal = [(i, j) for i in range(rows) for j in range(cols) if i != j]
    if units and off_diagonal:
        i, j = draw(st.sampled_from(off_diagonal))
        m[i][j] = draw(st.sampled_from([1, -1]))
    return m


@settings(max_examples=400)
@given(snf_inputs())
def test_snf_pivot_scan_matches_the_full_scan(m):
    # stopping the scan at the first unit takes the same pivot, so U, D
    # and V are identical
    assert smith_normal_form(m) == full_scan_snf(m)


@given(
    st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    st.integers(-10, 10),
)
def test_pairing_bilinear(a, b, c, s):
    left = pairing([x + s * y for x, y in zip(a, b)], c)
    assert left == pairing(a, c) + s * pairing(b, c)
    assert pairing(a, b) == pairing(b, a)


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, 5, 0)) == (0, 1, 0)
    assert primitive((-3, 0)) == (-1, 0)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_determinant_and_rank():
    # the Smith diagonal of a square matrix multiplies to |det|
    assert diagonal_of(smith_normal_form([[1, 2], [3, 4]])[1]) == [1, 2]
    assert diagonal_of(smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 4]])[1]) == [1, 2, 12]
    assert rank([[1, 2], [3, 4]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0


def test_determinant_matches_fraction_elimination():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, bound=6)
        # oracle: Gaussian elimination over Q
        work = [[Fraction(x) for x in row] for row in m]
        det = Fraction(1)
        for col in range(n):
            piv = next(
                (r for r in range(col, n) if work[r][col] != 0), None
            )
            if piv is None:
                det = Fraction(0)
                break
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                det = -det
            det *= work[col][col]
            for r in range(col + 1, n):
                f = work[r][col] / work[col][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
        diag = diagonal_of(smith_normal_form(m)[1])
        if det:
            assert rank(m) == n and prod(diag) == abs(det)
        else:
            assert rank(m) < n and 0 in diag


def test_invert_unimodular():
    m = [[1, 2], [1, 3]]
    inv = invert_unimodular(m)
    assert sympy.Matrix(m) * sympy.Matrix(inv) == sympy.eye(2)
    with pytest.raises(ValueError):
        invert_unimodular([[2, 0], [0, 1]])


def test_solve_integer():
    assert solve_integer([[1, 2], [3, 4]], [5, 11]) == (1, 2)
    # x2 would be 9/2 over Q
    assert solve_integer([[1, 2], [3, 4]], [5, 6]) is None
    assert solve_integer([[2, 0], [0, 2]], [1, 0]) is None
    # underdetermined but solvable
    sol = solve_integer([[1, 1, 1]], [3])
    assert sol is not None and sum(sol) == 3
    # no rows means no columns
    assert solve_integer([], []) == ()


def test_solve_integer_random_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, bound=5)
        x = [rng.randint(-5, 5) for _ in range(cols)]
        b = mat_vec(m, x)
        sol = solve_integer(m, list(b))
        assert sol is not None
        assert mat_vec(m, sol) == b


def test_kernel_basis():
    ker = kernel_basis([[1, 1, 1]])
    assert len(ker) == 2
    for v in ker:
        assert sum(v) == 0
    assert kernel_basis([[1, 0], [0, 1]]) == []
    assert kernel_basis([]) == []
    # saturation: kernel of [[2, 4]] is generated by (2, -1), not (4, -2)
    ker = kernel_basis([[2, 4]])
    assert len(ker) == 1
    assert primitive(ker[0]) == ker[0]


def test_quotient_presentation_basics():
    # Z^2 / <(2, 0)> = Z x Z/2
    pres = quotient_by_sublattice(2, [(2, 0)])
    assert pres.rank == 1
    assert pres.torsion == (2,)
    assert not any(pres.free_part((2, 0)))
    assert any(pres.free_part((0, 1)))
    # trivial quotient
    pres = quotient_by_sublattice(2, [(1, 0), (0, 1)])
    assert pres.rank == 0 and pres.torsion == ()


def test_quotient_projection_kills_exactly_the_sublattice():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 4)
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(n))
            for _ in range(rng.randint(1, n))
        ]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        pres = quotient_by_sublattice(n, gens)
        for _ in range(100):
            coeffs = [rng.randint(-6, 6) for _ in gens]
            v = tuple(
                sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)
            )
            assert not any(pres.free_part(v))
            # membership oracle: w is in the sublattice iff the integer
            # system over the generators is solvable; a nonzero free part
            # means it is not
            w = tuple(x + rng.randint(-3, 3) for x in v)
            cols = [[g[i] for g in gens] for i in range(n)]
            in_sub = solve_integer(cols, list(w)) is not None
            if any(pres.free_part(w)):
                assert not in_sub


def test_quotient_lift_basis():
    pres = quotient_by_sublattice(3, [(1, 1, 0)])
    lifts = pres.lift_basis()
    assert len(lifts) == pres.rank == 2
    # free parts of the lifts are the standard basis of Z^rank
    free = [pres.free_part(v) for v in lifts]
    assert sorted(free) == sorted(
        tuple(int(i == j) for i in range(2)) for j in range(2)
    )


@st.composite
def sublattices(draw):
    """(n, generators) for a sublattice of Z^n, 1 <= n <= 5: 0 to n + 1
    random generators, and sometimes a multiple of the first one, so that
    quotients of every rank from 0 to n, with and without torsion, occur."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n + 1))
    gens = draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=k, max_size=k
        )
    )
    if gens and draw(st.booleans()):
        gens.append([draw(st.integers(-2, 2)) * x for x in gens[0]])
    return n, gens


@settings(max_examples=200)
@given(sublattices())
def test_the_lift_basis_is_the_inverse_at_the_free_rows(case):
    n, gens = case
    pres = quotient_by_sublattice(n, gens)
    inverse = invert_unimodular([list(r) for r in pres.u])
    assert pres.lift_basis() == [
        tuple(row[j] for row in inverse) for j in pres.free_rows
    ]


def test_the_lift_basis_of_a_zero_quotient_takes_no_smith_normal_form(monkeypatch):
    pres = quotient_by_sublattice(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert pres.rank == 0
    monkeypatch.setattr(torikit.lattice, "smith_normal_form", None)
    assert pres.lift_basis() == []


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    )
)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert mat_vec(m, v) == (0,) * len(m)
