"""The two elimination kernels over Z and their callers, against sympy,
each other and brute force: the sparse echelon shared by ``rank`` and
``cokernel`` (dependent rows and elementary divisors), and the dense
Smith normal form, off which ``invert_unimodular`` reads M^-1 = V U."""

import itertools

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from torikit.cone import _parallelepiped
from torikit.lattice import (
    _sparse_echelon,
    cokernel,
    diagonal_of,
    invert_unimodular,
    rank,
    smith_normal_form,
)

from conftest import transpose

# Mostly small entries, so that rank-deficient matrices are common, with
# occasional entries up to 10^6.
entries = st.one_of(
    st.integers(-2, 2), st.integers(-10**6, 10**6)
)


@st.composite
def matrices(draw, max_rows=6, max_cols=6, square=False):
    rows = draw(st.integers(0, max_rows))
    cols = rows if square else draw(st.integers(0 if rows == 0 else 1, max_cols))
    shape = draw(st.sampled_from(["any", "zero", "low_rank"]))
    if shape == "zero":
        return [[0] * cols for _ in range(rows)]
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if shape == "low_rank" and rows > 1:
        # overwrite later rows with combinations of the first ones
        base = draw(st.integers(1, rows - 1))
        for i in range(base, rows):
            c = [draw(st.integers(-3, 3)) for _ in range(base)]
            m[i] = [sum(c[k] * m[k][j] for k in range(base)) for j in range(cols)]
    return m


def as_sympy(m, cols=None):
    rows = len(m)
    if cols is None:
        cols = len(m[0]) if rows else 0
    return sympy.Matrix(rows, cols, [x for row in m for x in row])


EDGE_SHAPES = [
    [],
    [[0, 0, 0]],
    [[3, -6, 9]],
    [[2], [4], [-6]],
    [[0], [0]],
    [[0, 0], [0, 0], [0, 0]],
    [[1, 2], [2, 4], [3, 6], [1, 0]],
    [[0, 0, 5, 1], [0, 0, 10, 2]],
    [[10**6, -(10**6)], [10**6 - 1, 10**6]],
]


def check_echelon(m):
    """The shared sparse echelon E of m: its dependent rows are those in
    the span of the rows before them; each row of E has a nonzero pivot
    and is zero on the pivots of the rows stored before it; and E
    generates the row lattice of m.  The last holds because E, m and the
    two stacked have the same elementary divisors: lattices of the same
    rank, one inside the other, with the same covolume are equal."""
    e, dependent = _sparse_echelon(sparse(m))
    assert dependent == [i for i in range(len(m)) if i not in greedy_independent_rows(m)]
    assert len(e) == len(m) - len(dependent) == rank(m) == as_sympy(m).rank()
    assert [order for order, _ in e.values()] == list(range(len(e)))
    before = []
    for c, (_, p) in e.items():
        assert p[c] != 0 and all(isinstance(x, int) and x for x in p.values())
        assert not any(k in p for k in before)
        before.append(c)
    if e:
        cols = len(m[0])
        dense = [[p.get(j, 0) for j in range(cols)] for _, p in e.values()]
        assert sympy_divisors(dense) == sympy_divisors(m) == sympy_divisors(dense + m)


@pytest.mark.parametrize("m", EDGE_SHAPES)
def test_echelon_edge_shapes(m):
    check_echelon(m)


def test_empty_matrix():
    assert _sparse_echelon([]) == ({}, [])
    assert rank([]) == 0
    assert invert_unimodular([]) == []


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_sparse_echelon_generates_the_row_lattice(m):
    check_echelon(m)


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=8, max_cols=8))
def test_rank_matches_sympy(m):
    assert rank(m) == as_sympy(m).rank()


def draw_unimodular(draw, n):
    """A product of elementary matrices and signed permutations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            q = draw(st.integers(-50, 50))
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return m


@st.composite
def unimodular_matrices(draw):
    return draw_unimodular(draw, draw(st.integers(1, 5)))


@settings(max_examples=100, deadline=None)
@given(unimodular_matrices())
def test_invert_unimodular_matches_sympy(m):
    assert as_sympy(invert_unimodular(m)) == as_sympy(m).inv()


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_invert_unimodular_rejects_other_determinants(m):
    assume(m and abs(as_sympy(m).det()) != 1)
    with pytest.raises(ValueError):
        invert_unimodular(m)


def test_invert_unimodular_rejects_non_square():
    with pytest.raises(ValueError):
        invert_unimodular([[1, 0]])


def greedy_independent_rows(matrix):
    """Indices of rows that are not in the span of the rows before them."""
    out = []
    for i in range(len(matrix)):
        if as_sympy(matrix[: i + 1]).rank() > as_sympy(matrix[:i]).rank():
            out.append(i)
    return out


def sparse(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=8, max_cols=5))
def test_cokernel_basis_rows_are_the_dependent_rows(m):
    independent = set(greedy_independent_rows(m))
    expected = [i for i in range(len(m)) if i not in independent]
    assert cokernel(sparse(m))[1] == expected


def test_cokernel_basis_rows_without_relations():
    # zero rows lie in the span of nothing
    assert cokernel([{}, {}, {}]) == ([], [0, 1, 2])
    assert cokernel([]) == ([], [])


@st.composite
def sparse_matrices(draw, max_rows=9, max_cols=9):
    """Mostly zero entries, with units, small non-units and a few large
    values; some rows are copies or multiples of earlier ones."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entry = st.one_of(
        st.just(0), st.just(0), st.just(0), st.sampled_from([1, -1, 2, -3, 4, 6]),
        st.integers(-10**6, 10**6),
    )
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()) and draw(st.booleans()):
            k, q = draw(st.integers(0, i - 1)), draw(st.integers(-3, 3))
            m[i] = [q * x for x in m[k]]
    return m


@st.composite
def with_known_divisors(draw):
    """U * D * V for random unimodular U and V and a diagonal D whose
    chain has units, non-units (so that a block without unit entries is
    left after the unit pivots) and zeros."""
    chain = draw(st.sampled_from([(2, 6), (1, 2, 6), (1, 1, 3, 3), (1, 4, 8, 24), (5,)]))
    zeros = draw(st.integers(0, 2))
    rows = len(chain) + zeros + draw(st.integers(0, 1))
    cols = len(chain) + zeros + draw(st.integers(0, 1))
    d = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(chain):
        d[i][i] = x
    m = as_sympy(draw_unimodular(draw, rows)) * as_sympy(d) * as_sympy(draw_unimodular(draw, cols))
    return [[int(x) for x in row] for row in m.tolist()], list(chain)


def dense_divisors(m):
    return [x for x in diagonal_of(smith_normal_form(m)[1]) if x]


def sympy_divisors(m):
    return [abs(int(x)) for x in invariant_factors(as_sympy(m), domain=sympy.ZZ) if x]


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_matrices(), matrices(max_rows=7, max_cols=7)))
def test_elementary_divisors_match_the_dense_smith_normal_form(m):
    assume(m)
    want = dense_divisors(m)
    assert cokernel(sparse(m))[0] == want
    assert cokernel(sparse(transpose(m)))[0] == want
    assert want == sympy_divisors(m)


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_matrices(), matrices(max_rows=7, max_cols=7)))
def test_cokernel_counts_every_row_once(m):
    """The rank is the number of nonzero divisors, and every other row is
    dependent."""
    divisors, dependent = cokernel(sparse(m))
    assert len(divisors) + len(dependent) == len(m)


@settings(max_examples=100, deadline=None)
@given(with_known_divisors())
def test_elementary_divisors_of_products_with_unimodular_matrices(case):
    m, chain = case
    assert cokernel(sparse(m))[0] == chain
    assert cokernel(sparse(transpose(m)))[0] == chain
    assert dense_divisors(m) == chain


@pytest.mark.parametrize(
    "m, want",
    [
        ([], []),
        ([[0, 0, 0], [0, 0, 0]], []),
        ([[2, 0, 0], [0, 6, 0], [0, 0, 0]], [2, 6]),  # nothing but the dense block
        ([[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 6, 0]], [1, 2, 12]),
        ([[0, 4, -6, 0, 10]], [2]),  # a single row
        ([[0], [9], [0], [-12]], [3]),  # a single column
        ([[1, 1], [1, -1]], [1, 2]),  # a unit pivot leaves a non-unit entry
        ([[2, 3], [3, 5]], [1, 1]),  # a gcd step makes the pivot a unit
        ([[2], [3], [5]], [1]),
        # the unit pivot of the second row is cleared out of the first
        ([[2, 3, 0], [0, 1, 5]], [1, 1]),
    ],
)
def test_elementary_divisors_edge_cases(m, want):
    assert cokernel(sparse(m))[0] == want
    if m:
        assert dense_divisors(m) == want
        assert sympy_divisors(m) == want


def test_cokernel_of_coprime_multiples():
    # gcd steps turn 2 into 1; the rows 3 and 5 are in the span of row 0
    assert cokernel(sparse([[2], [3], [5]])) == ([1], [1, 2])


def box_points(cols):
    """Nonzero lattice points of the half-open parallelepiped, by scanning
    its bounding box: x is inside iff 0 <= adj(G) x / det(G) < 1."""
    d = len(cols)
    g = sympy.Matrix(d, d, lambda i, j: cols[j][i])
    det = int(g.det())
    adj = [[int(x) * (1 if det > 0 else -1) for x in row] for row in g.adjugate().tolist()]
    det = abs(det)
    ranges = [
        range(
            sum(min(0, c[i]) for c in cols), sum(max(0, c[i]) for c in cols) + 1
        )
        for i in range(d)
    ]
    out = set()
    for x in itertools.product(*ranges):
        if not any(x):
            continue
        if all(0 <= sum(a * v for a, v in zip(row, x)) < det for row in adj):
            out.add(x)
    return out


def parallelepiped_points(cols):
    """The nonzero points x = G t / e of ``_parallelepiped``, after checking
    that the first t is 0, that 0 <= t_j < e, and that e divides G t."""
    t_cols, e = _parallelepiped(cols)
    assert len({len(col) for col in t_cols}) == 1
    ts = list(zip(*t_cols))
    assert not any(ts[0])
    x = []
    for tp in ts[1:]:
        assert all(0 <= tj < e for tj in tp)
        gt = [sum(c[i] * tj for c, tj in zip(cols, tp)) for i in range(len(cols))]
        assert all(a % e == 0 for a in gt)
        x.append(tuple(a // e for a in gt))
    return x


@st.composite
def simplicial_cones(draw):
    d = draw(st.integers(2, 4))
    cols = [tuple(draw(st.integers(-3, 3)) for _ in range(d)) for _ in range(d)]
    det = as_sympy([list(c) for c in cols]).det()
    assume(0 < abs(det) <= 60)
    return cols


@settings(max_examples=60, deadline=None)
@given(simplicial_cones())
def test_parallelepiped_points_match_box_enumeration(cols):
    pts = parallelepiped_points(cols)
    det = abs(as_sympy([list(c) for c in cols]).det())
    assert len(pts) == len(set(pts)) == det - 1
    assert set(pts) == box_points(cols)


@pytest.mark.parametrize(
    "cols",
    [
        [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
        [(3, 0, 0), (0, 3, 0), (1, 1, 1)],
        [(2, 0, 0), (0, 4, 2), (0, 2, 4)],
        [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)],
    ],
    ids=["Z2^3", "Z3^2", "Z2xZ2xZ6", "Z2^3-in-4d"],
)
def test_parallelepiped_points_of_non_cyclic_groups(cols):
    # Z^d / G Z^d has several nontrivial invariant factors, so the columns
    # of t are built over more than one of them
    pts = parallelepiped_points(cols)
    det = abs(as_sympy([list(c) for c in cols]).det())
    assert len(pts) == len(set(pts)) == det - 1
    assert set(pts) == box_points(cols)
