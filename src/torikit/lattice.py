"""Exact integer linear algebra over Z^n.

Vectors are tuples of Python ints (arbitrary precision), matrices are
lists of rows.  Characters of the torus live in X(T) = Z^n, one-parameter
subgroups in Y(T) = Z^n, dual to each other under the standard dot-product
pairing.  Everything here is a pure function of immutable data.

There are two elimination kernels, both over Z.  ``smith_normal_form`` is
dense: it returns the unimodular transforms U and V with U M V = D, each
``Cone`` reads sigma^perp, smoothness and its dual basis off one, and
``invert_unimodular`` reads M^-1 = V U off it.

``_sparse_echelon`` works on rows kept as dicts: it reduces the rows in
order against a sparse echelon with unimodular row operations only, and
finds the rows in the span of the rows before them.  ``rank`` counts the
others.  ``cokernel``, for the large sparse relations of the graded pieces
in ``rings``, reads off the same echelon both those rows and the
elementary divisors; the rows of the echelon whose pivots are not units go
to ``smith_normal_form``.
"""

from __future__ import annotations

import heapq
from math import gcd
from operator import mul
from typing import Hashable, Mapping, NamedTuple, Optional, Sequence

from .errors import ShapeError

Vector = tuple[int, ...]
Matrix = list[list[int]]


def pairing(chi: Sequence[int], mu: Sequence[int]) -> int:
    """<chi, mu>: the integer with chi(mu(t)) = t^<chi,mu>."""
    if len(chi) != len(mu):
        raise ShapeError(f"pairing of vectors of lengths {len(chi)} and {len(mu)}")
    return sum(map(mul, chi, mu))


def primitive(v: Sequence[int]) -> Vector:
    """v divided by the gcd of its entries; sign is preserved."""
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ValueError("primitive of the zero vector")
    return tuple(x // g for x in v)


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in a)


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    rows = len(a)
    cols = len(a[0]) if rows else 0
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def smith_normal_form(
    m: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix]:
    """Return unimodular U, V and diagonal D with U*M*V = D, d1 | d2 | ...

    Elementary row/column reduction with minimal-absolute-value pivoting;
    all nonzero diagonal entries are made positive and satisfy the
    divisibility chain.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def reduce_at(t):
        """Diagonalize position t against the trailing submatrix."""
        while True:
            piv, best = None, 0
            for i in range(t, rows):
                for j in range(t, cols):
                    x = abs(a[i][j])
                    if x and (piv is None or x < best):
                        piv, best = (i, j), x
                if best == 1:  # no nonzero entry is below 1
                    break
            if piv is None:
                return False
            if piv[0] != t:
                swap_rows(t, piv[0])
            if piv[1] != t:
                swap_cols(t, piv[1])
            clean = True
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
                    if a[i][t] != 0:
                        clean = False
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
                    if a[t][j] != 0:
                        clean = False
            if clean:
                return True

    limit = min(rows, cols)
    t = 0
    while t < limit and reduce_at(t):
        t += 1

    # Enforce the divisibility chain d_i | d_{i+1}.
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj != 0 and (di == 0 or dj % di != 0):
                col_op(i, i + 1, -1)  # col_i += col_{i+1}
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


def diagonal_of(d: Sequence[Sequence[int]]) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def invert_unimodular(m: Sequence[Sequence[int]]) -> Matrix:
    """Inverse of an integer matrix with determinant +-1 (integer result).

    M is unimodular exactly when its Smith normal form U M V = D is I, and
    then M^-1 = V U."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    u, d, v = smith_normal_form(m)
    if any(x != 1 for x in diagonal_of(d)):
        raise ValueError("matrix is not unimodular")
    columns = list(zip(*u))
    return [[sum(map(mul, row, col)) for col in columns] for row in v]


SparseRow = Mapping[Hashable, int]


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = s*a + t*b = +-gcd(a, b) for a != 0, and
    (a, 1, 0) when a divides b."""
    if b % a == 0:
        return a, 1, 0
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - k * s1, t1, t0 - k * t1
    return a, s0, t0


def _sparse_echelon(rows: Sequence[SparseRow]) -> tuple[dict, list[int]]:
    """``(echelon, dependent)`` for the integer matrix whose rows are the
    sparse ``rows`` (missing keys are zero entries).

    ``echelon`` maps the pivot column of each of its rows to (the order it
    was stored in, the row), in storage order; it has full row rank and
    generates the row lattice.  ``dependent`` are the indices of the rows
    that lie in the Q-span of the rows before them, so the rank is the
    number of rows less their number.

    One pass reduces each row r in turn against a sparse echelon E, using
    only unimodular row operations (Kannan and Bachem, SIAM J. Comput. 8,
    1979), so that E and the rows still to come always generate the row
    lattice.  Each row of E has a pivot column and is zero on the pivot
    columns of the rows stored before it.  r meets the pivots it has in
    storage order (a heap).  At the pivot c of the row p of E, with
    q = p[c], x = r[c] and g = s*q + t*x = +-gcd(q, x), s = 1 and t = 0
    when q divides x,

        (p, r) <- (s*p + t*r, (q/g)*r - (x/g)*p),

    a change of determinant s*q/g + t*x/g = 1 that clears c from r and
    leaves g at p's pivot c.  Both rows are zero on the pivots stored
    before p, so no pivot already cleared comes back, and p stays zero on
    them.  Rows are never divided by their content: that would change the
    lattice.  Once r is zero on every pivot, it is in the Q-span of E
    exactly when it is zero (read a combination of the rows of E at their
    pivots, in storage order), and then its row is dependent; otherwise r
    joins E with an entry of least absolute value as its pivot.
    """
    echelon_rows: dict = {}  # pivot column -> (order stored, row)
    dependent = []
    for index, v in enumerate(rows):
        r = {c: x for c, x in v.items() if x}
        heap = [(echelon_rows[c][0], c) for c in r if c in echelon_rows]
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)[1]
            x = r.get(c)
            if x is None:
                continue
            order, p = echelon_rows[c]
            q = p[c]
            g, s, t = _bezout(q, x)
            if t:
                new = {k: s * y for k, y in p.items()}
                for k, y in r.items():
                    new[k] = new.get(k, 0) + t * y
                echelon_rows[c] = (order, {k: y for k, y in new.items() if y})
            a, b = q // g, x // g
            if a != 1:
                for k in r:
                    r[k] *= a
            for k, y in p.items():
                z = r.get(k, 0) - b * y
                if z:
                    if k not in r and k in echelon_rows:
                        heapq.heappush(heap, (echelon_rows[k][0], k))
                    r[k] = z
                else:
                    r.pop(k, None)
        if r:
            pivot = min(r, key=lambda k: abs(r[k]))
            echelon_rows[pivot] = (len(echelon_rows), r)
        else:
            dependent.append(index)
    return echelon_rows, dependent


def rank(m: Sequence[Sequence[int]]) -> int:
    """Exact rank over Q; 0 for the empty matrix.  It is the number of rows
    less those in the span of the rows before them (``_sparse_echelon``)."""
    return len(m) - len(_sparse_echelon([dict(enumerate(row)) for row in m])[1])


def cokernel(rows: Sequence[SparseRow]) -> tuple[list[int], list[int]]:
    """``(divisors, dependent)`` for the integer matrix whose rows are the
    sparse ``rows`` (missing keys are zero entries).

    ``divisors`` are its nonzero elementary divisors, in divisibility-chain
    order; a matrix and its transpose have the same ones, so the rows may
    just as well be its columns.  ``dependent`` are the indices of the rows
    that lie in the Q-span of the rows before them.  The other rows are
    the greedy row basis, so the unit vectors at the dependent indices are
    a Q-basis of the cokernel of the matrix.

    Both are read off the sparse echelon E of ``_sparse_echelon``, which
    generates the row lattice and so has the divisors of the matrix.  Walk
    E in storage order, keeping the non-unit rows so far in N.  A row with
    a +-1 pivot at c clears c from N by row operations; no later row of E
    has an entry at c, so column operations clear the rest of the row and
    change no other, and it splits off a divisor 1.  A row with a non-unit
    pivot joins N.  The divisors of what is left, N, come from
    ``smith_normal_form``.
    """
    echelon_rows, dependent = _sparse_echelon(rows)
    units = 0
    rest: list[dict] = []
    for c, (_, p) in echelon_rows.items():  # in storage order
        u = p[c]
        if u not in (1, -1):
            rest.append(p)
            continue
        for n in rest:
            f = n.get(c, 0) * u  # = n[c] / u
            if f:
                for k, y in p.items():
                    z = n.get(k, 0) - f * y
                    if z:
                        n[k] = z
                    else:
                        n.pop(k, None)
        units += 1
    divisors = [1] * units
    if rest:
        where: dict = {}
        for n in rest:
            for k in n:
                where.setdefault(k, len(where))
        block = [[0] * len(where) for _ in rest]
        for dense, n in zip(block, rest):
            for k, x in n.items():
                dense[where[k]] = x
        divisors += [x for x in diagonal_of(smith_normal_form(block)[1]) if x]
    return divisors, dependent


def solve_integer(
    m: Sequence[Sequence[int]], b: Sequence[int]
) -> Optional[Vector]:
    """Some integer x with M x = b, or None when no integer solution exists."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if len(b) != rows:
        raise ShapeError(f"system with {rows} rows and rhs of length {len(b)}")
    u, d, v = smith_normal_form(m)
    c = mat_vec(u, b)
    diag = diagonal_of(d)
    y = [0] * cols
    for i in range(rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return mat_vec(v, y)


def kernel_basis(m: Sequence[Sequence[int]]) -> list[Vector]:
    """Lattice basis of {x in Z^c : M x = 0} (a saturated sublattice)."""
    cols = len(m[0]) if m else 0
    _, d, v = smith_normal_form(m)
    diag = diagonal_of(d)
    free = [j for j in range(cols) if j >= len(diag) or diag[j] == 0]
    return [tuple(v[i][j] for i in range(cols)) for j in free]


class QuotientLatticePresentation(NamedTuple):
    """Z^n modulo a sublattice, presented as Z^rank (+) sum Z/d_i.

    Built from the Smith normal form U G V = D of the generator matrix G:
    the rows of U at ``free_rows`` (where D has no nonzero diagonal entry)
    give ``free_part``, the coordinates of v in Z^rank.  ``torsion`` is
    reported exactly as computed (no saturation).
    """

    n: int
    rank: int
    torsion: tuple[int, ...]
    u: tuple[Vector, ...]
    free_rows: tuple[int, ...]

    def free_part(self, v: Sequence[int]) -> Vector:
        if len(v) != self.n:
            raise ShapeError(f"vector of length {len(v)} in Z^{self.n}")
        return tuple(pairing(self.u[i], v) for i in self.free_rows)

    def lift_basis(self) -> list[Vector]:
        """Vectors in Z^n mapping to the free unit coordinates."""
        uinv = invert_unimodular([list(r) for r in self.u])
        return [
            tuple(uinv[i][j] for i in range(self.n)) for j in self.free_rows
        ]


def quotient_by_sublattice(
    n: int, generators: Sequence[Sequence[int]]
) -> QuotientLatticePresentation:
    """Present Z^n / <generators> as free part plus elementary divisors."""
    for g in generators:
        if len(g) != n:
            raise ShapeError(f"generator of length {len(g)} in Z^{n}")
    g = [[gen[i] for gen in generators] for i in range(n)]  # one column each
    u, d, _ = smith_normal_form(g)
    diag = diagonal_of(d)
    free_rows = tuple(
        i for i in range(n) if i >= len(diag) or diag[i] == 0
    )
    return QuotientLatticePresentation(
        n,
        len(free_rows),
        tuple(x for x in diag if x > 1),
        tuple(tuple(r) for r in u),
        free_rows,
    )
