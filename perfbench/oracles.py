"""Expected CLI outputs, computed from the generator's own fan data.

Nothing here imports torikit: every expectation comes from the
combinatorics of the fan (face lattice, f- and h-vectors) or from small
exact computations written independently of the program under test.
Each ``check_<subcommand>`` takes the fan, the parsed ``--max-degree`` and
the CLI's exit code and JSON payload, and returns ``None`` when they are
right or a one-line reason when they are not.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, gcd

from fans import FanData, RaySet, Vector

PRIME = (1 << 61) - 1


def f_vector(fan: FanData) -> list[int]:
    """Number of cones of each dimension 0..n (simplicial: size = dim)."""
    f = [0] * (fan.n + 1)
    for c in fan.cones():
        f[len(c)] += 1
    return f


def h_vector(fan: FanData) -> list[int]:
    """h_k = sum_i (-1)^(k-i) C(n-i, k-i) f_i; the even Betti numbers of a
    smooth complete toric variety.  Their sum, the Euler characteristic,
    equals the number of maximal cones."""
    f, n = f_vector(fan), fan.n
    h = [
        sum((-1) ** (k - i) * comb(n - i, k - i) * f[i] for i in range(k + 1))
        for k in range(n + 1)
    ]
    if sum(h) != len(fan.maxcones):
        raise ValueError(f"{fan.name}: Euler characteristic {sum(h)} != "
                         f"{len(fan.maxcones)} maximal cones")
    return h


def _interleave(h: list[int]) -> list[int]:
    out = []
    for x in h:
        out += [x, 0]
    return out[:-1]


def determinant(rows: list[Vector]) -> int:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in r] for r in rows]
    n, det = len(a), Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if a[i][j] != 0), None)
        if piv is None:
            return 0
        if piv != j:
            a[j], a[piv] = a[piv], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, n):
            f = a[i][j] / a[j][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return int(det)


def _dual_generators(rays: list[Vector]) -> list[Vector]:
    """Primitive u_i with <u_i, rays_j> = 0 for j != i and > 0 for j = i,
    for n linearly independent rays in Z^n (rows of the adjugate)."""
    n = len(rays)
    out = []
    for i in range(n):
        # u_i[k] is the cofactor of entry (i, k) of the ray matrix.
        u = []
        for k in range(n):
            minor = [
                [r[c] for c in range(n) if c != k]
                for j, r in enumerate(rays) if j != i
            ]
            u.append((-1) ** (i + k) * (determinant(minor) if minor else 1))
        if sum(a * b for a, b in zip(u, rays[i])) < 0:
            u = [-x for x in u]
        g = 0
        for x in u:
            g = gcd(g, x)
        out.append(tuple(x // g for x in u))
    return out


def _pairs(x: Vector, rays: list[Vector]) -> list[int]:
    return [sum(a * b for a, b in zip(x, r)) for r in rays]


def hilbert_box(rays: list[Vector]) -> list[Vector]:
    """Hilbert basis of the dual of a full-dimensional simplicial cone by
    brute force: every lattice point of the closed parallelepiped spanned
    by the dual generators, minus the sums of two nonzero ones.

    The points are those with 0 <= <x, ray_i> <= <u_i, ray_i>; the box
    is scanned over all but the last coordinate, whose range is solved
    from those inequalities.
    """
    n = len(rays)
    gens = _dual_generators(rays)
    caps = [_pairs(u, rays)[i] for i, u in enumerate(gens)]
    lo = [sum(min(0, u[j]) for u in gens) for j in range(n)]
    hi = [sum(max(0, u[j]) for u in gens) for j in range(n)]
    points = []
    for head in itertools.product(*[range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1])]):
        first, last = lo[-1], hi[-1]
        for r, cap in zip(rays, caps):
            a, b = r[-1], sum(x * y for x, y in zip(head, r))
            if a > 0:
                first, last = max(first, -(b // a)), min(last, (cap - b) // a)
            elif a < 0:
                first, last = max(first, -((cap - b) // -a)), min(last, b // -a)
            elif not 0 <= b <= cap:
                first, last = 1, 0
        for z in range(first, last + 1):
            x = head + (z,)
            if any(x):
                points.append((x, _pairs(x, rays)))
    basis = [
        x for x, p in points
        if not any(
            y != x and all(a >= b for a, b in zip(p, q)) for y, q in points
        )
    ]
    return sorted(basis)


def _hilbert_2d(rays: list[Vector]) -> list[Vector]:
    """Hilbert basis of the dual of a 2-D cone by the Hirzebruch-Jung
    continued fraction of its dual generators."""
    u, w = _dual_generators(rays)
    d = u[0] * w[1] - u[1] * w[0]
    if d < 0:
        u, w, d = w, u, -d
    if d == 1:
        return sorted([u, w])
    # A lattice basis (e, u): det(u, e) = 1, then w = -k u + d e, 0 < k < d.
    a, b = _bezout(u[0], u[1])
    e = (-b, a)
    alpha = w[0] * e[1] - w[1] * e[0]
    t = -(-alpha // d)
    e = (e[0] + t * u[0], e[1] + t * u[1])
    k = d * t - alpha
    # d/k = b_1 - 1/(b_2 - ...); h_{i+1} = b_i h_i - h_{i-1} in (e, u).
    coeffs = []
    num, den = d, k
    while den:
        q = -(-num // den)
        coeffs.append(q)
        num, den = den, q * den - num
    hs = [(0, 1), (1, 0)]
    for q in coeffs:
        hs.append((q * hs[-1][0] - hs[-2][0], q * hs[-1][1] - hs[-2][1]))
    out = [(c0 * e[0] + c1 * u[0], c0 * e[1] + c1 * u[1]) for c0, c1 in hs]
    if out[-1] != w:
        raise ValueError(f"continued fraction ended at {out[-1]}, not {w}")
    return sorted(out)


def _bezout(x: int, y: int) -> tuple[int, int]:
    """(a, b) with a x + b y = 1 for coprime x, y."""
    old_r, r, old_s, s, old_t, t = x, y, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _hilbert_full(rays: list[Vector]) -> list[Vector]:
    """Hilbert basis of the dual of a full-dimensional simplicial cone.

    A signed permutation S of the coordinates is orthogonal, so the basis
    for S(rays) is S of the basis for rays.  The work is done once per
    class of cones under such maps, on the least image of ``rays``, and
    mapped back; every relabelling of a fan then costs one lookup.
    """
    n = len(rays)
    key, perm, signs = min(
        (tuple(sorted(_signed(perm, signs, r) for r in rays)), perm, signs)
        for perm in itertools.permutations(range(n))
        for signs in itertools.product((1, -1), repeat=n)
    )
    out = []
    for y in _hilbert_canonical(key):
        x = [0] * n
        for j in range(n):
            x[perm[j]] = signs[j] * y[j]
        out.append(tuple(x))
    return sorted(out)


def _signed(perm, signs, v: Vector) -> Vector:
    return tuple(s * v[p] for p, s in zip(perm, signs))


@functools.lru_cache(maxsize=None)
def _hilbert_canonical(rays: tuple[Vector, ...]) -> list[Vector]:
    rays = list(rays)
    if abs(determinant(rays)) == 1:
        return sorted(_dual_generators(rays))
    if len(rays) == 2:
        return _hilbert_2d(rays)
    return hilbert_box(rays)


def _check_hilbert_cone(fan: FanData, cone: RaySet, basis: list) -> str | None:
    rays = [fan.rays[i] for i in cone]
    basis = [tuple(h) for h in basis]
    if len(cone) == fan.n:
        want = _hilbert_full(rays)
        if sorted(basis) != want:
            return f"cone {list(cone)}: Hilbert basis {basis}, expected {want}"
        return None
    # A smooth cone of lower dimension: the monoid is N^k x Z^(n-k), so a
    # minimal generating set is k vectors pairing to the unit vectors on the
    # rays plus both signs of a basis of sigma^perp, together a Z-basis.
    k = len(cone)
    if len(basis) != k + 2 * (fan.n - k):
        return f"cone {list(cone)}: {len(basis)} generators, expected {2 * fan.n - k}"
    units = []
    lineality = []
    for h in basis:
        p = _pairs(h, rays)
        if not any(p):
            lineality.append(h)
        elif sorted(p) == [0] * (k - 1) + [1]:
            units.append((p.index(1), h))
        else:
            return f"cone {list(cone)}: generator {list(h)} pairs to {p}"
    plus = [b for b in lineality if b > tuple(-x for x in b)]
    paired = all(tuple(-x for x in b) in lineality for b in plus)
    if sorted(i for i, _ in units) != list(range(k)) or not paired or len(plus) != fan.n - k:
        return f"cone {list(cone)}: generators {basis} are not unit plus lineality"
    if abs(determinant([h for _, h in units] + plus)) != 1:
        return f"cone {list(cone)}: generators {basis} do not span Z^{fan.n}"
    return None


def _sorted_cones(fan: FanData) -> list[RaySet]:
    return sorted(fan.cones(), key=lambda c: (len(c), c))


def is_smooth(fan: FanData) -> bool:
    return all(
        abs(determinant([fan.rays[i] for i in c])) == 1 for c in fan.maxcones
    )


def minimal_nonfaces(fan: FanData) -> list[RaySet]:
    faces = fan.cones()
    out = []
    for size in range(1, len(fan.rays) + 1):
        for s in itertools.combinations(range(len(fan.rays)), size):
            if s not in faces and all(
                t in faces for t in itertools.combinations(s, size - 1)
            ):
                out.append(s)
    return sorted(out)


def face_monomials(fan: FanData, k: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree k supported on a face."""
    if k == 0:
        return [(0,) * len(fan.rays)]
    out = []
    for face in fan.cones():
        if not face or len(face) > k:
            continue
        for parts in _compositions(k, len(face)):
            e = [0] * len(fan.rays)
            for v, p in zip(face, parts):
                e[v] = p
            out.append(tuple(e))
    return out


def _compositions(k: int, parts: int):
    if parts == 1:
        yield (k,)
        return
    for first in range(1, k - parts + 2):
        for rest in _compositions(k - first, parts - 1):
            yield (first,) + rest


def _rank_mod_p(rows: list[list[int]]) -> int:
    a = [[x % PRIME for x in r] for r in rows]
    rank, cols = 0, len(a[0]) if a else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][j], PRIME - 2, PRIME)
        for i in range(len(a)):
            if i != rank and a[i][j]:
                f = a[i][j] * inv % PRIME
                a[i] = [(x - f * y) % PRIME for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def spans_quotient(fan: FanData, k: int, basis: list[tuple[int, ...]]) -> bool:
    """The basis monomials and the multiples theta_j * m of the linear
    forms span every face monomial of degree k, checked by a full rank
    modulo a prime (rank mod p never exceeds the rank over Q)."""
    monos = face_monomials(fan, k)
    index = {m: i for i, m in enumerate(monos)}
    faces = fan.cones()
    vectors = []
    for m in face_monomials(fan, k - 1):
        for j in range(fan.n):
            col = [0] * len(monos)
            for v, ray in enumerate(fan.rays):
                e = list(m)
                e[v] += 1
                support = tuple(i for i, x in enumerate(e) if x)
                if ray[j] and support in faces:
                    col[index[tuple(e)]] += ray[j]
            vectors.append(col)
    for b in basis:
        vectors.append([int(m == b) for m in monos])
    return _rank_mod_p(vectors) == len(monos)


def check_validate(fan: FanData, degree: int, rc, payload) -> str | None:
    want = {
        "command": "validate", "valid": True, "violations": [],
        "smooth": is_smooth(fan), "complete": True,
    }
    if rc != 0 or payload != want:
        return f"exit {rc}, payload {payload}, expected exit 0 and {want}"
    return None


def check_invalid(fan, degree, rc, payload) -> str | None:
    kinds = [v.get("kind") for v in payload.get("violations", [])]
    if rc != 1 or payload.get("valid") is not False or "axiom-b" not in kinds:
        return f"exit {rc} with violations {kinds}, expected exit 1 with axiom-b"
    return None


def check_orbits(fan: FanData, degree: int, rc, payload) -> str | None:
    want = [
        {
            "cone": list(c), "codim": len(c), "divisors": list(c),
            "stabilizer": {"rank": len(c), "torsion": []},
        }
        for c in _sorted_cones(fan)
    ]
    if rc != 0 or payload != {"command": "orbits", "orbits": want}:
        return f"exit {rc}; orbit table differs from the face lattice"
    return None


def check_betti_ordinary(fan: FanData, degree: int, rc, payload) -> str | None:
    want = {"command": "betti", "kind": "ordinary",
            "coefficients": _interleave(h_vector(fan))}
    if rc != 0 or payload != want:
        return f"exit {rc}, payload {payload}, expected {want}"
    return None


def check_betti(fan: FanData, degree: int, rc, payload) -> str | None:
    """Equivariant series: sum over cones of t^(2 dim) / (1 - t^2)^dim."""
    f = f_vector(fan)
    coeffs = [1] + [0] * degree
    for j in range(1, degree // 2 + 1):
        coeffs[2 * j] = sum(f[i] * comb(j - 1, i - 1) for i in range(1, fan.n + 1))
    want = {"command": "betti", "kind": "equivariant",
            "numerator": _interleave(h_vector(fan)),
            "denominator_exponent": fan.n, "coefficients": coeffs}
    if rc != 0 or payload != want:
        return f"exit {rc}, payload {payload}, expected {want}"
    return None


def check_ring(fan: FanData, degree: int, rc, payload) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    h = h_vector(fan)
    if payload.get("generators") != len(fan.rays):
        return f"{payload.get('generators')} generators, expected {len(fan.rays)}"
    if payload.get("relations") != [list(s) for s in minimal_nonfaces(fan)]:
        return f"relations {payload.get('relations')} are not the minimal non-faces"
    pieces = payload.get("cohomology", [])
    if [p.get("degree") for p in pieces] != list(range(0, degree + 1, 2)):
        return f"degrees {[p.get('degree') for p in pieces]}"
    for p in pieces:
        k = p["degree"] // 2
        rank = h[k] if k <= fan.n else 0
        basis = [tuple(b) for b in p["basis"]]
        if p["rank"] != rank or p["torsion"] != [] or len(basis) != rank:
            return f"H^{p['degree']}: rank {p['rank']} torsion {p['torsion']}, expected {rank}"
        if rank and not spans_quotient(fan, k, basis):
            return f"H^{p['degree']}: basis {basis} does not span the quotient"
    return None


def check_certify(fan: FanData, degree: int, rc, payload) -> str | None:
    sizes = [len(c) for c in fan.cones() if c]
    degrees = [
        {"degree": 2 * k, "domain_rank": r, "image_rank": r}
        for k in range(degree // 2 + 1)
        for r in [1 if k == 0 else sum(comb(k - 1, s - 1) for s in sizes)]
    ]
    want = {
        "command": "certify",
        "injectivity": {"all_injective": True, "degrees": degrees},
        "perfection": {"certified": True, "failures": []},
    }
    if rc != 0 or payload != want:
        return f"exit {rc}; certificate differs from the face count"
    return None


def check_picard(fan: FanData, degree: int, rc, payload) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    k, n = len(fan.rays), fan.n
    eq, ordinary = payload.get("equivariant", {}), payload.get("ordinary", {})
    if (eq.get("rank"), eq.get("torsion")) != (k, []):
        return f"Pic_T rank {eq.get('rank')} torsion {eq.get('torsion')}, expected {k}"
    if (ordinary.get("rank"), ordinary.get("torsion")) != (k - n, []):
        return f"Pic rank {ordinary.get('rank')} torsion {ordinary.get('torsion')}, expected {k - n}"
    maxcones = sorted(fan.maxcones)
    if payload.get("maximal_cones") != [list(c) for c in maxcones]:
        return "maximal cones differ from the fan's"
    basis = eq.get("basis", [])
    if len(basis) != k:
        return f"{len(basis)} families in the Pic_T basis, expected {k}"
    for family in basis:
        for (a, chi_a), (b, chi_b) in itertools.combinations(zip(maxcones, family), 2):
            for v in set(a) & set(b):
                if _pairs(tuple(x - y for x, y in zip(chi_a, chi_b)), [fan.rays[v]])[0]:
                    return f"family {family} disagrees on ray {v} of {a} and {b}"
    return None


def check_hilbert(fan: FanData, degree: int, rc, payload) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    entries = payload.get("cones", [])
    if [tuple(e["cone"]) for e in entries] != _sorted_cones(fan):
        return "cones differ from the face lattice"
    for e in entries:
        reason = _check_hilbert_cone(fan, tuple(e["cone"]), e["hilbert_basis"])
        if reason:
            return reason
    return None


