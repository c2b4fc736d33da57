"""Seeded generator of fan families, standard library only.

Every family is first built in a canonical form.  The seed then only
relabels it: a signed permutation of the coordinates, and a shuffle of the
order of the rays and of the maximal cones.  Relabelling changes no
invariant and no entry size, so every seed asks the program the same
questions; only the order in which it meets rows and columns changes.

All families here are simplicial, so the cones of a fan are exactly the
subsets of its maximal cones.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass

Vector = tuple[int, ...]
RaySet = tuple[int, ...]


@dataclass(frozen=True)
class FanData:
    """A simplicial fan as the benchmark knows it, independent of torikit."""

    name: str
    n: int
    rays: tuple[Vector, ...]
    maxcones: tuple[RaySet, ...]

    def cones(self) -> set[RaySet]:
        """Every face of every maximal cone, the zero cone included."""
        out: set[RaySet] = set()
        for mc in self.maxcones:
            for size in range(len(mc) + 1):
                out.update(itertools.combinations(mc, size))
        return out

    def text(self) -> str:
        """The fan in torikit's line-oriented file format."""
        lines = [f"# {self.name}", f"rank {self.n}", f"rays {len(self.rays)}"]
        lines += [" ".join(map(str, r)) for r in self.rays]
        lines.append(f"maxcones {len(self.maxcones)}")
        lines += [" ".join(map(str, c)) for c in self.maxcones]
        return "\n".join(lines) + "\n"


def _unit(n: int, i: int) -> Vector:
    return tuple(int(i == j) for j in range(n))


def projective_space(n: int) -> FanData:
    """P^n: rays e_1..e_n and -(e_1+...+e_n); every n of them span a cone."""
    rays = [_unit(n, i) for i in range(n)] + [tuple([-1] * n)]
    cones = itertools.combinations(range(n + 1), n)
    return FanData(f"P^{n}", n, tuple(rays), tuple(cones))


def p1_power(n: int) -> FanData:
    """(P^1)^n: rays +e_i (index 2i) and -e_i (index 2i+1), one per factor."""
    rays = []
    for i in range(n):
        rays += [_unit(n, i), tuple(-x for x in _unit(n, i))]
    cones = itertools.product(*[(2 * i, 2 * i + 1) for i in range(n)])
    return FanData(f"(P^1)^{n}", n, tuple(rays), tuple(cones))


def hirzebruch(a: int) -> FanData:
    """The Hirzebruch surface F_a."""
    rays = ((1, 0), (0, 1), (-1, a), (0, -1))
    return FanData(f"F_{a}", 2, rays, ((0, 1), (1, 2), (2, 3), (0, 3)))


def weighted_projective_space(weights: tuple[int, ...]) -> FanData:
    """P(1, w_1, ..., w_n): rays e_1..e_n and -(w_1, ..., w_n).

    The leading weight is 1, so the rays span Z^n and sum to zero with the
    given weights.  Only the maximal cones through the last ray are singular.
    """
    if weights[0] != 1:
        raise ValueError("the leading weight must be 1")
    n = len(weights) - 1
    rays = [_unit(n, i) for i in range(n)] + [tuple(-w for w in weights[1:])]
    cones = itertools.combinations(range(n + 1), n)
    name = "P(" + ",".join(map(str, weights)) + ")"
    return FanData(name, n, tuple(rays), tuple(cones))


def star_subdivide(fan: FanData, cone: RaySet) -> FanData:
    """Blow up the fixed point of a smooth maximal cone.

    The new ray is the sum of the cone's rays; the cone is replaced by the
    cones that swap one of its rays for the new one.
    """
    new_ray = tuple(sum(c) for c in zip(*(fan.rays[i] for i in cone)))
    v = len(fan.rays)
    cones = [c for c in fan.maxcones if c != cone]
    for i in cone:
        cones.append(tuple(sorted([w for w in cone if w != i] + [v])))
    return FanData(fan.name, fan.n, fan.rays + (new_ray,), tuple(cones))


def blow_up_points(fan: FanData, k: int) -> FanData:
    """Blow up the fixed points of the first k maximal cones of ``fan``."""
    out = fan
    for cone in fan.maxcones[:k]:
        out = star_subdivide(out, cone)
    return dataclasses.replace(out, name=f"{fan.name} blown up at {k} points")


def iterated_blowup_p2(k: int) -> FanData:
    """P^2 blown up k times, each time at a fixed point of the last blow-up.

    Step i subdivides the cone between the newest ray and its neighbour,
    alternating sides, so ray entries grow slowly and the picture stays
    a smooth complete fan with k + 3 maximal cones.
    """
    fan = projective_space(2)
    for i in range(k):
        newest = len(fan.rays) - 1
        touching = sorted(c for c in fan.maxcones if newest in c)
        fan = star_subdivide(fan, touching[i % len(touching)])
    return dataclasses.replace(fan, name=f"P^2 blown up {k} times")


def relabel(fan: FanData, rng: random.Random) -> FanData:
    """Apply a random signed coordinate permutation and order shuffles."""
    perm = list(range(fan.n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(fan.n)]
    rays = [tuple(signs[j] * r[perm[j]] for j in range(fan.n)) for r in fan.rays]
    order = list(range(len(rays)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    cones = [tuple(sorted(new_index[i] for i in c)) for c in fan.maxcones]
    rng.shuffle(cones)
    return FanData(fan.name, fan.n, tuple(rays[i] for i in order), tuple(cones))
