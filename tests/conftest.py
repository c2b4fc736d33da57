import importlib.util
import os
import pathlib
import random
import sys

import pytest
from hypothesis import strategies as st

from torikit import Fan, parse_fan

ROOT = pathlib.Path(__file__).resolve().parent.parent
FAN_DIR = ROOT / "fans"

# pytest puts src/ on sys.path (pyproject.toml); the CLI tests that run
# ``python -m torikit.cli`` as a subprocess need it on PYTHONPATH too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
)


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# The benchmark's stdlib fan generator (P^n, (P^1)^n, F_a, blow-ups,
# weighted P(w), relabellings), shared by the tests as ``conftest.fans``.
fans = _load("perfbench_fans", ROOT / "perfbench" / "fans.py")
# The benchmark's expected CLI outputs, computed without torikit, shared
# as ``conftest.oracles``; they import the generator as ``fans``.
sys.modules["fans"] = fans
oracles = _load("perfbench_oracles", ROOT / "perfbench" / "oracles.py")

SMOOTH_GOLDEN = ["affine_plane", "p1", "p2", "p1xp1", "hirzebruch1"]
COMPLETE_GOLDEN = ["p1", "p2", "p1xp1", "hirzebruch1"]

# P^2 with a fourth ray (1, 1) in no cone, though it lies inside cone {0, 1}.
P2_UNUSED_RAY = "rank 2\nrays 4\n1 0\n0 1\n-1 -1\n1 1\nmaxcones 3\n0 1\n1 2\n0 2\n"

# Lattice polygons with 4, 5 and 6 vertices; the cone over one of them, on
# the rays (v, N), has a dual with as many facets that is not simplicial.
POLYGONS = {
    "square": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "pentagon": [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
    "hexagon": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
}


def transpose(a):
    """The transpose of the matrix ``a``, as a list of rows."""
    return [list(col) for col in zip(*a)]


SMOOTH_FAMILIES = [
    *(fans.projective_space(n) for n in (1, 2, 3)),
    fans.p1_power(2),
    fans.p1_power(3),
    *(fans.hirzebruch(a) for a in range(4)),
    fans.blow_up_points(fans.projective_space(3), 2),
    *(fans.iterated_blowup_p2(k) for k in (1, 4, 8)),
]


@st.composite
def smooth_fans(draw):
    """A smooth fan of the benchmark's families, relabelled, its rays moved
    by a few unimodular shears x_i += q x_j, and, half the time, cut down
    to an incomplete subfan on some of its maximal cones."""
    data = draw(st.sampled_from(SMOOTH_FAMILIES))
    data = fans.relabel(data, random.Random(draw(st.integers(0, 2**16))))
    rays = [list(r) for r in data.rays]
    for _ in range(draw(st.integers(0, 3)) if data.n > 1 else 0):
        i = draw(st.integers(0, data.n - 1))
        j = (i + draw(st.integers(1, data.n - 1))) % data.n
        q = draw(st.integers(-2, 2))
        for r in rays:
            r[i] += q * r[j]
    cones = list(data.maxcones)
    if draw(st.booleans()):
        cones = draw(st.lists(st.sampled_from(cones), min_size=1, unique=True))
    return Fan(data.n, rays, cones)


def load_fan(name):
    return parse_fan((FAN_DIR / f"{name}.fan").read_text())


@pytest.fixture(scope="session")
def golden_fans():
    return {name: load_fan(name) for name in SMOOTH_GOLDEN}


@pytest.fixture(scope="session")
def p2():
    return load_fan("p2")


@pytest.fixture(scope="session")
def p1xp1():
    return load_fan("p1xp1")


@pytest.fixture(scope="session")
def hirzebruch1():
    return load_fan("hirzebruch1")


@pytest.fixture(scope="session")
def affine_plane():
    return load_fan("affine_plane")


@pytest.fixture(scope="session")
def p1():
    return load_fan("p1")


@pytest.fixture(scope="session")
def a1_singular():
    return load_fan("a1_singular")
