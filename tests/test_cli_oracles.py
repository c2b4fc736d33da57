"""CLI payloads checked against the benchmark's oracles.

``perfbench/oracles.py`` computes what every subcommand must print from
the generator's own fan data (face lattice, h-vector, brute-force Hilbert
bases), without torikit.  Each example writes one relabelled fan, runs
``cli.main`` on it with ``--format json`` and hands the exit code and the
payload to the matching ``check_<subcommand>``.  ``ring``, ``certify`` and
the equivariant ``betti`` run up to degrees past 2n.
"""

import contextlib
import io
import json
import math
import random
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torikit.cli import main

from conftest import fans, oracles

P, Q, W = fans.projective_space, fans.p1_power, fans.weighted_projective_space
SMOOTH = [
    P(1), P(2), P(3), Q(2), Q(3),
    *(fans.hirzebruch(a) for a in range(4)),
    fans.blow_up_points(P(3), 1),
    fans.blow_up_points(P(3), 2),
    fans.iterated_blowup_p2(3),
    fans.iterated_blowup_p2(8),
]
SINGULAR = [W((1, 1, 2)), W((1, 2, 3)), W((1, 1, 1, 2))]

# (subcommand, options, oracle); the equivariant series, the ring and the
# certificate take a --max-degree
SMOOTH_CALLS = [
    ("validate", (), oracles.check_validate),
    ("orbits", (), oracles.check_orbits),
    ("hilbert", (), oracles.check_hilbert),
    ("picard", (), oracles.check_picard),
    ("betti", ("--ordinary",), oracles.check_betti_ordinary),
    ("betti", None, oracles.check_betti),
    ("ring", None, oracles.check_ring),
    ("certify", None, oracles.check_certify),
]
SINGULAR_CALLS = SMOOTH_CALLS[:3]
NEEDS_SMOOTH = ["picard", "betti", "ring", "certify"]

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(data, argv):
    """Exit code, stdout and stderr of ``main`` on the fan's file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        path = f"{folder}/fan.fan"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data.text())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path, *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def relabelled(draw, families):
    data = draw(st.sampled_from(families))
    return fans.relabel(data, random.Random(draw(st.integers(0, 2**16))))


@SETTINGS
@given(st.data())
def test_smooth_fans_match_the_oracles(draw):
    data = relabelled(draw.draw, SMOOTH)
    name, options, check = draw.draw(st.sampled_from(SMOOTH_CALLS))
    degree = 20
    if options is None:
        degree = 2 * draw.draw(st.integers(0, data.n + 2))
        options = ("--max-degree", str(degree))
    code, out, err = run(data, [name, *options, "--format", "json"])
    assert err == ""
    reason = check(data, degree, code, json.loads(out))
    assert reason is None, (data.name, name, options, reason)


@SETTINGS
@given(st.data())
def test_singular_fans_match_the_oracles(draw):
    data = relabelled(draw.draw, SINGULAR)
    name, options, check = draw.draw(st.sampled_from(SINGULAR_CALLS))
    code, out, err = run(data, [name, *options, "--format", "json"])
    assert err == ""
    reason = check(data, 20, code, json.loads(out))
    assert reason is None, (data.name, name, reason)
    # the invariants of smooth fans are refused with a message
    code, out, err = run(data, [draw.draw(st.sampled_from(NEEDS_SMOOTH)), "--max-degree", "4"])
    assert (code, out) == (1, "")
    assert err.startswith("error: fan not smooth: rays of cone ")


@SETTINGS
@given(st.data())
def test_overlapping_fans_are_refused(draw):
    """A maximal cone, and a copy of it with one ray swapped for a ray
    through its interior: the two overlap in a non-face."""
    data = relabelled(draw.draw, [d for d in SMOOTH + SINGULAR if d.n >= 2])
    sigma = draw.draw(st.sampled_from(data.maxcones))
    dropped = draw.draw(st.sampled_from(sigma))
    total = [sum(col) for col in zip(*(data.rays[i] for i in sigma))]
    interior = tuple(x // math.gcd(*total) for x in total)
    extra = tuple(i for i in sigma if i != dropped) + (len(data.rays),)
    bad = fans.FanData(data.name, data.n, data.rays + (interior,), data.maxcones + (extra,))
    code, out, err = run(bad, ["validate", "--format", "json"])
    assert oracles.check_invalid(bad, 20, code, json.loads(out)) is None
    # every other subcommand refuses the fan before computing anything
    code, out, err = run(bad, [draw.draw(st.sampled_from(NEEDS_SMOOTH + ["orbits", "hilbert"]))])
    assert (code, out) == (1, "")
    assert err.startswith("error: fan is not valid: intersection of cones ")
