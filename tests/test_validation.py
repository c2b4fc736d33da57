"""Fan validation, by wall crossing or on maximal-cone pairs, against the
all-pairs check.

``exhaustive_validate`` is the check ``validate_fan`` made before it
restricted axiom (b) to pairs of maximal cones: every pair of cones, faces
included, each face built afresh.  It is kept here as the reference.  The
fans come from the benchmark's generator, relabelled, and from
perturbations that break them.  The wall-crossing certificate must hold
on every generated family and on no fan that is invalid or incomplete.
Every library entry point that needs a valid fan is checked to refuse an
invalid one.
"""

import dataclasses
import math
import random
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import torikit.cone
import torikit.fan
from torikit import (
    Fan,
    ToricError,
    check_restriction_injectivity,
    divisor_class,
    equivariant_poincare_series,
    orbit_table,
    ordinary_cohomology,
    ordinary_poincare_polynomial,
    parse_fan,
    picard,
    sr_presentation,
    stratify,
    validate_fan,
)
from torikit.cli import main
from torikit.cone import Cone, double_description
from torikit.fan import ValidationReport

from conftest import FAN_DIR, fans, load_fan


def exhaustive_validate(fan: Fan) -> ValidationReport:
    """Pointedness, axiom (a), and axiom (b) on every pair of cones."""
    report = ValidationReport()
    for c in fan.cones:
        if not fan.cone(c).has_vertex():
            report.add("vertex", f"cone {c} contains a line (no vertex)")
    if not report.valid:
        return report
    cone_set = set(fan.cones)
    for c in fan.cones:
        for f in fan.cone(c).face_generator_sets:
            face_rayset = tuple(sorted(c[i] for i in f))
            if face_rayset not in cone_set:
                report.add(
                    "axiom-a",
                    f"face {face_rayset} of cone {c} is missing from the fan",
                )
    for i, c1 in enumerate(fan.cones):
        for c2 in fan.cones[i + 1 :]:
            k1, k2 = fan.cone(c1), fan.cone(c2)
            ineqs = k1.dual_generators + k2.dual_generators
            rays, lin = double_description(ineqs, fan.n)
            inter = Cone(
                list(rays) + list(lin) + [tuple(-x for x in l) for l in lin],
                fan.n,
            )
            for c, cone in ((c1, k1), (c2, k2)):
                if not any(
                    inter.same_cone(
                        Cone([cone.generators[j] for j in sorted(f)], fan.n)
                    )
                    for f in cone.face_generator_sets
                ):
                    report.add(
                        "axiom-b",
                        f"intersection of cones {c1} and {c2} "
                        f"is not a face of {c}",
                    )
    return report


def kinds(report: ValidationReport) -> set[str]:
    return {kind for kind, _ in report.violations}


def complete_by_facet_count(fan: Fan) -> bool:
    """For a valid fan: every maximal cone is full dimensional and every
    cone of dimension n - 1 lies in exactly two of them."""
    top = [set(c) for c in fan.maximal_cones]
    return all(fan.cone(c).dim == fan.n for c in fan.maximal_cones) and all(
        sum(set(c) <= d for d in top) == 2
        for c in fan.cones
        if fan.cone(c).dim == fan.n - 1
    )


def assert_agree(fan: Fan) -> ValidationReport:
    """The two checks agree, and the wall-crossing certificate, when it
    holds, vouches only for a valid and complete fan."""
    fast, slow = validate_fan(fan), exhaustive_validate(fan)
    assert fast.valid == slow.valid, (fast.violations, slow.violations)
    assert kinds(fast) == kinds(slow), (fast.violations, slow.violations)
    if fan.wall_certified:
        assert slow.valid and complete_by_facet_count(fan), slow.violations
    return fast


FAMILIES = [
    fans.projective_space(2),
    fans.projective_space(3),
    fans.p1_power(2),
    fans.p1_power(3),
    *(fans.hirzebruch(a) for a in range(4)),
    fans.blow_up_points(fans.projective_space(2), 2),
    fans.blow_up_points(fans.projective_space(3), 1),
    fans.iterated_blowup_p2(3),
    fans.weighted_projective_space((1, 1, 2)),
    fans.weighted_projective_space((1, 2, 3)),
    fans.weighted_projective_space((1, 1, 1, 2)),
]


def interior_ray(rays, cone):
    """The sum of the cone's rays, primitive: a ray through its interior."""
    total = [sum(col) for col in zip(*(rays[i] for i in cone))]
    g = math.gcd(*total)
    return tuple(x // g for x in total)


def build(n, rays, maxcones) -> Fan:
    try:
        return Fan(n, rays, maxcones)
    except ValueError:  # the perturbation made two rays equal
        assume(False)


@st.composite
def labelled_fans(draw):
    data = draw(st.sampled_from(FAMILIES))
    return fans.relabel(data, random.Random(draw(st.integers(0, 2**16))))


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@SETTINGS
@given(labelled_fans())
def test_generated_fans_are_valid_under_both_checks(data):
    """Every generated family is complete and simplicial, and certified."""
    fan = Fan(data.n, data.rays, data.maxcones)
    assert assert_agree(fan).valid
    assert fan.wall_certified


@SETTINGS
@given(labelled_fans(), st.data())
def test_overlapping_extra_maximal_cone_is_invalid(data, draw):
    """Keep a maximal cone and add a copy with one ray swapped for a ray
    through its interior; the two overlap in a non-face."""
    sigma = draw.draw(st.sampled_from(data.maxcones))
    dropped = draw.draw(st.sampled_from(sigma))
    rays = list(data.rays) + [interior_ray(data.rays, sigma)]
    extra = tuple(i for i in sigma if i != dropped) + (len(rays) - 1,)
    fan = build(data.n, rays, list(data.maxcones) + [extra])
    assert not assert_agree(fan).valid


@SETTINGS
@given(labelled_fans(), st.data())
def test_ray_moved_into_another_cone_is_invalid(data, draw):
    v = draw.draw(st.integers(0, len(data.rays) - 1))
    others = [c for c in data.maxcones if v not in c]
    assume(others)
    tau = draw.draw(st.sampled_from(others))
    rays = list(data.rays)
    rays[v] = interior_ray(data.rays, tau)
    fan = build(data.n, rays, data.maxcones)
    assert not assert_agree(fan).valid


@SETTINGS
@given(labelled_fans(), st.data())
def test_perturbed_ray_coordinates_agree(data, draw):
    """Moving a ray a little may keep the fan valid and complete or break
    it; validation agrees with the reference either way."""
    v = draw.draw(st.integers(0, len(data.rays) - 1))
    shift = draw.draw(st.lists(st.integers(-2, 2), min_size=data.n, max_size=data.n))
    moved = tuple(x + y for x, y in zip(data.rays[v], shift))
    assume(any(moved))
    rays = list(data.rays)
    rays[v] = moved
    assert_agree(build(data.n, rays, data.maxcones))


@SETTINGS
@given(labelled_fans(), st.data())
def test_incomplete_subfans_agree(data, draw):
    keep = draw.draw(st.lists(st.sampled_from(data.maxcones), min_size=1, unique=True))
    assert assert_agree(Fan(data.n, data.rays, keep)).valid


@SETTINGS
@given(labelled_fans(), st.data())
def test_maximal_cones_replaced_by_a_facet_agree(data, draw):
    """Some maximal cones give way to one of their facets, so that there
    are lower-dimensional maximal cones; with an extra cone overlapping a
    kept one, such a fan is invalid."""
    full = Fan(data.n, data.rays, data.maxcones)
    cones = []
    for c in full.maximal_cones:
        if draw.draw(st.booleans()):
            facets = [
                f
                for f in full.cones
                if set(f) < set(c) and full.cone(f).dim == full.cone(c).dim - 1
            ]
            c = draw.draw(st.sampled_from(facets))
        cones.append(c)
    rays = list(data.rays)
    wide = [c for c in cones if len(c) > 1]
    overlap = bool(wide) and draw.draw(st.booleans())
    if overlap:
        sigma = draw.draw(st.sampled_from(wide))
        dropped = draw.draw(st.sampled_from(sigma))
        rays.append(interior_ray(data.rays, sigma))
        cones.append(tuple(i for i in sigma if i != dropped) + (len(rays) - 1,))
    assert assert_agree(build(data.n, rays, cones)).valid == (not overlap)


QUADRANT_RAYS = ((1, 0), (0, 1), (1, 1))
UNIT_RAYS_3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# Five 2-D cones in a cycle that turns back at the rays (1, 2) and (1, 0):
# every ray lies in two cones, but at those two the cones lie on the same
# side.  The interior point of (0, 1), (-2, 0), is covered once.
FOLDED_RAYS = ((-1, 2), (-1, -2), (5, -1), (1, 2), (1, 0))
FOLDED_CONES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
# A complete fan of four 2-D cones and an extra cone (1, 3) over two of
# them: the rays (1, 0) and (-5, 1) lie in three cones each.
TRIPLE_RAYS = ((-1, -5), (1, 0), (-1, 5), (-5, 1))
TRIPLE_CONES = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]


@pytest.mark.parametrize(
    "fan, valid, violations",
    [
        # (2,) and (0, 2) sit on a ray subset of the quadrant that is not
        # a face of it, so they meet the quadrant in a non-face.
        (Fan(2, QUADRANT_RAYS, [(), (0,), (1,), (2,), (0, 2), (0, 1, 2)]), False, None),
        # (0, 1) spans the same quadrant as (0, 1, 2) on fewer rays.
        (Fan(2, QUADRANT_RAYS, [(), (0,), (1,), (0, 1), (0, 1, 2)]), True, None),
        # The faces are not listed; ``Fan`` adds them.
        (Fan(2, ((1, 0), (0, 1)), [(0, 1)]), True, []),
        (load_fan("overlap_invalid"), False, None),
        (load_fan("a1_singular"), True, None),
        (load_fan("square_cone"), True, []),
        (Fan(2, FOLDED_RAYS, FOLDED_CONES), False, None),
        (Fan(2, TRIPLE_RAYS, TRIPLE_CONES), False, None),
        # The ray (2,) is not listed, a face of the faces (0, 2) and (1, 2)
        # as well as of the maximal cone; ``Fan`` adds it.
        (
            Fan(3, UNIT_RAYS_3, [(), (0,), (1,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]),
            True,
            [],
        ),
    ],
    ids=[
        "ray-through-quadrant",
        "quadrant-on-fewer-rays",
        "faces-missing",
        "overlap_invalid",
        "a1_singular",
        "square_cone",
        "folded-cycle",
        "wall-in-three-cones",
        "face-of-a-face-missing",
    ],
)
def test_hand_built_edge_cases(fan, valid, violations):
    report = assert_agree(fan)
    assert report.valid == valid
    if violations is not None:
        assert report.violations == violations


def test_overlap_fan_reports_only_its_maximal_pair():
    report = validate_fan(load_fan("overlap_invalid"))
    assert report.violations == [
        ("axiom-b", f"intersection of cones (0, 1) and (2, 3) is not a face of {c}")
        for c in ((0, 1), (2, 3))
    ]


def less_one_cone(data: fans.FanData) -> fans.FanData:
    """The family without its first maximal cone: valid, but incomplete,
    so validation falls back to the pair check."""
    return dataclasses.replace(data, maxcones=data.maxcones[1:])


def test_the_pentagram_is_refused_by_its_interior_point_alone():
    """Five 2-D cones that wind around the origin twice.  Every ray lies in
    two cones, whose other rays lie on opposite sides of it, so only the
    interior point (1, 0) + (-4, 3) = (-3, 3), which (3, 4) also contains,
    tells it from a fan; the pair check then names the overlaps."""
    rays = ((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3))
    cones = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    det = lambda u, v: u[0] * v[1] - u[1] * v[0]
    for v in range(5):
        a, b = [w for c in cones if v in c for w in c if w != v]
        assert det(rays[v], rays[a]) * det(rays[v], rays[b]) < 0
    fan = Fan(2, rays, cones)
    assert not fan.wall_certified
    report = assert_agree(fan)
    assert report.violations[:2] == [
        ("axiom-b", f"intersection of cones (0, 1) and (2, 3) is not a face of {c}")
        for c in ((0, 1), (2, 3))
    ]
    assert len(report.violations) == 10


@pytest.mark.parametrize(
    "text",
    [
        less_one_cone(fans.projective_space(4)).text(),
        less_one_cone(fans.p1_power(3)).text(),
        less_one_cone(fans.hirzebruch(2)).text(),
        (FAN_DIR / "affine_plane.fan").read_text(),
    ],
    ids=["P^4", "(P^1)^3", "F_2", "affine plane"],
)
def test_the_fallback_gates_and_picard_read_only_the_given_cones(monkeypatch, text):
    """On valid fans that wall crossing does not certify (each family less
    one maximal cone, and the affine plane), validation, the smoothness
    and completeness verdicts and Picard never build the face closure."""

    def refuse(fan):
        raise AssertionError("the face closure was built")

    monkeypatch.setattr(Fan, "_closure", property(refuse))
    fan = parse_fan(text)
    assert not fan.wall_certified
    assert validate_fan(fan).valid
    assert torikit.fan.is_smooth_fan(fan)
    assert not torikit.fan.is_complete(fan)
    used = {v for c in fan.maximal_cones for v in c}
    assert picard(fan).equivariant_rank == len(used)


@pytest.mark.parametrize(
    "data", [fans.projective_space(5), fans.p1_power(4)], ids=["P^5", "(P^1)^4"]
)
def test_a_certified_fan_makes_no_pair_check(monkeypatch, data):
    """Wall crossing needs only the facet normals the parse computed: one
    double description per maximal cone, and no intersection."""
    checks, duals = [], []
    check_pair, dd = torikit.fan._check_pair, torikit.cone.double_description

    def counting_dd(*args, **kwargs):
        duals.append(kwargs.get("within"))
        return dd(*args, **kwargs)

    monkeypatch.setattr(torikit.fan, "_check_pair", lambda *a: checks.append(a))
    monkeypatch.setattr(torikit.cone, "double_description", counting_dd)
    monkeypatch.setattr(torikit.fan, "double_description", counting_dd)
    fan = parse_fan(data.text())
    assert validate_fan(fan).violations == []
    assert fan.wall_certified
    assert checks == []
    assert duals == [None] * len(fan.maximal_cones)
    assert torikit.fan.incompleteness_reasons(fan) == []


@pytest.mark.parametrize(
    "data, pairs",
    [(less_one_cone(fans.projective_space(5)), 10), (less_one_cone(fans.p1_power(4)), 105)],
    ids=["P^5", "(P^1)^4"],
)
def test_axiom_b_is_checked_once_per_maximal_pair(monkeypatch, data, pairs):
    """On a fan that takes the fallback (P^5 and (P^1)^4, each less one
    maximal cone), one pair check per pair of maximal cones."""
    fan = Fan(data.n, data.rays, data.maxcones)
    assert not fan.wall_certified
    assert len(fan.maximal_cones) * (len(fan.maximal_cones) - 1) // 2 == pairs
    calls = []
    check_pair = torikit.fan._check_pair

    def counting(*args):
        calls.append(args[1:])
        return check_pair(*args)

    monkeypatch.setattr(torikit.fan, "_check_pair", counting)
    assert validate_fan(fan).valid
    assert len(calls) == pairs
    assert all(c in fan.maximal_cones for pair in calls for c in pair)


@pytest.mark.parametrize(
    "data, count",
    [(less_one_cone(fans.projective_space(4)), 10), (less_one_cone(fans.p1_power(3)), 28)],
    ids=["P^4", "(P^1)^3"],
)
def test_parse_and_validate_make_one_double_description_per_cone_and_pair(
    monkeypatch, data, count
):
    """On a fan that takes the fallback, one dual per maximal cone, built
    once, and one intersection per maximal pair: 4 + 6 on P^4 and 7 + 21
    on (P^1)^3, each less one maximal cone.  No face needs a dual, and
    each intersection cuts the first cone of its pair."""
    calls = []
    dd = torikit.cone.double_description

    def counting(*args, **kwargs):
        calls.append((tuple(args[0]), kwargs.get("within")))
        return dd(*args, **kwargs)

    monkeypatch.setattr(torikit.cone, "double_description", counting)
    monkeypatch.setattr(torikit.fan, "double_description", counting)
    fan = parse_fan(data.text())
    assert validate_fan(fan).valid
    assert not fan.wall_certified
    pairs = len(fan.maximal_cones) * (len(fan.maximal_cones) - 1) // 2
    assert len(calls) == len(fan.maximal_cones) + pairs == count
    maximal = [fan.cone(c) for c in fan.maximal_cones]
    duals = sorted(ineqs for ineqs, within in calls if within is None)
    assert duals == sorted(k.generators for k in maximal)
    assert sum(within in maximal for _, within in calls) == pairs


@pytest.mark.parametrize(
    "data", [fans.projective_space(4), fans.p1_power(3)], ids=["P^4", "(P^1)^3"]
)
def test_faces_get_no_dual_and_no_chart_from_the_gates(monkeypatch, data):
    """On a smooth fan the smoothness gate charts only the maximal cones,
    and the orbit table reads each cone's dimension, with no chart and no
    double description."""
    fan = parse_fan(data.text())
    torikit.fan.require_smooth(fan)

    def cached(name):
        return {c for c in fan.cones if name in vars(fan.cone(c))}

    assert cached("_chart") == cached("facet_normals") == set(fan.maximal_cones)
    calls = []
    monkeypatch.setattr(torikit.cone, "double_description", calls.append)
    monkeypatch.setattr(torikit.fan, "double_description", calls.append)
    assert len(orbit_table(fan)) == len(fan.cones)
    assert calls == []
    assert cached("_chart") == cached("facet_normals") == set(fan.maximal_cones)


@pytest.mark.parametrize(
    "data",
    [fans.p1_power(3), fans.weighted_projective_space((1, 3, 5, 31))],
    ids=["(P^1)^3", "P(1,3,5,31)"],
)
def test_hilbert_reads_every_face_off_a_maximal_cone(monkeypatch, tmp_path, capsys, data):
    """``hilbert`` on a simplicial fan runs one double description per
    maximal cone, for its facets, and ranks the generators of the maximal
    cones only: each face takes its dimension and its facet normals from
    a maximal cone."""
    fan = parse_fan(data.text())
    maximal = sorted(fan.cone(c).generators for c in fan.maximal_cones)
    cones = len(fan.cones)
    path = tmp_path / "fan.fan"
    path.write_text(data.text())
    duals, ranked = [], []
    dd, rank = torikit.cone.double_description, torikit.cone.rank

    def counting_dd(*args, **kwargs):
        duals.append(tuple(args[0]))
        return dd(*args, **kwargs)

    def counting_rank(m):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "dim":
            ranked.append(caller.f_locals["self"].generators)
        return rank(m)

    monkeypatch.setattr(torikit.cone, "double_description", counting_dd)
    monkeypatch.setattr(torikit.fan, "double_description", counting_dd)
    monkeypatch.setattr(torikit.cone, "rank", counting_rank)
    assert main(["hilbert", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == cones
    assert sorted(duals) == sorted(ranked) == maximal


GATED = {
    "sr_presentation": sr_presentation,
    "ordinary_cohomology": lambda fan: ordinary_cohomology(fan, 4),
    "check_restriction_injectivity": lambda fan: check_restriction_injectivity(fan, 4),
    "stratify": stratify,
    "equivariant_poincare_series": equivariant_poincare_series,
    "ordinary_poincare_polynomial": ordinary_poincare_polynomial,
    "picard": picard,
    "divisor_class": lambda fan: divisor_class(fan, [0] * len(fan.rays)),
    "orbit_table": orbit_table,
    "incompleteness_reasons": torikit.fan.incompleteness_reasons,
    "is_complete": torikit.fan.is_complete,
}


@pytest.mark.parametrize("entry", GATED)
def test_library_entry_points_refuse_an_invalid_fan(entry):
    # cone (2, 3) of the overlap fan is also singular: validity is checked
    # first, so the message names the overlap, not the singular cone
    fan = load_fan("overlap_invalid")
    with pytest.raises(ToricError) as info:
        GATED[entry](fan)
    message = str(info.value)
    assert message.startswith("fan is not valid: ")
    assert "intersection of cones (0, 1) and (2, 3)" in message
