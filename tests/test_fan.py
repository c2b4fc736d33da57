import random

import pytest

from torikit import (
    Fan,
    ParseError,
    incompleteness_reasons,
    is_complete,
    is_smooth_fan,
    orbit_table,
    parse_fan,
    simplicial_complex,
    validate_fan,
)
from torikit.cli import main
from torikit.cone import Cone
from torikit.lattice import pairing

from conftest import COMPLETE_GOLDEN, P2_UNUSED_RAY, SMOOTH_GOLDEN, fans, load_fan, oracles


def test_parse_p2(p2):
    assert p2.n == 2
    assert p2.rays == ((1, 0), (0, 1), (-1, -1))
    assert len(p2.cones) == 7  # 0, three rays, three 2-cones
    assert p2.maximal_cones == ((0, 1), (0, 2), (1, 2))


def test_parse_comments_and_blank_lines():
    fan = parse_fan(
        "# leading comment\n\nrank 1\nrays 2 # trailing\n1\n-1\nmaxcones 2\n0\n1\n"
    )
    assert fan.rays == ((1,), (-1,))


def test_parse_normalizes_rays_with_warning():
    fan = parse_fan("rank 2\nrays 1\n2 4\nmaxcones 1\n0\n")
    assert fan.rays == ((1, 2),)
    assert len(fan.warnings) == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_fan("rang 2\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_fan("rank 2\nrays 1\n1\nmaxcones 1\n0\n")
    with pytest.raises(ParseError):
        parse_fan("rank 2\nrays 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_fan("rank 2\nrays 1\n1 0\nmaxcones 1\n5\n")
    with pytest.raises(ParseError):
        parse_fan("rank 0\nrays 0\nmaxcones 0\n")


def test_duplicate_rays_rejected():
    with pytest.raises(ParseError):
        parse_fan("rank 2\nrays 2\n1 0\n2 0\nmaxcones 1\n0 1\n")


def test_cones_sorted_by_dimension(p2):
    dims = [p2.cone(c).dim for c in p2.cones]
    assert dims == sorted(dims)
    assert p2.cones[0] == ()


def test_golden_fans_validate():
    for name in SMOOTH_GOLDEN:
        fan = load_fan(name)
        report = validate_fan(fan)
        assert report.valid, (name, report.violations)
        assert is_smooth_fan(fan), name


def test_a1_fan_valid_but_singular(a1_singular):
    assert validate_fan(a1_singular).valid
    assert not is_smooth_fan(a1_singular)


def test_overlap_fan_invalid():
    fan = load_fan("overlap_invalid")
    report = validate_fan(fan)
    assert not report.valid
    assert any(k == "axiom-b" for k, _ in report.violations)


def test_vertex_free_cone_rejected():
    fan = parse_fan("rank 2\nrays 2\n1 0\n-1 0\nmaxcones 1\n0 1\n")
    report = validate_fan(fan)
    assert not report.valid
    assert any("vertex" in m for _, m in report.violations)


def test_face_closure_violation_detected():
    # a fan given without the faces of its cone is closed under faces,
    # so validation finds no axiom-(a) violation left to report
    quadrant = Fan(2, ((1, 0), (0, 1)), [(0, 1)])
    assert quadrant.cones == ((), (0,), (1,), (0, 1))
    report = validate_fan(quadrant)
    assert report.valid
    assert not any(k == "axiom-a" for k, _ in report.violations)


def test_from_maximal_cones_closure():
    p2 = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    assert len(p2.cones) == 7
    assert p2.cones == ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
    assert p2.maximal_cones == ((0, 1), (0, 2), (1, 2))
    assert validate_fan(p2).valid


def test_fan_closes_given_cones_under_faces():
    # (2,) is a face of the listed faces (0, 2) and (1, 2), not listed itself
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    octant = Fan(3, units, [(), (0,), (1,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
    assert len(octant.cones) == 8 and (2,) in octant.cones
    assert octant.maximal_cones == ((0, 1, 2),)
    assert validate_fan(octant).valid
    # a cone without a vertex gets no faces
    line = Fan(2, ((1, 0), (-1, 0)), [(0, 1)])
    assert line.cones == ((), (0, 1))
    assert not validate_fan(line).valid
    # with no cone given, the zero cone is the maximal cone
    assert Fan(2, (), [()]).maximal_cones == Fan(2, (), []).maximal_cones == ((),)


def test_a_repeated_ray_index_in_a_cone_is_refused():
    # the closure would index the de-duplicated generators through the
    # listed indices and lose the faces (1,) and (0, 1)
    with pytest.raises(ValueError, match=r"^duplicate ray index in cone \(0, 0, 1\)$"):
        Fan(2, [(1, 0), (0, 1)], [(0, 1, 0)])


@pytest.mark.parametrize("command", ["validate", "picard"])
def test_a_certified_fan_builds_only_its_given_cones(monkeypatch, tmp_path, capsys, command):
    """``validate`` and ``picard`` read only the maximal cones of a
    wall-certified fan, so (P^1)^8 builds its 256 maximal cones and none of
    the 6 561 cones of the face closure."""
    path = tmp_path / "p1_8.fan"
    path.write_text(fans.p1_power(8).text())
    built = []
    init = Cone.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Cone, "__init__", counting_init)
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert len(built) == 256 == 2**8


def test_completeness():
    for name in COMPLETE_GOLDEN:
        assert is_complete(load_fan(name)), name
    assert not is_complete(load_fan("affine_plane"))
    reasons = incompleteness_reasons(load_fan("affine_plane"))
    assert reasons


def test_incompleteness_reasons_mention_boundary():
    fan = parse_fan("rank 1\nrays 1\n1\nmaxcones 1\n0\n")
    reasons = incompleteness_reasons(fan)
    assert any("expected 2" in r or "dimension" in r for r in reasons)


def test_completeness_names_facets_by_their_extreme_rays():
    # P^3 with the cone (e1, e2, e3) listed with e1 + e2 as well: its facet
    # (e1, e2, e1 + e2) is the facet (e1, e2) of the cone across it
    fan = parse_fan(
        "rank 3\nrays 5\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n1 1 0\n"
        "maxcones 4\n0 1 2 4\n1 2 3\n0 2 3\n0 1 3\n"
    )
    assert validate_fan(fan).valid and not is_smooth_fan(fan)
    assert incompleteness_reasons(fan) == []
    # without the cone (1, 2, 3), each facet it shares is named once
    fan = parse_fan(
        "rank 3\nrays 5\n1 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n1 1 0\n"
        "maxcones 3\n0 1 2 4\n0 2 3\n0 1 3\n"
    )
    assert incompleteness_reasons(fan) == [
        f"cone {c} borders 1 maximal cone(s), expected 2" for c in [(1, 2), (1, 3), (2, 3)]
    ]


def test_orbit_table_affine_plane(affine_plane):
    table = orbit_table(affine_plane)
    assert len(table) == 4
    codims = sorted(e.codim for e in table)
    assert codims == [0, 1, 1, 2]
    by_rayset = {e.rayset: e for e in table}
    stabilizer = lambda c: affine_plane.cone(c).stabilizer_characters
    # dense orbit: trivial stabilizer, no divisors contain it
    assert stabilizer(()).rank == 0
    assert by_rayset[()].divisors == ()
    # fixed point: the stabilizer is all of T
    assert stabilizer((0, 1)).rank == 2
    assert stabilizer((0,)).rank == 1


def test_orbit_count_equals_cone_count():
    for name in SMOOTH_GOLDEN:
        fan = load_fan(name)
        assert len(orbit_table(fan)) == len(fan.cones)


def test_orbit_stabilizer_rank_is_codim():
    # X(T_sigma) is free of rank dim sigma = codim of the orbit, on singular
    # cones too, as sigma^perp intersect X(T) is saturated; orbits prints
    # this without building the presentation
    singular = [load_fan("a1_singular"), load_fan("square_cone")]
    singular.append(parse_fan(fans.weighted_projective_space((1, 2, 3)).text()))
    assert all(fan.first_singular_cone is not None for fan in singular)
    for fan in [load_fan(name) for name in SMOOTH_GOLDEN] + singular:
        for e in orbit_table(fan):
            pres = fan.cone(e.rayset).stabilizer_characters
            assert (pres.rank, pres.torsion) == (e.codim, ())


def test_stabilizer_characters_of_full_dim_cone(a1_singular):
    # a full dimensional cone has sigma^perp = 0, so X(T_sigma) = X(T)
    pres = a1_singular.stabilizer_characters((0, 1))
    assert pres.rank == 2
    assert pres.torsion == ()


def test_stabilizer_characters_kill_exactly_cone_perp(p2):
    # a character dies in X(T_sigma) iff it vanishes on the rays of sigma
    import itertools

    for c in p2.cones:
        pres = p2.stabilizer_characters(c)
        for chi in itertools.product(range(-2, 3), repeat=2):
            vanishes = all(pairing(chi, p2.rays[v]) == 0 for v in c)
            assert (not any(pres.free_part(chi))) == vanishes, (c, chi)


def test_character_restriction_is_surjective(p2):
    # for tau a face of sigma, X(T_sigma) -> X(T_tau) is well defined:
    # sigma^perp is contained in tau^perp
    for sigma in p2.cones:
        for tau in p2.cones:
            if not set(tau) <= set(sigma):
                continue
            pres_sigma = p2.stabilizer_characters(sigma)
            pres_tau = p2.stabilizer_characters(tau)
            for chi in pres_sigma.lift_basis():
                # classes of X(T_sigma) basis characters make sense mod
                # tau^perp too, and hitting all of X(T_tau) means the
                # free parts span
                pres_tau.free_part(chi)
            # surjectivity: both are quotients of the same X(T), so the
            # composite X(T) -> X(T_tau) is onto by construction
            assert pres_tau.rank <= pres_sigma.rank


def test_simplicial_complex_p2(p2):
    sc = simplicial_complex(p2)
    assert sc.num_vertices == 3
    assert frozenset() in sc.simplices
    assert frozenset((0, 1)) in sc.simplices
    assert frozenset((0, 1, 2)) not in sc.simplices
    assert sc.minimal_nonfaces == ((0, 1, 2),)


def test_simplicial_complex_p1xp1(p1xp1):
    sc = simplicial_complex(p1xp1)
    # opposite rays never span a cone
    assert sc.minimal_nonfaces == ((0, 1), (2, 3))


def test_simplices_biject_with_cones():
    goldens = [load_fan(name) for name in SMOOTH_GOLDEN + ["a1_singular"]]
    for fan in goldens + [parse_fan(P2_UNUSED_RAY)]:
        sc = simplicial_complex(fan)
        cone_sets = {frozenset(c) for c in fan.cones}
        assert sc.simplices == fan.simplices == cone_sets


def test_simplicial_complex_unused_ray_is_a_nonface():
    # the ray (1, 1) lies in cone {0, 1} but spans no cone, so {0, 1} stays
    # a simplex and {3} is a minimal non-face
    sc = simplicial_complex(parse_fan(P2_UNUSED_RAY))
    assert frozenset((0, 1)) in sc.simplices
    assert frozenset((3,)) not in sc.simplices
    assert sc.minimal_nonfaces == ((0, 1, 2), (3,))


@pytest.mark.parametrize(
    "data",
    [
        fans.projective_space(3),
        fans.p1_power(3),
        fans.hirzebruch(2),
        fans.blow_up_points(fans.projective_space(3), 2),
        fans.iterated_blowup_p2(7),
        fans.weighted_projective_space((1, 2, 3)),
    ],
    ids=lambda d: d.name,
)
def test_minimal_nonfaces_match_the_oracle(data):
    # the oracle tries every subset of the rays, size by size
    for seed in range(4):
        labelled = fans.relabel(data, random.Random(seed))
        sc = simplicial_complex(parse_fan(labelled.text()))
        assert list(sc.minimal_nonfaces) == oracles.minimal_nonfaces(labelled)
