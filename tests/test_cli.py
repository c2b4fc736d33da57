import json
import pathlib
import subprocess
import sys
import time
from collections import Counter
from functools import partial

import pytest

import torikit.fan
from torikit.cli import COMMANDS, main
from torikit.cone import MAX_HILBERT_BASIS_SIZE, MAX_PARALLELEPIPED_POINTS
from torikit.errors import SmoothnessError
from torikit.fan import parse_fan, require_smooth

from conftest import P2_UNUSED_RAY, fans

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parent.parent

GOLDEN_CASES = {
    "p2__validate": ["validate", "fans/p2.fan"],
    "p2__orbits": ["orbits", "fans/p2.fan"],
    "p2__betti_ordinary": ["betti", "fans/p2.fan", "--ordinary"],
    "p2__betti_equivariant": ["betti", "fans/p2.fan", "--max-degree", "8"],
    "p2__ring": ["ring", "fans/p2.fan", "--max-degree", "6"],
    "p2__picard": ["picard", "fans/p2.fan"],
    "p2__certify": ["certify", "fans/p2.fan", "--max-degree", "6"],
    "p2__hilbert": ["hilbert", "fans/p2.fan"],
    "p1__betti_ordinary": ["betti", "fans/p1.fan", "--ordinary"],
    "p1xp1__picard": ["picard", "fans/p1xp1.fan"],
    "p1xp1__validate": ["validate", "fans/p1xp1.fan"],
    "hirzebruch1__ring": ["ring", "fans/hirzebruch1.fan", "--max-degree", "8"],
    "affine_plane__orbits": ["orbits", "fans/affine_plane.fan"],
    "affine_plane__betti_equivariant": [
        "betti",
        "fans/affine_plane.fan",
        "--max-degree",
        "8",
    ],
    "affine_plane__hilbert": ["hilbert", "fans/affine_plane.fan"],
    "a1_singular__validate": ["validate", "fans/a1_singular.fan"],
    "a1_singular__hilbert": ["hilbert", "fans/a1_singular.fan"],
    "p3__validate": ["validate", "fans/p3.fan"],
    "p3__orbits": ["orbits", "fans/p3.fan"],
    "p3__betti_ordinary": ["betti", "fans/p3.fan", "--ordinary"],
    "p3__ring": ["ring", "fans/p3.fan", "--max-degree", "6"],
    "p3__certify": ["certify", "fans/p3.fan", "--max-degree", "6"],
    "p3__picard": ["picard", "fans/p3.fan"],
    "p3_blowup__validate": ["validate", "fans/p3_blowup.fan"],
    "p3_blowup__orbits": ["orbits", "fans/p3_blowup.fan"],
    "p3_blowup__betti_ordinary": ["betti", "fans/p3_blowup.fan", "--ordinary"],
    "p3_blowup__ring": ["ring", "fans/p3_blowup.fan", "--max-degree", "6"],
    "p3_blowup__certify": ["certify", "fans/p3_blowup.fan", "--max-degree", "6"],
    "p3_blowup__picard": ["picard", "fans/p3_blowup.fan"],
    "p3__hilbert": ["hilbert", "fans/p3.fan"],
    "p3_blowup__hilbert": ["hilbert", "fans/p3_blowup.fan"],
    "square_cone__hilbert": ["hilbert", "fans/square_cone.fan"],
}


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "torikit.cli"] + args,
        capture_output=True,
        text=True,
        cwd=ROOT,
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_json_outputs(name):
    args = GOLDEN_CASES[name] + ["--format", "json"]
    result = run_cli(args)
    assert result.returncode == 0, result.stderr
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert result.stdout == expected
    # and it is well formed json
    json.loads(result.stdout)


def test_output_is_deterministic():
    a = run_cli(["orbits", "fans/p1xp1.fan", "--format", "json"])
    b = run_cli(["orbits", "fans/p1xp1.fan", "--format", "json"])
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_validate_text_output():
    result = run_cli(["validate", "fans/p2.fan"])
    assert result.returncode == 0
    assert result.stdout.strip() == "valid, smooth, complete"
    result = run_cli(["validate", "fans/a1_singular.fan"])
    assert result.returncode == 0
    assert "not smooth" in result.stdout


def test_invalid_fan_exits_1():
    result = run_cli(["validate", "fans/overlap_invalid.fan"])
    assert result.returncode == 1
    assert "invalid" in result.stdout
    assert "axiom-b" in result.stdout


def test_singular_fan_ring_exits_1():
    for cmd in ["ring", "certify", "picard"]:
        result = run_cli([cmd, "fans/a1_singular.fan"])
        assert result.returncode == 1, cmd
        assert "error:" in result.stderr


def test_incomplete_fan_ring_exits_1():
    result = run_cli(["ring", "fans/affine_plane.fan"])
    assert result.returncode == 1
    assert "complete" in result.stderr


def test_missing_file_exits_2():
    result = run_cli(["validate", "fans/no_such_fan.fan"])
    assert result.returncode == 2


def test_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.fan"
    bad.write_text("rank 2\nrays 1\nnot numbers\nmaxcones 0\n")
    result = run_cli(["validate", str(bad)])
    assert result.returncode == 2
    assert "line 3" in result.stderr


def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.fan"
    bad.write_bytes(b"rank 2\nrays 1\n1 0\xff\n")
    assert main(["validate", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"


def test_bad_max_degree_exits_2():
    result = run_cli(["betti", "fans/p2.fan", "--max-degree", "3"])
    assert result.returncode == 2
    result = run_cli(["betti", "fans/p2.fan", "--max-degree", "-2"])
    assert result.returncode == 2
    start = time.perf_counter()
    result = run_cli(["betti", "fans/p2.fan", "--max-degree", "100000000"])
    assert time.perf_counter() - start < 2
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.endswith("at most 100000\n")


def test_betti_text_output():
    result = run_cli(["betti", "fans/p2.fan", "--ordinary"])
    assert result.stdout.strip() == "1, 0, 1, 0, 1"


def test_picard_text_output():
    result = run_cli(["picard", "fans/p1xp1.fan"])
    assert result.stdout.strip() == "Pic rank 2, torsion none; Pic_T rank 4"


def test_hilbert_cone_selector():
    result = run_cli(["hilbert", "fans/p2.fan", "--cone", "0", "--format", "json"])
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert len(data["cones"]) == 1
    result = run_cli(["hilbert", "fans/p2.fan", "--cone", "99"])
    assert result.returncode == 1


def test_nonprimitive_ray_warning(tmp_path):
    f = tmp_path / "scaled.fan"
    f.write_text("rank 2\nrays 2\n2 0\n0 1\nmaxcones 1\n0 1\n")
    result = run_cli(["validate", str(f)])
    assert result.returncode == 0
    assert "warning" in result.stderr
    assert "normalized" in result.stderr


def test_main_callable_in_process(capsys):
    # the entry point returns exit codes instead of raising SystemExit
    code = main(["validate", str(ROOT / "fans" / "p2.fan")])
    assert code == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_repeated_calls_in_one_process_match_fresh_calls(capsys):
    # the parser is built once per process; options of one call must not
    # carry over into the next
    sequence = [
        ["betti", "fans/p2.fan", "--ordinary"],
        ["betti", "fans/p2.fan"],
        ["hilbert", "fans/p2.fan", "--cone", "0"],
        ["hilbert", "fans/p2.fan"],
        ["ring", "fans/p2.fan", "--max-degree", "2", "--format", "json"],
        ["ring", "fans/p2.fan"],
    ]
    for args in sequence:
        code = main([args[0], str(ROOT / args[1])] + args[2:])
        fresh = run_cli(args)
        assert code == fresh.returncode == 0, args
        assert capsys.readouterr().out == fresh.stdout, args


def test_ring_to_a_high_degree_is_quick(capsys):
    # every piece above the top degree 4 is zero; the relations are sparse
    # and all their pivots are units
    start = time.perf_counter()
    code = main(["ring", str(ROOT / "fans" / "p2.fan"), "--max-degree", "100", "--format", "json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    pieces = json.loads(capsys.readouterr().out)["cohomology"]
    assert [p["degree"] for p in pieces] == list(range(0, 101, 2))
    assert [p["rank"] for p in pieces[:3]] == [1, 1, 1]
    for p in pieces[3:]:
        assert (p["rank"], p["torsion"], p["basis"]) == (0, [], []), p["degree"]
    assert elapsed < 5, elapsed


def test_certify_to_a_huge_degree_is_quick():
    # the face monomials are counted, not enumerated
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "torikit.cli", "certify", "fans/p2.fan", "--max-degree", "20000"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("restriction injectivity: holds in all degrees <= 20000\n")
    assert elapsed < 10, elapsed


def test_ring_to_a_huge_degree_is_quick():
    # the pieces past degree 2n are zero and no relation is built for them
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "torikit.cli", "ring", "fans/p2.fan", "--max-degree", "2000"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[1:4] == ["  H^0: rank 1", "  H^2: rank 1", "  H^4: rank 1"]
    assert lines[4:] == [f"  H^{d}: rank 0" for d in range(6, 2001, 2)]
    assert elapsed < 10, elapsed


def test_validating_a_ray_of_rank_600_is_quick(tmp_path):
    # the double description folds each vector into a lineality vector
    # with one pairing, not one per coordinate
    f = tmp_path / "ray.fan"
    f.write_text("rank 600\nrays 1\n" + " ".join(["1"] + ["0"] * 599) + "\nmaxcones 1\n0\n")
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "torikit.cli", "validate", str(f)],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    assert result.stdout == "valid, smooth, not complete\n"
    assert elapsed < 3, elapsed


def test_an_integer_past_the_digit_limit_names_the_limit(tmp_path):
    # Python refuses to convert a string of more than
    # sys.get_int_max_str_digits() digits to an int
    f = tmp_path / "long.fan"
    f.write_text("rank 2\nrays 2\n" + "7" * 5000 + " 1\n0 1\nmaxcones 1\n0 1\n")
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "torikit.cli", "validate", str(f)],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 2
    assert result.stdout == ""
    limit = sys.get_int_max_str_digits()
    assert result.stderr == (
        f"error: line 3: integer has 5000 digits; Python's limit is {limit}\n"
    )
    assert elapsed < 2, elapsed


@pytest.mark.parametrize(
    "args",
    [["picard", "--format", "json"], ["hilbert"], ["hilbert", "--format", "json"]],
    ids=" ".join,
)
def test_an_output_integer_past_the_digit_limit_names_the_limit(args, tmp_path, capsys):
    # P^3 with its rays mapped by the unimodular [[1, N, 0], [0, 1, N],
    # [0, 0, 1]]: every input entry has at most 2 501 digits, but the dual
    # basis, printed by picard and hilbert, has entries near N^2
    N = 10**2500 + 7
    rays = [(1, 0, 0), (N, 1, 0), (0, N, 1), (-1 - N, -1 - N, -1)]
    f = tmp_path / "p3_huge.fan"
    f.write_text(
        "rank 3\nrays 4\n"
        + "".join(" ".join(map(str, v)) + "\n" for v in rays)
        + "maxcones 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
    )
    code, out, err, elapsed = timed_main([args[0], str(f), *args[1:]], capsys)
    assert (code, out) == (1, "")
    limit = sys.get_int_max_str_digits()
    assert err == (
        "error: an output integer has more digits than Python converts to text; "
        f"Python's limit is {limit}\n"
    )
    assert elapsed < 2, elapsed


def test_ring_relations_on_an_unused_ray(tmp_path, capsys):
    f = tmp_path / "p2_unused_ray.fan"
    f.write_text(P2_UNUSED_RAY)
    assert main(["ring", str(f), "--max-degree", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Z[x_0..x_3] modulo x_0*x_1*x_2, x_3"
    assert lines[1:] == ["  H^0: rank 1", "  H^2: rank 1", "  H^4: rank 1"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_cli_call_validates_the_fan_once(command, monkeypatch, capsys):
    # the verdict is kept on the fan: the gate of main and those of the
    # library entry points share it
    calls = []
    validate = torikit.fan.validate_fan

    def counting(fan):
        calls.append(fan)
        return validate(fan)

    monkeypatch.setattr(torikit.fan, "validate_fan", counting)
    assert main([command, str(ROOT / "fans" / "p2.fan"), "--max-degree", "4"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


# P^2 with the cone {(1, 0), (0, 1)} listed on three rays: (1, 1) lies in
# its interior, so its rays are not part of a Z-basis although its extreme
# rays are.
P2_INTERIOR_RAY = "rank 2\nrays 4\n1 0\n1 1\n0 1\n-1 -1\nmaxcones 3\n0 1 2\n2 3\n0 3\n"


def test_a_cone_listing_an_interior_ray_is_not_smooth(tmp_path, capsys):
    f = tmp_path / "p2_interior_ray.fan"
    f.write_text(P2_INTERIOR_RAY)
    assert main(["validate", str(f)]) == 0
    assert capsys.readouterr().out == "valid, not smooth, complete\n"
    for args in (
        ["ring", "--max-degree", "4"],
        ["ring", "--max-degree", "8"],
        ["betti"],
        ["certify"],
        ["picard"],
    ):
        assert main([args[0], str(f)] + args[1:]) == 1, args
        out, err = capsys.readouterr()
        assert out == "", args
        assert err.startswith("error: ") and "cone (0, 1, 2)" in err, (args, err)
        assert "Traceback" not in err, args


def test_validate_names_every_cone_without_a_vertex(tmp_path, capsys):
    # the line (0, 1) is a face of no cone, but it is listed on a subset of
    # the rays of the half-plane (0, 1, 2); both are named, in cone order
    f = tmp_path / "line_in_half_plane.fan"
    f.write_text("rank 2\nrays 3\n1 0\n-1 0\n0 1\nmaxcones 2\n0 1\n0 1 2\n")
    assert main(["validate", str(f)]) == 1
    assert capsys.readouterr().out == (
        "invalid:\n"
        "  [vertex] cone (0, 1) contains a line (no vertex)\n"
        "  [vertex] cone (0, 1, 2) contains a line (no vertex)\n"
    )


def test_the_first_singular_cone_may_be_a_face(tmp_path, capsys):
    # (1, 0, 0) and (1, 2, 0) span an index-2 sublattice of their plane, so
    # the 2-D face (0, 1) is singular and comes before its maximal cone
    text = "rank 3\nrays 3\n1 0 0\n1 2 0\n0 0 1\nmaxcones 1\n0 1 2\n"
    with pytest.raises(SmoothnessError) as info:
        require_smooth(parse_fan(text))
    assert str(info.value) == "fan not smooth: rays of cone (0, 1) are not part of a Z-basis"
    f = tmp_path / "singular_face.fan"
    f.write_text(text)
    assert main(["ring", str(f)]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


@pytest.mark.parametrize(
    "entry", ["100000000000000000000000000007", "10000001"], ids=["30-digit", "det-1e7"]
)
def test_hilbert_answers_a_huge_2d_determinant(entry, tmp_path):
    # the 2-D dual is walked, so its determinant does not bound the work;
    # its Hilbert basis has three elements
    f = tmp_path / "huge.fan"
    f.write_text(f"rank 2\nrays 2\n{entry} 1\n0 1\nmaxcones 1\n0 1\n")
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "torikit.cli", "hilbert", str(f), "--format", "json"],
        capture_output=True, text=True, cwd=ROOT, timeout=30,
    )
    elapsed = time.perf_counter() - start
    assert (result.returncode, result.stderr) == (0, "")
    entries = {tuple(e["cone"]): e["hilbert_basis"] for e in json.loads(result.stdout)["cones"]}
    assert entries[0, 1] == [[-1, int(entry)], [0, 1], [1, 0]]
    assert elapsed < 5, elapsed


# The cones each command charts: stratify reads the dual basis of every
# cone; Picard and the gates need only the maximal cones; orbits needs no
# chart, as X(T_sigma) is free of rank dim sigma.
ONE_CHART_CASES = {
    "certify": (fans.projective_space(3), ["--max-degree", "10"], "cones"),
    "orbits": (fans.blow_up_points(fans.projective_space(3), 2), [], "none"),
    "picard": (fans.iterated_blowup_p2(22), [], "maximal"),
}


@pytest.mark.parametrize("command", sorted(ONE_CHART_CASES))
def test_each_cone_makes_one_smith_normal_form(command, tmp_path, monkeypatch, capsys):
    """Every Smith normal form comes from a cone's chart, one per nonzero
    cone it needs, or from a quotient lattice presentation; nothing solves
    a system or takes a kernel, and orbits makes no Smith normal form."""
    data, options, charted = ONE_CHART_CASES[command]
    f = tmp_path / "fan.fan"
    f.write_text(data.text())
    calls = Counter()

    def counting(name, fn, *args):
        frame, caller = sys._getframe(1), "elsewhere"
        while frame is not None:
            if frame.f_code.co_name in ("_chart", "quotient_by_sublattice"):
                caller = frame.f_code.co_name
                break
            frame = frame.f_back
        calls[name, caller] += 1
        return fn(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name == "torikit" or module_name.startswith("torikit."):
            for name in ("smith_normal_form", "solve_integer", "kernel_basis"):
                fn = vars(module).get(name)
                if fn is not None:
                    monkeypatch.setattr(module, name, partial(counting, name, fn))
    assert main([command, str(f)] + options) == 0
    capsys.readouterr()
    if charted == "none":
        assert calls == Counter(), calls
        return
    assert {name for name, _ in calls} == {"smith_normal_form"}, calls
    assert {caller for _, caller in calls} <= {"_chart", "quotient_by_sublattice"}
    cones = len(data.cones()) - 1 if charted == "cones" else len(data.maxcones)
    assert calls["smith_normal_form", "_chart"] == cones


# Hostile input: each answer is an exit code of 0, 1 or 2 with a message,
# in bounded time, and never a traceback.


def timed_main(args, capsys):
    start = time.perf_counter()
    code = main(args)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    return code, out, err, elapsed


@pytest.mark.parametrize(
    "text",
    ["rank 2\nrays 1000000000000\n", "rank 2\nrays 1\n1 0\nmaxcones 100000000000\n"],
    ids=["rays-1e12", "maxcones-1e11"],
)
def test_a_huge_header_count_ends_the_file_early(text, tmp_path, capsys):
    f = tmp_path / "huge_count.fan"
    f.write_text(text)
    code, out, err, elapsed = timed_main(["validate", str(f)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: unexpected end of file"), err
    assert elapsed < 2, elapsed


def test_a_huge_rank_names_the_coordinate_count(tmp_path, capsys):
    f = tmp_path / "huge_rank.fan"
    f.write_text("rank 100000000\nrays 1\n1 0\nmaxcones 1\n0\n")
    code, out, err, elapsed = timed_main(["validate", str(f)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: line 3: expected 100000000 coordinates, got 2\n"
    assert elapsed < 2, elapsed


EMPTY_FAN_OF_RANK_1000 = {
    "validate": "valid, smooth, not complete\n",
    "orbits": "1 orbits\n  orbit of cone []: codim 0, stabilizer character rank 0, in divisors []\n",
    "betti": ", ".join(["1"] + ["0"] * 20) + "\n",
    "picard": "Pic rank 0, torsion none; Pic_T rank 0\n",
    "certify": "perfection: certified\nrestriction injectivity: holds in all degrees <= 20\n",
}


@pytest.mark.parametrize("command", sorted(EMPTY_FAN_OF_RANK_1000))
def test_the_empty_fan_of_rank_1000(command, tmp_path, capsys):
    # one orbit, the torus; nothing may take a Smith normal form of the
    # 1000 x 1000 identity or sum over the dimensions that hold no cone
    f = tmp_path / "empty.fan"
    f.write_text("rank 1000\nrays 0\nmaxcones 0\n")
    code, out, err, elapsed = timed_main([command, str(f)], capsys)
    assert (code, out, err) == (0, EMPTY_FAN_OF_RANK_1000[command], "")
    assert elapsed < 3, elapsed


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_hirzebruch_with_a_huge_twist(command, tmp_path, capsys):
    f = tmp_path / "f_huge.fan"
    f.write_text(fans.hirzebruch(10**200).text())
    code, out, err, elapsed = timed_main([command, str(f)], capsys)
    assert code == 0, err
    assert out and err == ""
    assert elapsed < 2, elapsed


# P^2 with the third ray moved to (-1, -10^200): complete, and smooth but
# for the cone (0, 2) of determinant -10^200.
P2_HUGE_RAY = "rank 2\nrays 3\n1 0\n0 1\n-1 -1" + "0" * 200 + "\nmaxcones 3\n0 1\n1 2\n0 2\n"


@pytest.mark.parametrize("command", ["picard", "ring"])
def test_a_huge_ray_entry_is_not_smooth(command, tmp_path, capsys):
    f = tmp_path / "p2_huge_ray.fan"
    f.write_text(P2_HUGE_RAY)
    code, out, err, elapsed = timed_main([command, str(f)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: fan not smooth: rays of cone (0, 2) are not part of a Z-basis\n"
    assert elapsed < 2, elapsed


def test_hilbert_refuses_a_huge_parallelepiped(tmp_path, capsys):
    # the dual of the cone on e1, e2, (1, 1, 400) has a parallelepiped of
    # 400^2 lattice points; its 2-D faces are walked and answered first
    f = tmp_path / "huge.fan"
    f.write_text("rank 3\nrays 3\n1 0 0\n0 1 0\n1 1 400\nmaxcones 1\n0 1 2\n")
    code, out, err, elapsed = timed_main(["hilbert", str(f)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: Hilbert basis of cone (0, 1, 2): the dual cone has a fundamental "
        f"parallelepiped with 160000 lattice points, more than the "
        f"{MAX_PARALLELEPIPED_POINTS} torikit enumerates\n"
    )
    assert elapsed < 2, elapsed


def test_a_huge_ray_entry_names_the_basis_size_bound(tmp_path, capsys):
    # the dual of the cone (0, 2) has the 10^200 + 1 basis elements (k, -1)
    f = tmp_path / "p2_huge_ray.fan"
    f.write_text(P2_HUGE_RAY)
    code, out, err, elapsed = timed_main(["hilbert", str(f)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: Hilbert basis of cone (0, 2): the dual cone has a Hilbert basis "
        f"with more elements than the {MAX_HILBERT_BASIS_SIZE} torikit enumerates\n"
    )
    assert elapsed < 2, elapsed


@pytest.mark.parametrize("command", ["validate", "picard"])
def test_a_deep_blow_up_chain(command, tmp_path, capsys):
    f = tmp_path / "p2_blown_up_200.fan"
    f.write_text(fans.iterated_blowup_p2(200).text())
    code, out, err, elapsed = timed_main([command, str(f)], capsys)
    assert code == 0, err
    assert err == ""
    assert out == {
        "validate": "valid, smooth, complete\n",
        "picard": "Pic rank 201, torsion none; Pic_T rank 203\n",
    }[command]
    assert elapsed < 10, elapsed


def test_validate_is_not_quadratic_in_the_maximal_cones(tmp_path, capsys):
    """(P^1)^8 has 256 maximal cones and 32 640 pairs of them.  Wall
    crossing certifies it with one check per facet, in about 1.1 s with
    the parse; one double description per pair took 9 s (Python 3.11,
    one Xeon core)."""
    f = tmp_path / "p1_power_8.fan"
    f.write_text(fans.p1_power(8).text())
    code, out, err, elapsed = timed_main(["validate", str(f)], capsys)
    assert (code, out, err) == (0, "valid, smooth, complete\n", "")
    assert elapsed < 4, elapsed


def test_many_rays_are_parsed_in_linear_time(tmp_path, capsys):
    """30 000 distinct rays, one maximal cone: the duplicate-ray check is a
    dict lookup per ray (0.07 s; a list scan took 14 s, Python 3.11, one
    Xeon core)."""
    k = 30_000
    rays = "\n".join(f"1 {i}" for i in range(k))
    f = tmp_path / "many_rays.fan"
    f.write_text(f"rank 2\nrays {k}\n{rays}\nmaxcones 1\n0 1\n")
    code, out, err, elapsed = timed_main(["validate", str(f)], capsys)
    assert (code, out, err) == (0, "valid, smooth, not complete\n", "")
    assert elapsed < 2, elapsed


def test_maximal_cones_are_found_without_comparing_all_pairs(tmp_path, capsys):
    """The complete smooth fan on the 4 004 rays (1, -1000) .. (1, 1000),
    (0, 1), (-1, 1000) .. (-1, -1000), (0, -1), with the consecutive pairs
    as cones.  Each cone is compared only with the cones on its first
    ray: 0.34 s in all, against 5.7 s when every pair was compared
    (Python 3.11, one Xeon core)."""
    rays = [(1, i) for i in range(-1000, 1001)] + [(0, 1)]
    rays += [(-1, i) for i in range(1000, -1001, -1)] + [(0, -1)]
    k = len(rays)
    f = tmp_path / "circle.fan"
    f.write_text(
        f"rank 2\nrays {k}\n"
        + "".join(f"{a} {b}\n" for a, b in rays)
        + f"maxcones {k}\n"
        + "".join(f"{i} {(i + 1) % k}\n" for i in range(k))
    )
    code, out, err, elapsed = timed_main(["validate", str(f)], capsys)
    assert (code, out, err) == (0, "valid, smooth, complete\n", "")
    assert elapsed < 2, elapsed


DUPLICATE_CONE_FAN = (
    "rank 2\nrays 5\n1 0\n0 1\n1 1\n-1 0\n0 -1\n"
    "maxcones 5\n0 1 2\n0 1\n1 3\n3 4\n0 4\n"
)


def test_a_cone_listed_twice_counts_once_for_completeness(tmp_path, capsys):
    """The quadrant is given as (0, 1, 2), with (1, 1) through its interior,
    and as (0, 1); only the first is maximal, so each ray borders two
    maximal cones and the fan covers R^2."""
    f = tmp_path / "quadrant_twice.fan"
    f.write_text(DUPLICATE_CONE_FAN)
    code, out, err, _ = timed_main(["validate", str(f)], capsys)
    assert (code, out, err) == (0, "valid, not smooth, complete\n", "")
    assert torikit.fan.incompleteness_reasons(parse_fan(DUPLICATE_CONE_FAN)) == []
