"""``--format json`` prints exactly ``json.dumps(payload, sort_keys=True,
indent=2)``.  ``cli._dumps`` writes that text itself; it is checked here
against the standard library on generated values, and the CLI's output
on real fans is checked to be in that canonical form."""

import json
import pathlib
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torikit.cli import COMMANDS, _dumps, main

from conftest import fans

ROOT = pathlib.Path(__file__).resolve().parent.parent


def reference(x):
    return json.dumps(x, sort_keys=True, indent=2)


# Ints of one and of several machine words, of either sign.
ints = st.integers() | st.integers(min_value=-(2**200), max_value=2**200)
keys = st.text() | st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "é", " ", "\U0001f600", ""])
scalars = ints | keys | st.booleans() | st.none()


@st.composite
def equal_rows(draw):
    width = draw(st.integers(0, 4))
    return draw(st.lists(st.lists(ints, min_size=width, max_size=width), max_size=6))


@st.composite
def depth_3_arrays(draw, entries=ints):
    """Rectangular arrays of depth 3, the shape of picard's basis (rays x
    cones x n), any of whose lengths may be 0."""
    rows, width = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    row = st.lists(entries, min_size=width, max_size=width)
    return draw(st.lists(st.lists(row, min_size=rows, max_size=rows), max_size=4))


leaves = (
    scalars
    | st.lists(ints)
    | equal_rows()
    | st.lists(st.lists(ints), max_size=6)
    # rows and flat lists holding bool or None beside ints
    | st.lists(st.lists(ints | st.booleans() | st.none()), max_size=6)
    | st.lists(ints | st.booleans() | st.none())
    | depth_3_arrays()
    # ragged at some depth, and a bool or None at depth 3
    | st.lists(st.lists(st.lists(ints, max_size=3), max_size=3), max_size=4)
    | depth_3_arrays(ints | st.booleans() | st.none())
)
values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(keys, children, max_size=5),
    max_leaves=25,
)


@settings(max_examples=600, deadline=None)
@given(values)
def test_dumps_matches_the_standard_library(x):
    assert _dumps(x) == reference(x)


@pytest.mark.parametrize(
    "x",
    [
        [],
        {},
        [[]],
        [[], []],
        [{}, [], 0, None],
        [[1, 2], [3]],
        [[1, 2], [3, True]],
        [True, 1],
        [[1], [False]],
        {"a": [[-1, 2], [3, -(2**100)]], "b": {"c": [None]}},
        [[[1, 2]], [[3, 4]]],
        # rectangular of depth 3 (rays x cones x n) and 4
        [[[1, -2], [3, 4], [5, 6]], [[7, 8], [9, 10], [-(2**70), 0]]],
        [[[[1, 2], [3, 4]]], [[[5, 6], [7, 8]]]],
        # ragged at depth 2 or 3, or empty at depth 3
        [[[1, 2], [3]], [[4, 5], [6, 7]]],
        [[[1]], [[2], [3]]],
        [[[1, 2]], [[]]],
        [[[]], [[]]],
        [[[1]], [2]],
        # not all ints at depth 3
        [[[1, True]], [[2, 3]]],
        [[[1, 2]], [[3, None]]],
        [[[False]]],
    ],
    ids=repr,
)
def test_dumps_matches_the_standard_library_on_edge_cases(x):
    assert _dumps(x) == reference(x)


class Small(IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "x",
    [1.5, [0.0], (1, 2), [[1, 2], (3, 4)], {1: 2}, {"a": 1, 2: 3}, Small.ONE, [Small.ONE], {"k": b"x"}],
    ids=repr,
)
def test_dumps_refuses_what_payloads_never_hold(x):
    with pytest.raises(TypeError):
        _dumps(x)


SHIPPED = sorted(p.name for p in (ROOT / "fans").glob("*.fan"))
GENERATED = {
    "p2_blown_up_19": fans.iterated_blowup_p2(19),
    "p_1_3_5_31": fans.weighted_projective_space((1, 3, 5, 31)),
}
DEGREE = {"betti": ["--max-degree", "8"], "ring": ["--max-degree", "6"], "certify": ["--max-degree", "6"]}


@pytest.fixture(scope="module")
def fan_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fans")
    out = {name: ROOT / "fans" / name for name in SHIPPED}
    for name, fan in GENERATED.items():
        out[name] = folder / f"{name}.fan"
        out[name].write_text(fan.text())
    return out


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fan", SHIPPED + sorted(GENERATED))
def test_json_output_is_canonical(command, fan, fan_files, capsys):
    code = main([command, str(fan_files[fan]), "--format", "json", *DEGREE.get(command, [])])
    out, err = capsys.readouterr()
    if not out:
        assert code != 0, err
        return
    assert out == reference(json.loads(out)) + "\n"
    if fan == "overlap_invalid.fan":
        assert json.loads(out)["violations"], out
