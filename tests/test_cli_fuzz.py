"""The CLI's exit-code contract on small arbitrary and near-valid input:
every subcommand exits 0, 1 or 2 (argparse's own exit included), prints
no traceback, and gives one stderr line per problem."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from acmlines.cli import main

INDICES = st.integers(-1, 5)
BOX = st.sampled_from(["0", "1", "2", "3"] * 4 + ["-1", "x"])

json_values = st.recursive(
    st.none() | st.booleans() | INDICES | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(
        st.sampled_from(["d", "U1", "U2", "U3", "points", "x"]), children, max_size=4
    ),
    max_leaves=12,
)


def _index(n):
    """An index of a family with n hyperplanes, out of range about one
    time in eight."""
    return st.one_of(*[st.integers(1, max(n, 1))] * 7, INDICES)


@st.composite
def near_varieties(draw):
    family = st.one_of(*[st.integers(1, 4)] * 7, st.integers(0, 4))
    d = draw(st.lists(family, min_size=3, max_size=3))
    raw = {"d": d}
    for key, (p, q) in (("U3", (0, 1)), ("U2", (0, 2)), ("U1", (1, 2))):
        if draw(st.integers(0, 3)):  # the key is left out one time in four
            pair = st.tuples(_index(d[p]), _index(d[q])).map(list)
            raw[key] = draw(st.lists(pair, max_size=6, unique_by=tuple))
    return raw


near_points = st.lists(st.lists(_index(4), min_size=3, max_size=3), max_size=6)

# each kind of input three times in four, arbitrary JSON or text otherwise
others = (st.builds(json.dumps, json_values), st.text(max_size=8))
variety_texts = st.one_of(*[st.builds(json.dumps, near_varieties())] * 6, *others)
point_texts = st.one_of(
    *[st.builds(lambda p: json.dumps({"points": p}), near_points)] * 3,
    *[st.builds(json.dumps, near_points)] * 3,
    *others,
)

commands = st.one_of(
    *map(st.just, (
        ["check"], ["check", "--witness"], ["check", "--oracle"],
        ["check", "--dot", "-"], ["ferrers"], ["gens"], ["ci"], ["grid"],
        ["render"], ["render", "--direction", "2"],
    )),
    *(
        st.builds(
            lambda box, method=method: ["hilbert", "--method", method, "--box", *box],
            st.lists(BOX, min_size=3, max_size=3),
        )
        for method in ("corollary", "oracle")
    ),
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@given(command=commands, data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_subcommand_keeps_the_exit_code_contract(input_path, command, data):
    text = data.draw(point_texts if command == ["grid"] else variety_texts)
    input_path.write_text(text, encoding="utf-8")
    argv = [command[0], str(input_path), *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    # any exception but argparse's exit fails the test: the CLI would
    # print its traceback
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refusing an argument
            assert exc.code == 2, argv
            assert ": error: " in err.getvalue().splitlines()[-1], argv
            return
    lines = err.getvalue().splitlines()
    assert rc in ((0, 1, 2) if command[0] == "check" else (0, 2)), (argv, text)
    assert all(line.startswith(("warning: ", "error: ")) for line in lines), lines
    errors = [line for line in lines if line.startswith("error: ")]
    assert len(errors) == (rc == 2), (argv, text, lines)
