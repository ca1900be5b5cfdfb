"""Golden transcript of every CLI subcommand on the shared fixtures.

The transcript pins stdout and the exit code, byte for byte, so that a
refactor cannot change any output unnoticed. When an output change is
intended, regenerate it from the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_transcript.txt

and review the diff.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import conftest
from acmlines import variety_to_json
from acmlines.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli_transcript.txt"

FIXTURES = (
    "FIFTEEN_LINES",
    "DIAGONAL_PAIR_PLUS_ONE",
    "FOUR_HYPERPLANE_EXAMPLE",
    "FIVE_HYPERPLANE_EXAMPLE",
    "TWO_TRIPLE_POINTS",
    "REPAIRED_TRIPLE_POINTS",
    "FULL_BOX_432",
    "CI_EXAMPLE",
    "SKEW_CORNER",
    "CORNER",
    "SINGLE_LINE",
)

VARIETY_COMMANDS = (
    "check {v}",
    "check --witness --dot - {v}",
    "check --oracle {v}",
    "ferrers {v}",
    "hilbert --box 4 3 2 {v}",
    "hilbert --box 4 3 2 --format json {v}",
    "hilbert --box 4 3 2 --method oracle {v}",
    "hilbert --box 4 3 2 --method oracle --format json {v}",
    "gens {v}",
    "ci {v}",
    "render {v}",
)

POINT_SETS = {
    "points_pair.json": [[1, 1, 1], [2, 2, 1]],
    "points_spread.json": {"points": [[1, 1, 1], [2, 2, 2], [1, 2, 3], [3, 1, 2]]},
}

OTHER_COMMANDS = (
    "grid points_pair.json",
    "grid points_spread.json",
    "hf-experiment --trials 4 --dmax 3 --box 3 3 3 --seed 7",
)


def transcript() -> str:
    """Run every command in a scratch directory and return the record."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def run(command):
            argv = [
                str(tmp / word) if word.endswith(".json") else word
                for word in command.split()
            ]
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv)
            out.append(f"$ acmlines {command}\n{buffer.getvalue()}[exit {code}]\n")

        for name in FIXTURES:
            path = tmp / f"{name}.json"
            path.write_text(variety_to_json(getattr(conftest, name)), encoding="utf-8")
            for template in VARIETY_COMMANDS:
                run(template.format(v=path.name))
        for name, points in POINT_SETS.items():
            (tmp / name).write_text(json.dumps(points), encoding="utf-8")
        for command in OTHER_COMMANDS:
            run(command)
    return "".join(out)


def test_cli_transcript_is_unchanged():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(transcript(), end="")
