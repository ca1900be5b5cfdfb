"""Random varieties for experiments and property tests, and the
exhaustive population of a small box."""

from __future__ import annotations

from itertools import product

from .criteria import is_acm  # noqa: F401  perfbench/selftest.py traces this binding
from .errors import BadParameter, SizeLimit
from .ferrers import _staircase
from .variety import (
    DIRECTION_FAMILIES,
    VarietyOfLines,
    _is_int,
    check_box,
    compact,
    make_variety,
)


def _pairs(d, direction):
    """Every index pair of one direction in the box d, row-major."""
    fam_p, fam_q = DIRECTION_FAMILIES[direction]
    return product(range(1, d[fam_p - 1] + 1), range(1, d[fam_q - 1] + 1))


def _variety(d, u) -> VarietyOfLines:
    """The compacted variety with index sets u[3], u[2], u[1] in the box d."""
    return compact(make_variety(d, u[3], u[2], u[1]))


# Most candidate lines all_varieties enumerates: 2^20 subsets.
MAX_CANDIDATE_LINES = 20


def all_varieties(box=(2, 2, 2)):
    """Every nonempty variety whose lines fit in the box, compacted.

    Returns an iterator over the 2^n - 1 subsets of the n candidate
    lines of the box (4,095 for the default 2x2x2 box) in a fixed order:
    bit b of a counter running from 1 selects the b-th candidate, listed
    direction 3, 2, 1 and row-major. Raises SizeLimit, before yielding
    anything, when n exceeds MAX_CANDIDATE_LINES.
    """
    d = check_box(box)
    candidates = [(h, pair) for h in (3, 2, 1) for pair in _pairs(d, h)]
    if len(candidates) > MAX_CANDIDATE_LINES:
        raise SizeLimit(
            f"the box {d} has {len(candidates)} candidate lines, "
            f"more than {MAX_CANDIDATE_LINES}"
        )
    return (
        _variety(d, {
            h: {p for b, (g, p) in enumerate(candidates) if g == h and bits >> b & 1}
            for h in (3, 2, 1)
        })
        for bits in range(1, 1 << len(candidates))
    )


# Empty draws random_variety rejects before giving up on p.
MAX_EMPTY_DRAWS = 1000

# Largest box side the samplers draw; a draw costs O(dmax^2).
MAX_DMAX = 16


def _check_dmax(dmax) -> None:
    if not (_is_int(dmax) and 1 <= dmax <= MAX_DMAX):
        raise BadParameter(f"dmax must be an integer in 1..{MAX_DMAX}, got {dmax!r}")


def check_sampling(dmax, p) -> None:
    """Raise BadParameter unless random_variety(rng, dmax, p) can draw:
    dmax an integer in 1..MAX_DMAX and p an int or float (not a bool)
    in (0, 1]."""
    _check_dmax(dmax)
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0 < p <= 1:
        raise BadParameter(f"line probability must be in (0, 1], got {p!r}")


def random_variety(rng, dmax: int, p: float = 0.4) -> VarietyOfLines:
    """Nonempty compacted variety: each candidate line kept with
    probability p over a random box with sides up to dmax.

    Raises BadParameter when MAX_EMPTY_DRAWS draws in a row keep no line.
    """
    check_sampling(dmax, p)
    for _ in range(MAX_EMPTY_DRAWS):
        d = (rng.randint(1, dmax), rng.randint(1, dmax), rng.randint(1, dmax))
        u = {h: {pair for pair in _pairs(d, h) if rng.random() < p} for h in (3, 2, 1)}
        if any(u.values()):
            return _variety(d, u)
    raise BadParameter(
        f"no line kept in {MAX_EMPTY_DRAWS} draws with line probability {p!r}"
    )


def random_partition(rng, max_rows: int, max_cols: int) -> tuple[int, ...]:
    """Weakly decreasing positive parts; may be empty."""
    nrows = rng.randint(0, max_rows)
    parts = sorted(
        (rng.randint(1, max_cols) for _ in range(nrows)), reverse=True
    )
    return tuple(parts)


def random_ferrers_variety(rng, dmax: int) -> VarietyOfLines:
    """Nonempty compact variety whose three diagrams are staircases with
    random row partitions p3, p2, p1 (in that order); dmax must be an
    integer in 1..MAX_DMAX."""
    _check_dmax(dmax)
    while True:
        parts = [random_partition(rng, dmax, dmax) for _ in range(3)]
        if any(parts):
            return _staircase(*parts)
