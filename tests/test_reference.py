"""Pinned report numbers: a small matrix rerun against committed reference files.

``tests/reference`` holds ``rows.csv`` and ``summary.csv`` of::

    footcalib matrix --motion a2i,walk,spin,wave --seeds 2 --noise 0.006,0.06

Identity columns, error text, gimbal flags and NaN positions must match
exactly, and the condition number bit for bit, since it depends on the
foot window alone. The other columns may move by the relative tolerances
below. Each one is the largest move that a change of summation order alone
(the whitened offset scan, then the FFT offset scan) caused in that column
over the full default matrix, rounded up to the next 1-2-5 step. A change
that moves a number further regenerates both files with the command above
and lists the moves in CHANGES.md.
"""

import csv
import math
from pathlib import Path

import pytest

from footcalib.cli import main

REFERENCE = Path(__file__).parent / "reference"
COMMAND = ["matrix", "--motion", "a2i,walk,spin,wave", "--seeds", "2", "--noise", "0.006,0.06"]

# largest summation-order moves: cc 2.5e-11, re_deg 3.2e-7, td_error_ms
# 1.3e-6 and geodesic_deg 1.2e-5 relative
_CC, _RE, _TD, _GEODESIC = 5e-11, 5e-7, 2e-6, 2e-5
EXACT = {"foot", "motion", "noise_density", "seed", "gimbal_flagged", "error", "rows",
         "cn", "median_cn"}
RELATIVE = {"cc": _CC, "re_deg": _RE, "td_error_ms": _TD, "geodesic_deg": _GEODESIC,
            "median_cc": _CC, "median_re_deg": _RE, "median_abs_td_error_ms": _TD}


def _read(path):
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return reader.fieldnames, list(reader)


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    assert main([*COMMAND, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name, count", [("rows.csv", 64), ("summary.csv", 8)])
def test_report_matches_reference(rerun, name, count):
    header, expected = _read(REFERENCE / name)
    got_header, got = _read(rerun / name)
    assert got_header == header and len(got) == len(expected) == count
    assert set(header) <= EXACT | set(RELATIVE)
    for line, (want, have) in enumerate(zip(expected, got), start=2):
        for column in header:
            if column in EXACT:
                assert have[column] == want[column], (name, line, column)
                continue
            a, b = float(want[column]), float(have[column])
            assert math.isnan(a) == math.isnan(b), (name, line, column)
            if not math.isnan(a):
                assert abs(b - a) <= RELATIVE[column] * abs(a), (name, line, column, a, b)
