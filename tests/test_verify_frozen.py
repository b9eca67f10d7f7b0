"""`weylcalc verify` reports, frozen by SHA-256 of stdout.

A change that keeps every answer keeps these bytes.  PGL3, SL4 and
A3-twisted take several seconds for `--suite all`, so only their `--suite
min` reports are frozen here; their other suites are left to manual
comparison.  On the configs beyond the presets, the `verify_min` checked
counts are frozen instead.  Every digest was re-taken from the CLI when
the `min` report lost its `inconclusive` key: each new stdout is the old
one (commit 423077d for `--suite all`, de61a09 for `--suite min`) with
that one line removed."""

import contextlib
import hashlib
import io

import pytest
from conftest import cartan_config

from weylcalc import build_root_datum
from weylcalc.cli import main
from weylcalc.verify import SUITES, verify_min

FROZEN = {
    "SL2": "5e8c4ab02677e0afba1fb08199d7015ad47a49a92d29ab1b29ed95d05cf7c878",
    "PGL2": "955e4f09f0f045c9dea953a07afbf768f0fd217ab45d43b5a77e26d816faa40c",
    "SL3": "a6164bf83137d5bcc40174aa05836097fb86e7aacf24e771c07eba76bd0f19ff",
    "Sp4": "cd11ba9c92a4ab78a8d9eb1692c8472bfafd30241b5afe1f3f3714215f0c8596",
    "A2-twisted": "4c89660e570b88a9aa0beda59876c762599ba2d8784dd302af5a8f13daa27e85",
}

FROZEN_MIN = {
    "PGL3": "f1cbd87a02136e69700d02441e39b847d547ed900b188c367602eede387ba5e8",
    "SL4": "8231e8a636d9beebb3c33f652cff36fe0e660b7c2c40216bb956811cbf242de3",
    "A3-twisted": "2caae3fc405310efd0584798beb2f2ad58c719febb45f78873ad4ce435d3300c",
}


@pytest.mark.parametrize("group", sorted(FROZEN))
def test_verify_all_report_is_frozen(group):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "all", "--group", group])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == FROZEN[group]


@pytest.mark.parametrize("group", sorted(FROZEN_MIN))
def test_verify_min_report_is_frozen(group):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "min", "--group", group])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == FROZEN_MIN[group]


# checked of verify_min at its default sizes
MIN_COUNTS = {"SL5": 1231, "B3": 347, "C3": 347, "G2": 88}


@pytest.mark.parametrize("name", sorted(MIN_COUNTS))
def test_verify_min_counts_are_frozen(name):
    report = verify_min(build_root_datum(cartan_config(name)))
    assert report["passed"]
    assert report["checked"] == MIN_COUNTS[name]


# checked of verify_min on the rank-4 configs at max_len 5, below the
# default 8 so that the four run in under 2 s together
RANK4_MIN_COUNTS = {"D4": 225, "B4": 211, "C4": 211, "F4": 197}


@pytest.mark.parametrize("name", sorted(RANK4_MIN_COUNTS))
def test_rank4_verify_min_counts_are_frozen(name):
    report = verify_min(build_root_datum(cartan_config(name)), max_len=5)
    assert report["passed"]
    assert report["checked"] == RANK4_MIN_COUNTS[name]


# checked of the cheap search suites on the rank-4 configs at their default
# sizes, each on a fresh datum, so p-alcove reads only the reduce_min
# entries its own walks make
RANK4_SEARCH_COUNTS = {
    "D4": {"oracle": 404, "straightness": 225, "census": 1, "straight-cyclic": 5,
           "p-alcove": 361, "dim-bound": 1321, "master": 4304, "finite-delta": 192},
    "B4": {"oracle": 372, "straightness": 211, "census": 1, "straight-cyclic": 3,
           "p-alcove": 276, "dim-bound": 1289, "master": 3864, "finite-delta": 384},
    "C4": {"oracle": 372, "straightness": 211, "census": 1, "straight-cyclic": 3,
           "p-alcove": 314, "dim-bound": 1214, "master": 3864, "finite-delta": 384},
    "F4": {"oracle": 341, "straightness": 197, "census": 1, "straight-cyclic": 2,
           "p-alcove": 203, "dim-bound": 1071, "master": 3440, "finite-delta": 1152},
}


@pytest.mark.parametrize("name, suite", [
    (name, suite) for name, counts in sorted(RANK4_SEARCH_COUNTS.items()) for suite in counts])
def test_rank4_search_suite_counts_are_frozen(name, suite):
    report = SUITES[suite](build_root_datum(cartan_config(name)))
    assert report["passed"]
    assert report["checked"] == RANK4_SEARCH_COUNTS[name][suite]


# checked of every suite on the reducible config at its default sizes, each
# on a fresh datum
REDUCIBLE_COUNTS = {
    "oracle": 286, "straightness": 176, "min": 629, "census": 2, "straight-cyclic": 12,
    "p-alcove": 248, "dim-bound": 1269, "grass": 1035, "superregular": 144, "master": 5032,
    "finite-delta": 12,
}


@pytest.mark.parametrize("suite", sorted(REDUCIBLE_COUNTS))
def test_reducible_suite_counts_are_frozen(suite):
    report = SUITES[suite](build_root_datum(cartan_config("A2xA1")))
    assert report["passed"]
    assert report["checked"] == REDUCIBLE_COUNTS[suite]


# passed and checked of the suites that build the double coset W0 t^mu W0
# (grass) or x t^mu y (superregular), on groups whose `--suite all` report
# is not frozen above, each on a fresh datum; grass at a cap that keeps the
# six cases under a second together
COSET_COUNTS = [
    ("grass", "G2", 4, 620),
    ("grass", "SL4", 2, 128),
    ("grass", "B3", 1, 42),
    ("grass", "C3", 1, 25),
    ("superregular", "G2", None, 144),
    ("superregular", "SL4", None, 576),
]


@pytest.mark.parametrize("suite, name, cap, checked", COSET_COUNTS)
def test_coset_suite_counts_are_frozen(suite, name, cap, checked):
    datum = build_root_datum(name if name == "SL4" else cartan_config(name))
    report = SUITES[suite](datum) if cap is None else SUITES[suite](datum, cap)
    assert report["passed"]
    assert report["checked"] == checked
