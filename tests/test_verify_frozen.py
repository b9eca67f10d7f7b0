"""`weylcalc verify` reports, frozen by SHA-256 of stdout.

The `--suite all` digests were taken from the CLI at commit 423077d.  A
change that keeps every answer keeps these bytes.  PGL3, SL4 and A3-twisted
take several seconds for `--suite all`, so only their `--suite min` reports
are frozen here (taken from the CLI at commit de61a09, before the oracle's
minimum was computed per fibre); their other suites are left to manual
comparison.  On the configs beyond the presets, the `verify_min` counts
are frozen instead."""

import contextlib
import hashlib
import io

import pytest
from conftest import cartan_config

from weylcalc import build_root_datum
from weylcalc.cli import main
from weylcalc.verify import verify_min

FROZEN = {
    "SL2": "c4a20897ea5c19fdc7473620b9865ac5a76a37beee7a751ae7f9ae80da8a57ad",
    "PGL2": "15448a0c42c3445731da09baf80e122820e259e8fb93adb2d3c290204d4cbc50",
    "SL3": "4739f4df8d0902ee5b316e07abe83b828b908c3799f30055eb05d545c2e28185",
    "Sp4": "b8073587365b9e9ce03e95d18c66a3bd8cd0d60c13c0b9acb42abca8d55fb94f",
    "A2-twisted": "d089723f7c3ca29d2f271bd3b2a75a193bc8d4367a16f0df20fcb2474dcc299d",
}

FROZEN_MIN = {
    "PGL3": "e3f4871cfa088edb2ce87581b285bb0a255b9dc08896b2be140d46984b4513ef",
    "SL4": "fc7781245964e82c677992e9ec57f5d48e0000a34ce90c24d9b575c49da74807",
    "A3-twisted": "1271bc5ede0fb1881dd83a852f93ad6edd214a266d27f682c4a12b8f4b8dd850",
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


# (checked, inconclusive) of verify_min at its default sizes
MIN_COUNTS = {"SL5": (1231, 0), "B3": (347, 0), "C3": (347, 0), "G2": (84, 4)}


@pytest.mark.parametrize("name", sorted(MIN_COUNTS))
def test_verify_min_counts_are_frozen(name):
    report = verify_min(build_root_datum(cartan_config(name)))
    assert report["passed"]
    assert (report["checked"], report["inconclusive"]) == MIN_COUNTS[name]
