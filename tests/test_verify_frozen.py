"""`weylcalc verify --suite all` reports, frozen by SHA-256 of stdout.

The digests were taken from the CLI at commit 423077d.  A change that keeps
every answer keeps these bytes; PGL3, SL4 and A3-twisted (over a second
each) are left to manual comparison."""

import contextlib
import hashlib
import io

import pytest

from weylcalc.cli import main

FROZEN = {
    "SL2": "c4a20897ea5c19fdc7473620b9865ac5a76a37beee7a751ae7f9ae80da8a57ad",
    "PGL2": "15448a0c42c3445731da09baf80e122820e259e8fb93adb2d3c290204d4cbc50",
    "SL3": "4739f4df8d0902ee5b316e07abe83b828b908c3799f30055eb05d545c2e28185",
    "Sp4": "b8073587365b9e9ce03e95d18c66a3bd8cd0d60c13c0b9acb42abca8d55fb94f",
    "A2-twisted": "d089723f7c3ca29d2f271bd3b2a75a193bc8d4367a16f0df20fcb2474dcc299d",
}


@pytest.mark.parametrize("group", sorted(FROZEN))
def test_verify_all_report_is_frozen(group):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "all", "--group", group])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == FROZEN[group]
