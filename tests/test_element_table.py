"""The product table of W0 against plain matrix arithmetic.

Finite products are read from per-element rows that fill on first use;
these tests recompute every product, inverse, order and length of W0 with
a local triple loop that shares no code with weylcalc.linalg, on every
preset (the twisted ones included), and freeze the bytes of a persisted
cache file so that the table changes no stored output.
"""

import hashlib
import os

import pytest

from weylcalc import build_root_datum
from weylcalc.cli import main
from weylcalc.errors import DatumMismatch
from weylcalc.finiteweyl import enumerate_w0, fw_identity, fw_simple
from weylcalc.rootdata import PRESETS

# SHA-256 of the cache file written by
# `weylcalc table --group SL3 --max-length 10 --class-length 6 --format csv
# --cache-dir DIR`, generated with matrix-product arithmetic before the
# product table existed.
SL3_CACHE_SHA256 = "e02e66bb108ad73caa5d437771a0752743f5b67bd0369ed1a5a8b789189f50a0"


def _matmul(a, b):
    n, m = len(b), len(b[0])
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(n)) for j in range(m)) for row in a
    )


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _inversions(datum, matrix):
    """Positive roots beta with beta o matrix negative."""
    neg = {tuple(-x for x in beta) for beta in datum.pos_roots}
    count = 0
    for beta in datum.pos_roots:
        image = tuple(
            sum(beta[i] * matrix[i][j] for i in range(len(beta))) for j in range(len(matrix[0]))
        )
        count += image in neg
    return count


@pytest.fixture(scope="module", params=sorted(PRESETS))
def group(request):
    datum = build_root_datum(request.param)
    return datum, enumerate_w0(datum)


def test_every_product_matches_the_matrix_product(group):
    datum, w0 = group
    by_matrix = {u.matrix: u for u in w0}
    for a in w0:
        for b in w0:
            prod = a * b
            assert prod.matrix == _matmul(a.matrix, b.matrix)
            assert prod is by_matrix[prod.matrix]
            assert (a * b) is prod


def test_inverse_order_and_length(group):
    datum, w0 = group
    ident = _identity(datum.rank)
    for u in w0:
        inv = u.inverse()
        assert _matmul(u.matrix, inv.matrix) == ident
        assert _matmul(inv.matrix, u.matrix) == ident
        assert inv.inverse() is u
        power, k = u.matrix, 1
        while power != ident:
            power, k = _matmul(power, u.matrix), k + 1
        assert u.order() == k == inv.order()
        assert u.length == _inversions(datum, u.matrix) == len(u.word)
        assert u.is_identity == (u.matrix == ident)


def test_rows_fill_only_on_use():
    datum = build_root_datum("SL4")
    s0, s1 = fw_simple(datum, 0), fw_simple(datum, 1)
    prod = s0 * s1
    assert s0._row == {s1.idx: prod}
    assert s1._row == {}
    assert fw_identity(datum)._row == {}


def test_products_across_equal_and_different_data():
    d1, d2 = build_root_datum("SL3"), build_root_datum("SL3")
    a, b = fw_simple(d1, 0), fw_simple(d2, 1)
    prod = a * b
    assert prod.datum is d1
    assert prod.matrix == _matmul(a.matrix, b.matrix)
    assert (a * b) is prod
    with pytest.raises(DatumMismatch):
        a * fw_simple(build_root_datum("PGL3"), 1)


def test_sl3_cache_file_is_byte_identical(tmp_path, capsys):
    argv = [
        "table", "--group", "SL3", "--max-length", "10", "--class-length", "6",
        "--format", "csv", "--cache-dir", str(tmp_path),
    ]
    for _ in range(2):  # written cold, then left as it is after a warm load
        assert main(argv) == 0
        (name,) = os.listdir(tmp_path)
        with open(tmp_path / name, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == SL3_CACHE_SHA256
    capsys.readouterr()


def test_a_warm_run_leaves_an_unchanged_cache_file_in_place(tmp_path, capsys):
    """A run that adds no entry to the cache it loaded does not rewrite the
    file; a run that adds entries does."""
    argv = [
        "table", "--group", "SL3", "--max-length", "10", "--class-length", "6",
        "--format", "csv", "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    cold = os.stat(path).st_ino
    assert main(argv) == 0
    assert os.stat(path).st_ino == cold
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SL3_CACHE_SHA256
    argv[argv.index("--max-length") + 1] = "11"
    assert main(argv) == 0
    assert os.stat(path).st_ino != cold
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() != SL3_CACHE_SHA256
    capsys.readouterr()
