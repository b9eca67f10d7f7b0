"""Finite Weyl elements as root permutations, against matrices.

Every product, inverse, order, canonical word and inversion pattern read
off a root permutation, every field of a move row, and every fused shift
agrees with what the matrices of the elements give, on every preset and on
the G2/B3/C3/SL5/A2xA1 configs, and for tuple permutations on A16.  The
matrices are multiplied by local loops that share no code with
weylcalc.linalg.  Counting tests keep matrix products off the hot path and
products off the spelling of a word.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CARTAN_MATRICES, cartan_config, matrix_generator_move
from weylcalc import build_root_datum, finiteweyl, length_ball, linalg
from weylcalc.affweyl import (
    from_parts,
    low_shifts,
    move_row,
    simple_reflections,
)
from weylcalc.classes import reduce_to_min, straight_class_of, ux_decompose
from weylcalc.dims import dim_X_flag
from weylcalc.finiteweyl import enumerate_w0, fw_from_word, fw_identity, fw_simple
from weylcalc.memo import memo
from weylcalc.rootdata import PRESETS
from weylcalc.search import closure

DATA = sorted(PRESETS) + sorted(CARTAN_MATRICES)
BALL_BOUND = {1: 8, 2: 6, 3: 4, 4: 3}


def _datum(name):
    return build_root_datum(PRESETS[name] if name in PRESETS else cartan_config(name))


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _row_mat(v, m):
    return tuple(sum(x * y for x, y in zip(v, col)) for col in zip(*m))


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _inverse_matrix(w0):
    by_matrix = {u.matrix: u.matrix for u in w0}
    ident = _identity(len(w0[0].matrix))
    inverses = {m: next(n for n in by_matrix if _matmul(m, n) == ident) for m in by_matrix}
    return inverses.__getitem__


def _agrees_with_its_matrix(u):
    """u's permutation is the action of its matrix on the roots: u(beta) o
    M_u = beta, and M_u beta^vee = u(beta)^vee."""
    d, m = u.datum, u.matrix
    return all(
        _row_mat(d.roots[j], m) == beta
        and tuple(sum(x * y for x, y in zip(row, d.coroots[k])) for row in m) == d.coroots[j]
        for k, (beta, j) in enumerate(zip(d.roots, u.perm))
    )


def _matrix_word(datum, m):
    """The canonical word of the element of matrix m, by matrices alone:
    strip the smallest i with u^-1 alpha_i = alpha_i o M_u negative."""
    neg = {tuple(-x for x in beta) for beta in datum.pos_roots}
    simples = [fw_simple(datum, i).matrix for i in range(datum.n_simple)]
    word = []
    while True:
        i = next((i for i, a in enumerate(datum.simple_roots) if _row_mat(a, m) in neg), None)
        if i is None:
            return tuple(word)
        word.append(i)
        m = _matmul(simples[i], m)


def _matrix_order(m):
    ident, power, k = _identity(len(m)), m, 1
    while power != ident:
        power, k = _matmul(power, m), k + 1
    return k


@pytest.fixture(scope="module", params=DATA)
def group(request):
    datum = _datum(request.param)
    return datum, enumerate_w0(datum)


def test_products_inverses_orders_and_masks_match_the_matrices(group):
    datum, w0 = group
    gens = [s.fw for _, s in simple_reflections(datum)]
    by_matrix = {u.matrix: u for u in w0}
    ident = _identity(datum.rank)
    neg = {tuple(-x for x in beta) for beta in datum.pos_roots}
    for u in w0:
        assert _agrees_with_its_matrix(u)
        for s in gens:
            assert (u * s) is by_matrix[_matmul(u.matrix, s.matrix)]
            assert (s * u) is by_matrix[_matmul(s.matrix, u.matrix)]
        assert (u * u) is by_matrix[_matmul(u.matrix, u.matrix)]
        inv = u.inverse()
        assert _matmul(u.matrix, inv.matrix) == ident and inv.inverse() is u
        assert u.order() == _matrix_order(u.matrix)
        assert u.word == _matrix_word(datum, u.matrix) and len(u.word) == u.length
        assert u.neg_mask == tuple(_row_mat(beta, u.matrix) in neg for beta in datum.pos_roots)


@pytest.mark.parametrize("name", DATA)
def test_every_construction_path_gives_the_matrix_of_the_permutation(name):
    """On fresh data, W0 built by left products (rank-one from a left
    reflection), by right products (from a right one) and by products of
    two non-reflections (one matrix product), and every inverse."""
    for build in ("left", "right", "pairs"):
        datum = _datum(name)
        gens = [fw_simple(datum, i) for i in range(datum.n_simple)]
        if build == "left":
            moves = lambda v, back: ((i, s * v) for i, s in enumerate(gens))
        elif build == "right":
            moves = lambda v, back: ((i, v * s) for i, s in enumerate(gens))
        else:
            pairs = [a * b for a in gens for b in gens if a is not b]
            moves = lambda v, back: ((i, v * p) for i, p in enumerate(pairs))
        elts = list(closure([fw_identity(datum)], moves, None, "test closure").values())
        for u in elts:
            u.inverse()
        table = memo(datum, "fw_intern").table
        assert len({u.matrix for u in table.values()}) == len(table)
        assert all(_agrees_with_its_matrix(u) for u in table.values())


def test_move_rows_match_the_matrix_reference(group):
    datum, w0 = group
    inverse_matrix = _inverse_matrix(w0)
    gens = simple_reflections(datum)
    fields = ("alpha", "k", "coroot", "left_positive", "shift_positive", "beta2", "k2",
              "shift_lam")
    for u in w0:
        for m, (label, s) in zip(move_row(u), gens):
            ref = matrix_generator_move(label, s, u, inverse_matrix)
            assert m.label == label
            assert {f: getattr(m, f) for f in fields} == {f: ref[f] for f in fields}, (u, label)
            assert (m.left.matrix, m.shifted.matrix) == (ref["left"], ref["shifted"])


def test_permutations_past_256_roots_are_tuples():
    """A16 has 272 roots, too many for bytes: its permutations are tuples,
    and products, an inverse, an order, a canonical word and a move row
    still match the matrices."""
    n = 16
    cartan = [[2 if i == j else -(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    datum = build_root_datum({"name": "A16", "rank": n, "roots": cartan,
                              "coroots": [[int(i == j) for j in range(n)] for i in range(n)]})
    assert len(datum.roots) == 272 and datum.perm_type is tuple
    word = [0, 1, 2, 1, 5, 15, 7]
    u = fw_from_word(datum, word)
    assert type(u.perm) is tuple and _agrees_with_its_matrix(u) and u.length == len(word)
    # reflections are involutions, so the inverse matrix is the reversed product
    inv = _identity(n)
    for i in word:
        inv = _matmul(fw_simple(datum, i).matrix, inv)
    assert u.inverse().matrix == inv
    v = fw_from_word(datum, [3, 15, 14, 0, 9, 8])
    for a, b in ((u, v), (v, u), (u, u)):
        prod = a * b
        assert type(prod.perm) is tuple and _agrees_with_its_matrix(prod)
        assert prod.matrix == _matmul(a.matrix, b.matrix)
        assert prod.word == _matrix_word(datum, prod.matrix)
        assert fw_from_word(datum, prod.word) is prod
        assert prod.order() == _matrix_order(prod.matrix)
    gens = simple_reflections(datum)
    inverses = {u.matrix: inv}
    inverses.update({_matmul(s.fw.matrix, u.matrix): _matmul(inv, s.fw.matrix) for _, s in gens})
    for m, (label, s) in zip(move_row(u), gens):
        ref = matrix_generator_move(label, s, u, inverses.__getitem__)
        assert (m.left_positive, m.shift_positive, m.beta2, m.k2, m.shift_lam) == (
            ref["left_positive"], ref["shift_positive"], ref["beta2"], ref["k2"], ref["shift_lam"])
        assert (m.left.matrix, m.shifted.matrix) == (ref["left"], ref["shifted"])


@pytest.mark.parametrize("name", ["SL4", "G2"])
def test_spelling_a_word_multiplies_and_interns_nothing(name, monkeypatch):
    """On a fresh datum, the canonical words of s_theta, the finite part of
    the affine generator, and of an element built by products are read off
    their permutations: no FiniteWeylElt.__mul__ or product call, and no new
    fw_intern entry."""
    datum = _datum(name)
    elts = [dict(simple_reflections(datum))[0].fw, fw_from_word(datum, [1, 0, 1])]
    assert all(u._word is None for u in elts)
    table = memo(datum, "fw_intern").table
    before = len(table)
    calls = {"__mul__": 0, "product": 0}
    for owner, name in ((finiteweyl.FiniteWeylElt, "__mul__"), (finiteweyl, "product")):
        orig = getattr(owner, name)

        def counted(*args, name=name, orig=orig):
            calls[name] += 1
            return orig(*args)

        monkeypatch.setattr(owner, name, counted)
    words = [u.word for u in elts]
    assert calls == {"__mul__": 0, "product": 0} and len(table) == before
    monkeypatch.undo()
    for u, word in zip(elts, words):
        assert len(word) == u.length and fw_from_word(datum, word) is u


@pytest.mark.parametrize("name", DATA)
def test_low_shifts_are_a_left_then_a_right_move(name):
    datum = _datum(name)
    for v in length_ball(datum, BALL_BOUND[datum.rank]):
        low = dict(low_shifts(v))
        for label, s in simple_reflections(datum):
            svs = s * v * s
            if svs.length <= v.length:
                shift = low.pop(label)
                assert shift.key == svs.key and shift._length == svs.length
        assert low == {}


def _sylvester(sym):
    """Every leading principal minor positive, each determinant by Gaussian
    elimination on Fractions."""
    for k in range(1, len(sym) + 1):
        rows = [[Fraction(x) for x in row[:k]] for row in sym[:k]]
        det = Fraction(1)
        for c in range(k):
            pivot = next((i for i in range(c, k) if rows[i][c]), None)
            if pivot is None:
                return False
            if pivot != c:
                rows[c], rows[pivot], det = rows[pivot], rows[c], -det
            det *= rows[c][c]
            for i in range(c + 1, k):
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
        if det <= 0:
            return False
    return True


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 5))
    entries = st.integers(-6, 6)
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    diag = {(i, i): draw(st.integers(0, 12)) for i in range(n)}
    upper.update(diag)
    return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_bareiss_sylvester_matches_the_fraction_determinants(sym):
    assert linalg.is_positive_definite(sym) == _sylvester(sym)


def test_the_hot_path_multiplies_no_matrices(monkeypatch):
    """On a fresh SL4 datum, a query's searches make at most one matrix
    product per new element, and a move row reads no root through a matrix."""
    datum = build_root_datum("SL4")
    table = memo(datum, "fw_intern").table
    calls = {"mat_mul": 0, "row_mat": 0}
    for name in calls:
        orig = getattr(linalg, name)

        def counted(*args, name=name, orig=orig):
            calls[name] += 1
            return orig(*args)

        monkeypatch.setattr(linalg, name, counted)
    w = from_parts(datum, (2, -1, 1), [0, 1, 2, 1, 0])
    before = len(table)
    reduced = reduce_to_min(w)
    ux_decompose(reduced.w_min, check_minimal=False)
    dim_X_flag(w, straight_class_of(w))
    assert len(table) > before and calls["mat_mul"] <= len(table) - before
    for u in enumerate_w0(datum):
        u._moves = None
        move_row(u)
    assert calls["row_mat"] == 0
