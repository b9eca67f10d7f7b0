import pytest

from weylcalc import (
    DatumMismatch,
    DiagramAutomorphism,
    InternalAssertion,
    NotIntegral,
    build_root_datum,
    enumerate_w0,
    from_parts,
    fw_from_word,
    fw_identity,
    fw_inverse,
    fw_simple,
    longest_element,
)
from weylcalc.finiteweyl import (
    delta_reduce_to_min,
    is_elliptic_delta,
    supp,
    supp_delta,
    twisted_conjugate,
)
from weylcalc.linalg import row_mat


def test_involution(sl3):
    s1 = fw_simple(sl3, 0)
    assert (s1 * s1).is_identity


def test_sl3_coxeter_element(sl3):
    c = fw_simple(sl3, 0) * fw_simple(sl3, 1)
    assert c.length == 2
    assert c.order() == 3


def test_inverse_exhaustive_a2(sl3):
    for w in enumerate_w0(sl3):
        assert (w * fw_inverse(w)).is_identity
        assert fw_inverse(w).length == w.length


def test_enumerate_sizes(sl2, sl3, sp4):
    assert len(enumerate_w0(sl2)) == 2
    a2 = enumerate_w0(sl3)
    assert len(a2) == 6
    assert max(w.length for w in a2) == 3
    c2 = enumerate_w0(sp4)
    assert len(c2) == 8
    assert max(w.length for w in c2) == 4
    assert longest_element(sp4).length == 4


def test_datum_mismatch(sl2, sl3):
    with pytest.raises(DatumMismatch):
        fw_simple(sl2, 0) * fw_simple(sl3, 0)


def test_action_permutes_roots(sl3, sp4):
    for datum in (sl3, sp4):
        for w in enumerate_w0(datum):
            for beta in datum.pos_roots:
                image = row_mat(beta, w.matrix)
                assert image in datum.pos_roots or tuple(-x for x in image) in datum.pos_roots


def test_length_equals_word_length_and_inversions(sp4):
    for w in enumerate_w0(sp4):
        assert len(w.word) == w.length
        inversions = sum(
            1 for beta in sp4.pos_roots if tuple(-x for x in row_mat(beta, w.matrix)) in sp4.pos_roots
        )
        assert inversions == w.length
        assert fw_from_word(sp4, w.word) == w


def test_a_word_that_disagrees_with_the_length_is_an_internal_assertion():
    """The canonical word checks its length against the inversion count: an
    element whose cached length is corrupted raises InternalAssertion, which
    the CLI reports as exit 4 with one line, not a bare AssertionError."""
    datum = build_root_datum("SL3")  # fresh, so no shared element is corrupted
    u = fw_simple(datum, 0) * fw_simple(datum, 1)
    u._length, u._word = 3, None
    with pytest.raises(InternalAssertion, match="canonical word length"):
        u.word


# -- twisted conjugation -----------------------------------------------------


def _twisted_class(datum, w, delta):
    seen = {w.key: w}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(datum.n_simple):
                v2 = twisted_conjugate(v, i, delta)
                if v2.key not in seen:
                    seen[v2.key] = v2
                    nxt.append(v2)
        frontier = nxt
    return list(seen.values())


def test_delta_reduce_identity(sl3):
    ident = fw_identity(sl3)
    w_min, path = delta_reduce_to_min(ident)
    assert w_min == ident and path == ()


def test_delta_reduce_longest_a2(sl3):
    # s1 s2 s1 is a transposition in W(A2) ~ S3, so its conjugacy class is
    # the three transpositions; the oracle enumerates the class and takes
    # the true minimum, which is 1
    w = fw_from_word(sl3, [0, 1, 0])
    delta = DiagramAutomorphism.identity(sl3.n_simple, sl3.rank)
    cls = _twisted_class(sl3, w, delta)
    true_min = min(v.length for v in cls)
    assert true_min == 1
    assert len(cls) == 3
    w_min, path = delta_reduce_to_min(w)
    assert w_min.length == true_min
    assert len(path) >= 1


def test_delta_reduce_flip_a2(a2_twisted):
    # with the diagram flip, s1 and s2 are twisted-conjugate
    s1 = fw_simple(a2_twisted, 0)
    cls = _twisted_class(a2_twisted, s1, a2_twisted.delta)
    assert min(v.length for v in cls) == 1
    w_min, _ = delta_reduce_to_min(s1)
    assert w_min.length == 1
    assert fw_simple(a2_twisted, 1) in cls


def test_length_change_pattern(sp4, a2_twisted):
    for datum, delta in (
        (sp4, DiagramAutomorphism.identity(sp4.n_simple, sp4.rank)),
        (a2_twisted, a2_twisted.delta),
    ):
        for w in enumerate_w0(datum):
            for i in range(datum.n_simple):
                diff = twisted_conjugate(w, i, delta).length - w.length
                assert diff in (-2, 0, 2)


def test_geck_pfeiffer_exhaustive(sl3, sp4, a2_twisted, a3_twisted):
    # every element reaches a true class minimum by non-increasing steps
    cases = [
        (sl3, DiagramAutomorphism.identity(sl3.n_simple, sl3.rank)),
        (sp4, DiagramAutomorphism.identity(sp4.n_simple, sp4.rank)),
        (a2_twisted, a2_twisted.delta),
        (a3_twisted, a3_twisted.delta),
    ]
    for datum, delta in cases:
        for w in enumerate_w0(datum):
            cls = _twisted_class(datum, w, delta)
            true_min = min(v.length for v in cls)
            w_min, path = delta_reduce_to_min(w, delta)
            assert w_min.length == true_min
            assert w_min.key in {v.key for v in cls if v.length == true_min}
            lengths = [w.length] + [after.length for _, _, after in path]
            assert all(a >= b for a, b in zip(lengths, lengths[1:]))


# -- support -----------------------------------------------------------------


def test_supp_identity(sl3):
    ident = fw_identity(sl3)
    assert supp(ident) == frozenset()
    assert not is_elliptic_delta(ident)


def test_supp_delta_flip(a2_twisted):
    s1 = fw_simple(a2_twisted, 0)
    assert supp_delta(s1) == frozenset({0, 1})
    assert is_elliptic_delta(s1)


def test_supp_delta_id(sl3):
    s1 = fw_simple(sl3, 0)
    assert supp_delta(s1) == frozenset({0})
    assert not is_elliptic_delta(s1)


def test_supp_reduced_word_independent(sp4):
    # recompute support from an alternative reduced word found by search
    import itertools

    for w in enumerate_w0(sp4):
        target = supp(w)
        words = [
            word
            for word in itertools.product(range(sp4.n_simple), repeat=w.length)
            if fw_from_word(sp4, list(word)) == w
        ]
        assert words, "every element has a reduced word of its own length"
        for word in words:
            assert frozenset(word) == target


@pytest.mark.parametrize(
    "letter, error",
    [(-1, DatumMismatch), (True, NotIntegral), (2, DatumMismatch), (1.0, NotIntegral)],
    ids=["negative", "bool", "past-the-last", "float"],
)
def test_a_bad_word_letter_is_refused(sl3, letter, error):
    """A 0-based letter must be an integer in 0..n_simple-1: -1 is not read
    as s_2 nor True as 1, and 2 and 1.0 raise no bare IndexError or
    TypeError."""
    for build in (lambda: fw_from_word(sl3, [0, letter]), lambda: from_parts(sl3, (0, 0), [letter])):
        with pytest.raises(error):
            build()
