"""eta_decomposition against the search strip it replaced: the memoised
walk in ball order and a cold walk on a fresh datum both give the
reference's x, mu, y and eta; a wrong table entry for a shorter coset mate
is refused; and the walk runs no search."""

import sys

import pytest
from conftest import cartan_config, reference_eta
from test_moves import BALL_BOUND

from weylcalc import (
    DecompositionFailure,
    build_root_datum,
    from_finite,
    from_parts,
    fw_from_word,
    fw_identity,
    fw_simple,
    length_ball,
    search,
    translation,
)
from weylcalc.affweyl import AffineWeylElt, EtaDecomposition, eta_decomposition
from weylcalc.memo import memo
from weylcalc.rootdata import PRESETS

CONFIGS = ("G2", "B3", "C3")


def _datum(name):
    return build_root_datum(name if name in PRESETS else cartan_config(name))


def _parts(dec):
    return dec.x.key, dec.mu, dec.y.key, dec.eta.key


@pytest.mark.parametrize("name", sorted(PRESETS) + list(CONFIGS))
def test_eta_matches_the_search_strip(name):
    datum, fresh = _datum(name), _datum(name)
    ball = length_ball(datum, BALL_BOUND[datum.rank])
    for w in ball:
        want = _parts(reference_eta(w))
        dec = eta_decomposition(w)  # in ball order: shorter coset mates are in the table
        assert _parts(dec) == want, w
        assert from_finite(dec.x) * translation(datum, dec.mu) * from_finite(dec.y) == w
        cold = AffineWeylElt(fresh, w.lam, fw_from_word(fresh, w.fw.word))
        # the walk alone, which stores nothing: the fresh table stays empty
        assert _parts(eta_decomposition.__wrapped__(cold)) == want, w
    assert len(memo(datum, "eta").table) == len(ball)
    assert memo(fresh, "eta").table == {}


def _mate(w):
    """s_i w for the smallest finite left descent s_i of w."""
    for i in range(w.datum.n_simple):
        v = from_finite(fw_simple(w.datum, i)) * w
        if v.length < w.length:
            return v
    return None


def _wrong_entries(datum):
    """(w, its coset mate s_i w, wrong decompositions of the mate) on SL3."""
    s1, s2, e = fw_simple(datum, 0), fw_simple(datum, 1), fw_identity(datum)
    w = from_parts(datum, (0, 0), [1, 0])
    mate = _mate(w)
    assert mate.key == from_parts(datum, (0, 0), [0]).key
    yield w, mate, [
        # exact and dominant, but t^0 s_1 still has the left descent s_1
        EtaDecomposition(x=e, mu=(0, 0), y=s1, eta=s1),
        # a wrong x: l(x) disagrees with the walk
        EtaDecomposition(x=s2 * s1, mu=(0, 0), y=e, eta=s2 * s1),
        # a wrong mu
        EtaDecomposition(x=s1, mu=(1, 1), y=e, eta=s1),
    ]
    # t^lam' u' = 1 t^lam' u' is exact, and length-additive, for the mate
    # t^lam' u' of an element w; it is wrong where lam' is not dominant
    w = next(w for w in length_ball(datum, 4)
             if _mate(w) is not None and not datum.is_dominant(_mate(w).lam))
    mate = _mate(w)
    yield w, mate, [EtaDecomposition(x=e, mu=mate.lam, y=mate.fw, eta=mate.fw)]


@pytest.mark.parametrize("which", range(4))
def test_a_wrong_entry_for_the_coset_mate_is_refused(which):
    datum = build_root_datum("SL3")
    cases = [(w, mate, wrong) for w, mate, entries in _wrong_entries(datum) for wrong in entries]
    w, mate, wrong = cases[which]
    # the walk alone, so that w itself is not stored
    assert _parts(eta_decomposition.__wrapped__(w)) == _parts(reference_eta(w))
    memo(datum, "eta").put(mate.key, wrong)
    with pytest.raises(DecompositionFailure):
        eta_decomposition(w)


def test_eta_runs_no_search(monkeypatch):
    datum = build_root_datum("Sp4")
    ball = length_ball(datum, 6)
    calls = []
    for fn_name in ("closure", "explore_level", "descend"):
        orig = getattr(search, fn_name)

        def counting(*args, _name=fn_name, _orig=orig, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        for mod in [m for name, m in sys.modules.items() if name.startswith("weylcalc.")]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counting)
    for w in ball:
        eta_decomposition(w)
    cold = build_root_datum("Sp4")
    for w in ball:
        eta_decomposition(AffineWeylElt(cold, w.lam, fw_from_word(cold, w.fw.word)))
    assert calls == []
    # the counters do see a search
    length_ball(cold, 2)
    assert "closure" in calls
