"""The search kernel (weylcalc.search): one closure, one level exploration
and one descent behind every search of the library, with outputs frozen
from the hand-written searches they replaced, and the shift walk checked
against affine products."""

import hashlib
from dataclasses import dataclass

import pytest
from conftest import (
    CARTAN_MATRICES,
    cartan_config,
    enumerate_parabolic,
    reference_closure,
    reference_level,
    reference_reduction,
)
from test_moves import BALL_BOUND

from weylcalc import (
    ExplorationBudgetExceeded,
    approx_closure,
    build_root_datum,
    delta_reduce_to_min,
    enumerate_straight_classes,
    enumerate_w0,
    eta_decomposition,
    from_parts,
    length_ball,
    newton_point,
    p_alcove_test,
    reduce_to_min,
    simple_reflections,
    straight_class_of,
    ux_decompose,
)
from weylcalc import classes, dims, finiteweyl
from weylcalc.affweyl import low_shifts
from weylcalc.classes import _spherical_subsets
from weylcalc.dims import _shift_descents
from weylcalc.errors import GroupTooLarge
from weylcalc.rootdata import PRESETS, DiagramAutomorphism
from weylcalc.search import closure, descend, explore_level

# SHA-256 of _search_digest(group, max_len), generated by the hand-written
# searches the kernel replaced.
SEARCH_DIGESTS = {
    ("PGL2", 6): "5df03f6b2a8c1711596bcfc46954f98737e32142ff54d115ff0993f704816d56",
    ("SL3", 5): "40efb555c89fd1d8e6297bb391ad8c718e2696f29b8b19585caf80d0c3345247",
    ("Sp4", 5): "2420c0706b1197cc37858e1f3f461ae5afbfd669837c8c231950904f3383a027",
    ("PGL3", 4): "1d17e7295df41ffd7a07800b9341ded0246ac37422a69a0256ebf003ad56a5bf",
    ("A2-twisted", 4): "cb7dec723cf01ceb48ea5fe61419694dcb49c61e7346199d7a9a891bc4c99704",
    ("A3-twisted", 3): "58256752a992bb32f7ee2debc99740c993d973339d15760b030aa3f6aa9f37d8",
    ("SL4", 4): "7fde9b9d65788cceeeccb3069ceeb1eb3e159072d46d5896d563a7f41fcf619f",
}


def _search_digest(group, max_len):
    """Every search output on a fresh datum: the W0 order, twisted minima
    and paths over W0, parabolic subgroups, the length ball, and per ball
    element its minimisation path, u x decomposition, straight class, shift
    closure, shift witnesses, eta and alcove tests, then the census."""
    h = hashlib.sha256()

    def put(x):
        h.update(repr(x).encode())
        h.update(b"\n")

    datum = build_root_datum(group)
    w0 = enumerate_w0(datum)
    put([w.key for w in w0])
    deltas = [DiagramAutomorphism.identity(datum.n_simple, datum.rank)]
    if datum.delta is not None:
        deltas.append(datum.delta)
    for delta in deltas:
        for u in w0:
            u_min, path = delta_reduce_to_min(u, delta)
            put((u_min.key, [(i, b.key, a.key) for i, b, a in path]))
    for sub in _spherical_subsets(datum):
        put([v.key for v in enumerate_parabolic(datum, sub)])
    ball = length_ball(datum, max_len)
    put([w.key for w in ball])
    refl = dict(simple_reflections(datum))
    for w in ball:
        r = reduce_to_min(w)
        put(r.to_json())
        put(ux_decompose(r.w_min, check_minimal=False).to_json())
        put(straight_class_of(w).to_json())
        put([v.key for v in approx_closure(w)])
        elts, descents = _shift_descents(w)
        put(sorted(elts))
        put([(v.key, refl[label].key) for v, label, _ in descents])
        e = eta_decomposition(w)
        put((e.x.key, e.mu, e.y.key, e.eta.key))
        put(p_alcove_test(w, newton_point(w)[0]))
        put(p_alcove_test(w, newton_point(r.w_min)[0]))
    put([c.to_json() for c in enumerate_straight_classes(datum, max_len)])
    return h.hexdigest()


@pytest.mark.parametrize("group,max_len", sorted(SEARCH_DIGESTS))
def test_search_outputs_frozen(group, max_len):
    assert _search_digest(group, max_len) == SEARCH_DIGESTS[group, max_len]


def test_enumerate_w0_cap_raises_group_too_large(monkeypatch):
    monkeypatch.setattr(finiteweyl, "W0_CAP", 5)
    with pytest.raises(GroupTooLarge):
        enumerate_w0(build_root_datum("SL3"))


@pytest.mark.parametrize(
    "search,what",
    [
        (lambda w: reduce_to_min(w, budget=1), "cyclic-shift search"),
        (lambda w: approx_closure(w, budget=1), "shift-class closure"),
        (lambda w: _shift_descents(w, budget=1), "shift-class exploration"),
        (lambda w: ux_decompose(w, budget=1, check_minimal=False), "shift-class closure"),
        (lambda w: length_ball(w.datum, 3, budget=4), "length ball"),
    ],
)
def test_budget_overrun_names_the_search(search, what):
    # a translation: minimal length, with a shift class of several elements
    w = from_parts(build_root_datum("SL3"), (3, 3), [])
    with pytest.raises(ExplorationBudgetExceeded, match=what):
        search(w)


# -- the shift kernel against affine products ---------------------------------

SHIFT_DATA = sorted(PRESETS) + ["B3", "C3", "G2"]


def _level_shape(level, descents):
    """(key, via) in insertion order, and the descents by key."""
    return ([(k, via) for k, (_, via) in level.items()],
            [(v.key, label, v2.key) for v, label, v2 in descents])


@pytest.mark.parametrize("name", SHIFT_DATA)
def test_shift_kernel_matches_the_product_reference(name):
    """explore_level over low_shifts, which leaves out the shift back and
    tests each shift by two pairings, holds the level, vias and descents
    that products give with nothing left out; so do approx_closure and
    reduce_to_min's steps and held count."""
    datum = build_root_datum(cartan_config(name) if name in CARTAN_MATRICES else name)
    for w in length_ball(datum, BALL_BOUND[datum.rank]):
        for want in (1, 2):
            level, descents = explore_level(w, low_shifts, None, "shift-class exploration", want)
            assert _level_shape(level, descents) == _level_shape(*reference_level(w, want)), (
                w, want)
        assert [v.key for v in approx_closure(w)] == reference_closure(w), w
        r = reduce_to_min(w)
        steps = [(label, before.key, after.key) for label, before, after in r.path]
        assert (r.w_min.key, steps, r.held) == reference_reduction(w), w


def test_no_shift_walk_yields_the_move_back(monkeypatch):
    """Every element a shift walk asks for moves comes with back the label
    that first reached it (None for a start), and its shifts are the low
    shifts of the element less that one: s (s v s) s is the element the
    walk came from, so the walk never builds it."""
    asked = []  # (element, back, labels yielded)

    def counted(v, back):
        labels = []
        asked.append((v, back, labels))
        for label, v2 in low_shifts(v, back):
            labels.append(label)
            yield label, v2

    monkeypatch.setattr(dims, "low_shifts", counted)
    monkeypatch.setattr(classes, "low_shifts", counted)
    datum = build_root_datum("SL4")
    skipped = 0
    for w in length_ball(datum, BALL_BOUND[datum.rank]):
        asked.clear()
        level, _ = _shift_descents(w)
        assert [back for v, back, _ in asked] == [
            None if level[v.key][1] is None else level[v.key][1][1] for v, _, _ in asked]
        approx_closure(w)
        reduce_to_min(w)
        for v, back, labels in asked:
            every = [label for label, _ in low_shifts(v)]
            rest = [label for label in every if label != back]
            assert labels == rest[:len(labels)], (v, back)
            skipped += len(every) - len(rest)
            assert len(every) - len(rest) == (back is not None), (v, back)
    assert skipped > 0


# -- the kernel on a toy: integers with length |n| and key n ------------------


@dataclass(frozen=True)
class Toy:
    n: int

    @property
    def key(self):
        return self.n

    @property
    def length(self):
        return abs(self.n)


def test_explore_level_stops_pulling_moves_at_want():
    pulled = []

    def moves(v, back):
        for label, n in (("flip", -v.n), ("down", v.n // 2), ("up", 3 * v.n)):
            pulled.append((v.n, label))
            yield label, Toy(n)

    level, descents = explore_level(Toy(5), moves, 100, "toy", want=1)
    assert [(v.n, label, v2.n) for v, label, v2 in descents] == [(5, "down", 2)]
    assert pulled == [(5, "flip"), (5, "down")]
    assert level == {5: (Toy(5), None), -5: (Toy(-5), (5, "flip"))}

    pulled.clear()
    _, descents = explore_level(Toy(5), moves, 100, "toy", want=2)
    assert [(v.n, v2.n) for v, _, v2 in descents] == [(5, 2), (-5, -3)]
    assert pulled == [(5, "flip"), (5, "down"), (5, "up"), (-5, "flip"), (-5, "down")]


def test_descend_counts_every_level_against_the_budget():
    # one element per level, descending 4 -> 3 -> 2 -> 1 -> 0: five held
    def moves(v, back):
        yield "s", Toy(v.n - 1) if v.n > 0 else Toy(1)

    w_min, steps, held, level = descend(Toy(4), moves, 5, "toy walk")
    assert w_min == Toy(0) and held == 5
    assert level == {0: (Toy(0), None)}  # the final level, with no descent
    assert [(label, a.n, b.n) for label, a, b in steps] == [("s", 4 - k, 3 - k) for k in range(4)]
    with pytest.raises(ExplorationBudgetExceeded, match="toy walk"):
        descend(Toy(4), moves, 4, "toy walk")

    def known(v):
        return (Toy(0), [], 2) if v.n == 2 else None

    # a walk a stop ends never explores its final level
    assert descend(Toy(4), moves, 5, "toy walk", known)[2:] == (4, None)


def test_closure_keeps_seeds_and_honours_keep():
    def moves(v, back):
        yield "+", Toy(v.n + 1)
        yield "-", Toy(v.n - 1)

    elts = closure([Toy(0), Toy(0)], moves, 100, "toy", keep=lambda v: v.length <= 2)
    assert list(elts) == [0, 1, -1, 2, -2]
    with pytest.raises(ExplorationBudgetExceeded, match="toy"):
        closure([Toy(0)], moves, 4, "toy", keep=lambda v: v.length <= 2)
