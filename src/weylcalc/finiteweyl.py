"""The finite Weyl group W0 acting on the lattice, with twisted conjugation.

Elements are stored as the integer matrix of their action on X; the matrix
is the canonical hash key (reduced words are not unique).  A canonical
reduced word is recovered greedily by smallest left descent, which makes
every reported word deterministic.  Elements of one datum are interned so
per-element caches (word, inverse, inversion pattern) are shared.

Each interned element also carries a small integer index and a product
row: a * b reads a's row at b's index, and only on a miss multiplies the
matrices and interns the result.  Rows fill lazily, so a fresh datum pays
for the products it uses and no more.
"""

from __future__ import annotations

from itertools import count

from . import linalg
from .errors import DatumMismatch, ExplorationBudgetExceeded, GroupTooLarge
from .memo import memoised
from .rootdata import DiagramAutomorphism
from .search import closure, descend, left_moves, right_moves

W0_CAP = 10_000_000

# Element indices are unique across every datum of the process, so a row
# entry can never be read for the wrong element.
_next_index = count().__next__


class FiniteWeylElt:
    __slots__ = (
        "datum", "matrix", "idx", "is_identity", "_row",
        "_word", "_length", "_inverse", "_neg_mask", "_order",
    )

    def __init__(self, datum, matrix):
        self.datum = datum
        self.matrix = matrix
        self.idx = _next_index()
        self.is_identity = matrix == linalg.identity_matrix(len(matrix))
        self._row = {}  # other.idx -> self * other
        self._word = None
        self._length = None
        self._inverse = None
        self._neg_mask = None
        self._order = None

    @property
    def key(self):
        return self.matrix

    @property
    def length(self):
        """Number of positive roots sent to negative roots."""
        if self._length is None:
            self._length = sum(self.neg_mask)
        return self._length

    @property
    def word(self):
        """Canonical reduced word: repeatedly strip the smallest left descent."""
        if self._word is None:
            gens = [(i, fw_simple(self.datum, i)) for i in range(self.datum.n_simple)]
            _, steps = descend(self, left_moves(gens), W0_CAP, "canonical word")
            self._word = tuple(i for i, _, _ in steps)
            if len(self._word) != self.length:
                raise AssertionError("canonical word length disagrees with inversion count")
        return self._word

    @property
    def neg_mask(self):
        """neg_mask[k] is True iff this element's inverse sends pos_roots[k]
        to a negative root; drives the affine length formula."""
        if self._neg_mask is None:
            d = self.datum
            self._neg_mask = tuple(
                linalg.row_mat(beta, self.matrix) in d._neg_set for beta in d.pos_roots
            )
        return self._neg_mask

    def inverse(self):
        """The last power of this element before the identity."""
        if self._inverse is None:
            self._power_cycle()
        return self._inverse

    def order(self):
        if self._order is None:
            self._power_cycle()
        return self._order

    def _power_cycle(self):
        prev, power, k = self, self, 1
        while not power.is_identity:
            prev, power = power, power * self
            k += 1
            if k > W0_CAP:
                raise AssertionError("element order exceeds group cap")
        self._order = prev._order = k
        self._inverse = prev
        prev._inverse = self

    def act(self, v):
        """Action on a coweight vector."""
        return linalg.mat_vec(self.matrix, v)

    def inv_act_root(self, beta):
        """The inverse element acting on a root functional: beta o matrix."""
        return linalg.row_mat(beta, self.matrix)

    def __mul__(self, other):
        if not isinstance(other, FiniteWeylElt):
            return NotImplemented
        if not self.datum.same_datum(other.datum):
            raise DatumMismatch("cannot compose elements of different root data")
        prod = self._row.get(other.idx)
        if prod is None:
            prod = _intern(self.datum, linalg.mat_mul(self.matrix, other.matrix))
            self._row[other.idx] = prod
        return prod

    def __eq__(self, other):
        if not isinstance(other, FiniteWeylElt):
            return NotImplemented
        return self.matrix == other.matrix and self.datum.same_datum(other.datum)

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        word = "*".join(f"s{i + 1}" for i in self.word) or "e"
        return f"<{word}>"


@memoised("fw_intern", key=lambda datum, matrix: matrix)
def _intern(datum, matrix):
    return FiniteWeylElt(datum, matrix)


def fw_identity(datum):
    return _intern(datum, linalg.identity_matrix(datum.rank))


def fw_simple(datum, i):
    return _intern(datum, datum.simple_reflection_matrix(i))


def fw_from_word(datum, word):
    elt = fw_identity(datum)
    for i in word:
        elt = elt * fw_simple(datum, i)
    return elt


def fw_reflection(datum, beta, betavee):
    return _intern(datum, datum.reflection_matrix(beta, betavee))


def fw_inverse(a):
    return a.inverse()


@memoised("w0")
def enumerate_w0(datum, cap=W0_CAP):
    """All elements of W0 by closure under right multiplication.

    Cached on the datum; the returned list is sorted by (length, key) so the
    identity comes first and the longest element last.
    """
    gens = [(i, fw_simple(datum, i)) for i in range(datum.n_simple)]
    try:
        elts = closure([fw_identity(datum)], right_moves(gens), cap, "W0 enumeration")
    except ExplorationBudgetExceeded as exc:
        raise GroupTooLarge(f"|W0| exceeds cap {cap}") from exc
    return tuple(sorted(elts.values(), key=lambda w: (w.length, w.key)))


def longest_element(datum):
    return enumerate_w0(datum)[-1]


def _resolve_delta(datum, delta):
    if delta is None:
        delta = datum.delta
    if delta is None:
        delta = DiagramAutomorphism.identity(datum.n_simple, datum.rank)
    return delta


def twisted_conjugate(w, i, delta):
    """s_i * w * delta(s_i)."""
    return fw_simple(w.datum, i) * w * fw_simple(w.datum, delta.perm[i])


def delta_reduce_to_min(w, delta=None):
    """Walk w down to a minimal-length element of its twisted conjugacy class.

    Moves are w -> s * w * delta(s) and never increase length; the walk
    explores each length level breadth-first (smallest canonical key first)
    and descends at the first strictly shorter conjugate.  Returns the
    landing element and the full list of (i, before, after) steps.
    """
    delta = _resolve_delta(w.datum, delta)
    w_min, steps = descend(
        w,
        lambda v: ((i, twisted_conjugate(v, i, delta)) for i in range(w.datum.n_simple)),
        W0_CAP,
        "twisted cyclic-shift search",
    )
    return w_min, tuple(steps)


def supp(w):
    """Simple indices occurring in a reduced word (independent of the word)."""
    return frozenset(w.word)


def supp_delta(w, delta=None):
    delta = _resolve_delta(w.datum, delta)
    out = set()
    frontier = set(supp(w))
    while frontier:
        out |= frontier
        frontier = {delta.perm[i] for i in frontier} - out
    return frozenset(out)


def is_elliptic_delta(w, delta=None):
    return supp_delta(w, delta) == frozenset(range(w.datum.n_simple))
