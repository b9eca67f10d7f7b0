"""The finite Weyl group W0 acting on the lattice, with twisted conjugation.

An element is stored as the integer matrix of its action on X, its key
(reduced words are not unique), and as its permutation of the root indices
(Phi^+ then -Phi^+): W0 acts faithfully on the roots (Humphreys, Reflection
Groups and Coxeter Groups, 1.4-1.6), so the elements of a datum are
interned by permutation.  Products compose permutations, a bytes one (at
most 256 roots) by one translate through a 256-byte translation table
built once per element, a tuple one by a map; the inverse, the order (by
repeated composition) and the inversion pattern are read off them.  A
product probes the intern table once, and a hit (most products on a fresh
datum) is returned with no other work.  Only a new element's matrix is
built: one rank-one update M - c (x) r when a factor is a reflection,
else one product.  The canonical reduced word strips the
smallest left descent on the permutation itself, by the simple
reflections' translation tables, so spelling an element builds none.

Each element carries a small integer index and a product row: a * b reads
a's row at b's index, filled on first use.  Next to it sits the move row
(`_moves`), filled by weylcalc.affweyl.move_row: what a move of t^lam u by
each affine generator needs to know of u.
"""

from __future__ import annotations

from itertools import count

from . import linalg
from .errors import DatumMismatch, ExplorationBudgetExceeded, GroupTooLarge, InternalAssertion
from .memo import memo, memoised
from .rootdata import DiagramAutomorphism
from .search import closure, descend, right_moves

W0_CAP = 10_000_000

_BYTES = bytes(range(256))

# Element indices are unique across every datum of the process, so a row
# entry can never be read for the wrong element.
_next_index = count().__next__


class FiniteWeylElt:
    __slots__ = ("datum", "matrix", "perm", "refl", "idx", "_row", "_moves", "_table", "_word",
                 "_length", "_inverse", "_neg_mask", "_order")

    def __init__(self, datum, matrix, perm):
        self.datum = datum
        self.matrix = matrix
        self.perm = perm  # perm[k]: the index of u(beta_k), beta_k the root of index k
        self.refl = None  # the index of beta once this is known as the reflection s_beta
        self.idx = _next_index()
        self._row = {}  # other.idx -> self * other
        self._moves = None  # GeneratorMove per affine generator, in label order
        self._table = None  # bytes permutations: the translation table of perm, see _after
        self._word = self._length = self._inverse = self._neg_mask = self._order = None

    @property
    def key(self):
        return self.matrix

    @property
    def is_identity(self):
        return self.length == 0

    @property
    def length(self):
        """Number of positive roots sent to negative roots."""
        if self._length is None:
            self._length = sum(self.neg_mask)
        return self._length

    @property
    def word(self):
        """Canonical reduced word: repeatedly strip the smallest left descent,
        s_i u being shorter than u iff u^-1 alpha_i is a negative root, i.e.
        alpha_i sits in the second half of u's permutation.  The strip works
        on the permutation alone, so spelling multiplies and interns nothing."""
        if self._word is None:
            d, perm, word, half = self.datum, self.perm, [], len(self.perm) // 2
            while True:
                i = next((i for i, k in enumerate(d.simple_index) if perm.index(k) >= half), None)
                if i is None:
                    break
                word.append(i)
                perm = _after(fw_simple(d, i), perm)
            self._word = tuple(word)
            if len(self._word) != self.length:
                raise InternalAssertion("canonical word length disagrees with inversion count")
        return self._word

    @property
    def neg_mask(self):
        """neg_mask[k] is True iff u^-1 sends pos_roots[k] to a negative
        root, i.e. u sends a negative root to it; drives the length formula."""
        if self._neg_mask is None:
            n = len(self.perm) // 2
            images = set(self.perm[n:])
            self._neg_mask = tuple([k in images for k in range(n)])
        return self._neg_mask

    def inverse(self):
        """The element of the inverse permutation."""
        if self._inverse is None:
            d, perm = self.datum, self.perm
            inv = _intern(d, d.perm_type(sorted(range(len(perm)), key=perm.__getitem__)),
                          lambda: linalg.invert_unimodular(self.matrix))
            self._inverse, inv._inverse = inv, self
        return self._inverse

    def order(self):
        """The least n > 0 with u^n = 1, by composing the permutation with
        itself until it is the identity."""
        if self._order is None:
            perm, ident, n = self.perm, self.datum.perm_type(range(len(self.perm))), 1
            while perm != ident:
                perm, n = _after(self, perm), n + 1
            self._order = n
        return self._order

    def act(self, v):
        """Action on a coweight vector."""
        return linalg.mat_vec(self.matrix, v)

    def __mul__(self, other):
        if not isinstance(other, FiniteWeylElt):
            return NotImplemented
        if not self.datum.same_datum(other.datum):
            raise DatumMismatch("cannot compose elements of different root data")
        prod = self._row.get(other.idx)
        if prod is None:
            prod = self._row[other.idx] = product(self, other)
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


def _intern(datum, perm, matrix_of):
    """The element of datum with permutation perm; matrix_of() gives the
    matrix of a new one."""
    table = memo(datum, "fw_intern")
    elt = table.get(perm)
    if elt is None:
        elt = table.put(perm, FiniteWeylElt(datum, matrix_of(), perm))
    return elt


def _reflection(datum, perm, refl):
    """The reflection s_beta, of matrix 1 - beta^vee (x) beta, with permutation
    perm and beta of index refl, marked as a reflection for product.  One
    probe of the intern table; an element already marked is returned as it is."""
    table = memo(datum, "fw_intern")
    elt = table.get(perm)
    if elt is not None and elt.refl is not None:
        return elt
    matrix = _rank_one(linalg.identity_matrix(datum.rank), datum.coroots[refl], datum.roots[refl])
    if elt is None:
        elt = table.put(perm, FiniteWeylElt(datum, matrix, perm))
    elif elt.matrix != matrix:
        raise InternalAssertion("one root permutation has two matrices")
    elt.refl = refl
    return elt


def _rank_one(m, c, r):
    """m - c (x) r; a row whose coefficient is 0 is kept as it is."""
    return tuple([row if ci == 0 else tuple([x - ci * y for x, y in zip(row, r)])
                  for row, ci in zip(m, c)])


def _after(a, perm):
    """The permutation of a * b for b of permutation perm: a's after b's.
    A bytes permutation is translated by a's 256-byte table, built once per
    element; a tuple (past 256 roots) is mapped through a's permutation."""
    if type(perm) is tuple:
        return tuple(map(a.perm.__getitem__, perm))
    table = a._table
    if table is None:
        table = a._table = bytes.maketrans(_BYTES[:len(perm)], a.perm)
    return perm.translate(table)


def product(a, b):
    """a * b by composing permutations, with no product row: one probe of
    the intern table, and a matrix only for a new element.  For a
    reflection factor s_beta, M_a s_beta = M_a - (a beta)^vee (x) beta and
    s_beta M_b = M_b - beta^vee (x) b^-1 beta."""
    d = a.datum
    perm = _after(a, b.perm)
    table = memo(d, "fw_intern")
    elt = table.get(perm)
    if elt is None:
        if b.refl is not None:
            matrix = _rank_one(a.matrix, d.coroots[a.perm[b.refl]], d.roots[b.refl])
        elif a.refl is not None:
            matrix = _rank_one(b.matrix, d.coroots[a.refl], d.roots[b.perm.index(a.refl)])
        else:
            matrix = linalg.mat_mul(a.matrix, b.matrix)
        elt = table.put(perm, FiniteWeylElt(d, matrix, perm))
    return elt


def fw_identity(datum):
    ident = datum.perm_type(range(len(datum.roots)))
    return _intern(datum, ident, lambda: linalg.identity_matrix(datum.rank))


def fw_simple(datum, i):
    return _reflection(datum, datum.simple_perms[i], datum.simple_index[i])


def fw_from_word(datum, word):
    """s_i1 ... s_ik for a word of 0-based simple indices.  A letter that is
    not an integer raises NotIntegral, one out of range DatumMismatch."""
    elt = fw_identity(datum)
    for i in word:
        i = linalg.as_int(i)
        if not 0 <= i < datum.n_simple:
            raise DatumMismatch(f"simple index {i} is not in 0..{datum.n_simple - 1}")
        elt = elt * fw_simple(datum, i)
    return elt


def fw_reflection(datum, beta, betavee):
    """s_beta for a root beta: gamma -> gamma - <gamma, beta^vee> beta on Phi."""
    index, pairings = datum.root_index, linalg.mat_vec(datum.roots, betavee)
    perm = datum.perm_type(index[tuple([x - c * y for x, y in zip(gamma, beta)])] if c else k
                           for k, (gamma, c) in enumerate(zip(datum.roots, pairings)))
    return _reflection(datum, perm, index[beta])


def fw_inverse(a):
    return a.inverse()


@memoised("w0", key=lambda datum, cap=W0_CAP: cap)
def enumerate_w0(datum, cap=W0_CAP):
    """All elements of W0 by closure under right multiplication.

    Cached on the datum per cap; the returned list is sorted by (length,
    key) so the identity comes first and the longest element last.
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


def twisted_shifts(datum, delta):
    """Search moves v -> s_i v delta(s_i), in index order, leaving out the
    move back: s_i (s_i v delta(s_i)) delta(s_i) = v."""
    n = datum.n_simple
    return lambda v, back: ((i, twisted_conjugate(v, i, delta)) for i in range(n) if i != back)


def delta_reduce_to_min(w, delta=None):
    """Walk w down to a minimal-length element of its twisted conjugacy class.

    Moves are the twisted_shifts and never increase length; the walk
    explores each length level smallest canonical key first and descends at
    the first strictly shorter conjugate.  Returns the landing element and
    the full list of (i, before, after) steps.
    """
    delta = _resolve_delta(w.datum, delta)
    w_min, steps, _, _ = descend(
        w, twisted_shifts(w.datum, delta), W0_CAP, "twisted cyclic-shift search")
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
