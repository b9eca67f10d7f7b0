"""Brute-force ground truth on small groups.

The ball construction never consults the closed length formula: distances
are BFS levels in the Cayley graph over the simple reflections, extended to
length-zero translates by d(tau * w) := d(w).  This is the anti-regression
backbone for the length formula, straightness, and minimal lengths.

Conjugates are measured without affine products or moves: for g = t^mu v,
w = t^lam u and x = v u v^-1, g w g^-1 = t^(mu + v(lam) - x(mu)) x, so its
Iwahori-Matsumoto length is the sum over positive roots alpha of
|<alpha, mu - x(mu)> - [x^-1 alpha < 0] + <v^-1 alpha, lam>|.  The ball
lays its elements out once as (v, mu) pairs, with one itemgetter for
every pair's <v^-1 alpha, lam> out of lam's pairings with Phi, and keeps
per finite part u one tuple of its pairs' offsets.  So each w costs one
gather, one map over the chained offsets, and one sum per pair.
"""

from __future__ import annotations

from itertools import chain
from operator import add, itemgetter, neg, sub

from . import linalg
from .affweyl import aw_identity, omega_elements, simple_reflections
from .errors import ExplorationBudgetExceeded
from .memo import memo, memoised
from .record import Record, setfield

BALL_CAP = 1_000_000


class Ball(Record):
    """The ball's elements and distances, and its layout for the minimum:
    pairs lists the elements t^mu v as (v, mu); gather maps (<beta,
    lam>)_beta over Phi to (<v^-1 alpha, lam>)_alpha over Phi^+, pair after
    pair; rows maps u.idx to one tuple with, per pair, the oracle_vectors
    entry (<alpha, mu - x(mu)> - [x^-1 alpha < 0])_alpha of x = v u v^-1,
    filled on first use."""

    __slots__ = ("radius", "elements", "distances", "pairs", "gather", "rows")

    def __init__(self, radius, elements, distances, pairs, gather, rows):
        setfield(self, "radius", radius)
        setfield(self, "elements", elements)
        setfield(self, "distances", distances)
        setfield(self, "pairs", pairs)
        setfield(self, "gather", gather)
        setfield(self, "rows", rows)

    def distance(self, w):
        return self.distances.get(w.key)


@memoised("oracle_ball", key=lambda datum, radius, cap=BALL_CAP: (radius, cap))
def cayley_ball(datum, radius, cap=BALL_CAP):
    """BFS ball over left multiplication by the simple reflections.

    Each class of length-zero elements contributes its translate of the
    ball, at the same distance as the untranslated element.  Balls are
    memoised per datum and (radius, cap), with their layout; callers must
    treat the returned Ball as read-only.
    """
    refl = simple_reflections(datum)
    ident = aw_identity(datum)
    dist = {ident.key: 0}
    elems = {ident.key: ident}

    def add(w, d):
        """Record w at distance d unless it is known; True when it is new."""
        key = w.key
        if key in dist:
            return False
        dist[key] = d
        elems[key] = w
        if len(dist) > cap:
            raise ExplorationBudgetExceeded(
                f"Cayley ball exceeded {cap} nodes",
                what="Cayley ball", held=len(dist), budget=cap,
            )
        return True

    frontier = [ident]
    for level in range(1, radius + 1):
        frontier = [v2 for v2 in (s * v for v in frontier for _, s in refl) if add(v2, level)]
    for tau in omega_elements(datum):
        if not tau.is_identity:
            for key, w in list(elems.items()):
                add(tau * w, dist[key])
    pairs = tuple((g.fw, g.lam) for g in elems.values())
    n = len(datum.pos_roots)
    index = [k for v, _ in pairs for k in v.inverse().perm[:n]]
    # itemgetter of a single index returns the bare item
    gather = itemgetter(*index) if len(index) > 1 else lambda p, k=index[0]: (p[k],)
    return Ball(radius=radius, elements=elems, distances=dist, pairs=pairs,
                gather=gather, rows={})


def _row(datum, pairs, u):
    """The offsets of the finite part u (Ball), by two finite products per
    finite part of the ball."""
    pos = datum.pos_roots
    vectors = memo(datum, "oracle_vectors").table
    conj, row = {}, []
    for v, mu in pairs:
        x = conj.get(v.idx)
        if x is None:
            x = conj[v.idx] = v * u * v.inverse()
        vec = vectors.get((x.idx, mu))
        if vec is None:
            d = linalg.mat_vec(pos, linalg.vec_sub(mu, x.act(mu)))
            vec = vectors[x.idx, mu] = tuple(map(sub, d, x.neg_mask))
        row.append(vec)
    return tuple(row)


def brute_min_length(w, radius):
    """Minimum length over conjugates g w g^-1 for g in the radius ball,
    boundary included: an upper bound on the minimum of w's class, never a
    certificate of it, since the shortest conjugates may need a conjugator
    outside the ball.

    The offsets of w's finite part are built on first use.  Then one gather
    reads every pair's <v^-1 alpha, lam> off the pairings of lam with Phi,
    the offsets are added term by term, and the absolute values are summed
    per pair (module docstring).
    """
    datum, u = w.datum, w.fw
    ball = cayley_ball(datum, radius)
    row = ball.rows.get(u.idx)
    if row is None:
        row = ball.rows[u.idx] = _row(datum, ball.pairs, u)
    paired = linalg.mat_vec(datum.pos_roots, w.lam)
    terms = map(add, ball.gather(paired + tuple(map(neg, paired))), chain.from_iterable(row))
    return min(map(sum, zip(*[map(abs, terms)] * len(paired))))


def brute_straight_check(w, n_max):
    """Directly check l(w^n) = n l(w) for n = 1..n_max."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    power = w
    for n in range(1, n_max + 1):
        if power.length != n * w.length:
            return False
        power = power * w
    return True
