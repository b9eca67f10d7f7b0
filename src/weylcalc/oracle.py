"""Brute-force ground truth on small groups.

The ball construction never consults the closed length formula: distances
are BFS levels in the Cayley graph over the simple reflections, extended to
length-zero translates by d(tau * w) := d(w).  This is the anti-regression
backbone for the length formula, straightness, and minimal lengths.

Conjugates are measured without affine products or moves: for g = t^mu v,
w = t^lam u and x = v u v^-1, g w g^-1 = t^(mu + v(lam) - x(mu)) x, so its
Iwahori-Matsumoto length is the sum over positive roots alpha of
|<alpha, mu - x(mu)> + <v^-1 alpha, lam> - [x^-1 alpha < 0]|.  Each
positive root beta_j has exactly one alpha in Phi^+ with v^-1 alpha =
s beta_j, s = +-1.  With nu = v^-1 mu, s <alpha, mu - x(mu)> is
<beta_j, nu - u(nu)> and s [x^-1 alpha < 0] is [v u^-1 beta_j < 0] -
[v beta_j < 0], so that term is

    |F(beta_j) - F(u^-1 beta_j) + <beta_j, lam>|,
    F(gamma) = <gamma, nu> + [v gamma < 0] on Phi.

F is g's level function, and the ball keeps one per element.  Per finite
part u, the offsets o'_j = F(beta_j) - F(u^-1 beta_j) of every level
function are one itemgetter of u^-1's permutation away, and each distinct
o' is kept once.  So each w pairs lam with Phi^+ once and costs one sum
per kept vector, with no finite product and no gather.
"""

from __future__ import annotations

from itertools import chain
from operator import add, itemgetter, sub

from . import linalg
from .affweyl import aw_identity, omega_elements, simple_reflections
from .errors import ExplorationBudgetExceeded
from .memo import memo, memoised
from .record import Record, setfield

BALL_CAP = 1_000_000


class Ball(Record):
    """The ball's elements and distances, and what the minimum needs of
    them, filled on the first brute_min_length call of the ball: levels
    holds each element's level function F (module docstring) as its values
    on Phi in root-index order; heads chains their values on Phi^+; rows
    maps u.idx to the distinct offsets o' of the finite part u, chained in
    first-seen order, each on first use."""

    __slots__ = ("radius", "elements", "distances", "levels", "heads", "rows")

    def __init__(self, radius, elements, distances, levels, heads, rows):
        setfield(self, "radius", radius)
        setfield(self, "elements", elements)
        setfield(self, "distances", distances)
        setfield(self, "levels", levels)
        setfield(self, "heads", heads)
        setfield(self, "rows", rows)

    def distance(self, w):
        return self.distances.get(w.key)


@memoised("oracle_ball", key=lambda datum, radius, cap=BALL_CAP: (radius, cap))
def cayley_ball(datum, radius, cap=BALL_CAP):
    """BFS ball over left multiplication by the simple reflections.

    Each class of length-zero elements contributes its translate of the
    ball, at the same distance as the untranslated element.  Balls are
    memoised per datum and (radius, cap), with their level functions once
    built; callers must treat the returned Ball as read-only.

    When the table holds a larger ball of the same cap, this ball is its
    part at distance <= radius, with the same elements: a translate keeps
    its distance, so the smaller BFS and its translates are that part, in
    the same insertion order.
    """
    table = memo(datum, "oracle_ball")
    larger = [r for r, c in table.table if c == cap and r > radius]
    if larger:
        big = table.get((min(larger), cap))
        dist = {key: d for key, d in big.distances.items() if d <= radius}
        elems = {key: big.elements[key] for key in dist}
        return Ball(radius=radius, elements=elems, distances=dist, levels=[], heads=[], rows={})
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
    return Ball(radius=radius, elements=elems, distances=dist, levels=[], heads=[], rows={})


def _fill_levels(ball, datum):
    """Build the ball's level functions and their heads (Ball)."""
    # F(beta_k) = <v beta_k, mu> + [v beta_k < 0] for g = t^mu v: the entry
    # of (<beta, mu> + [beta < 0])_beta at v's image of index k
    elems = ball.elements.values()
    n = len(datum.pos_roots)
    shifted = {mu: tuple([p + (k >= n) for k, p in enumerate(linalg.mat_vec(datum.roots, mu))])
               for mu in {g.lam for g in elems}}
    levels = [tuple(map(shifted[g.lam].__getitem__, g.fw.perm)) for g in elems]
    # levels last, as brute_min_length reads it as the mark of a full build
    ball.heads[:] = chain.from_iterable(f[:n] for f in levels)
    ball.levels[:] = levels


def _row(ball, u, n):
    """The distinct offsets o'_j = F(beta_j) - F(u^-1 beta_j) over the
    ball's level functions F, chained."""
    moved = map(itemgetter(*u.inverse().perm[:n]), ball.levels)
    # itemgetter of a single index returns the bare item
    offsets = map(sub, ball.heads, chain.from_iterable(moved if n > 1 else zip(moved)))
    return tuple(chain.from_iterable(dict.fromkeys(zip(*[offsets] * n))))


def brute_min_length(w, radius):
    """Minimum length over conjugates g w g^-1 for g in the radius ball,
    boundary included: an upper bound on the minimum of w's class, never a
    certificate of it, since the shortest conjugates may need a conjugator
    outside the ball.

    The ball's level functions, and the row of w's finite part, are built
    on first use.  Then lam is paired with Phi^+ once, added term by term
    to each kept o' of the row, and the absolute values are summed per
    vector (module docstring).
    """
    datum, u = w.datum, w.fw
    ball = cayley_ball(datum, radius)
    paired = linalg.mat_vec(datum.pos_roots, w.lam)
    n = len(paired)
    row = ball.rows.get(u.idx)
    if row is None:
        if not ball.levels:
            _fill_levels(ball, datum)
        row = ball.rows[u.idx] = _row(ball, u, n)
    terms = map(add, paired * (len(row) // n), row)
    return min(map(sum, zip(*[map(abs, terms)] * n)))


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
