"""Brute-force ground truth on small groups.

The ball construction never consults the closed length formula: distances
are BFS levels in the Cayley graph over the simple reflections, extended to
length-zero translates by d(tau * w) := d(w).  This is the anti-regression
backbone for the length formula, straightness, and minimal lengths.

Conjugates are measured without affine products or moves: for g = t^mu v,
w = t^lam u and x = v u v^-1, g w g^-1 = t^(mu + v(lam) - x(mu)) x, so its
Iwahori-Matsumoto length is the sum over positive roots alpha of
|<alpha, mu - x(mu)> + <alpha, v(lam)> - [x^-1 alpha < 0]|.  Everything
but <alpha, v(lam)> = <v^-1 alpha, lam> depends on u alone, so the ball
keeps one row per fibre for each finite part u, and each w reads its
pairings off the one vector (<beta, lam>)_beta over Phi.
"""

from __future__ import annotations

from operator import add, sub

from . import linalg
from .affweyl import aw_identity, omega_elements, simple_reflections
from .errors import ExplorationBudgetExceeded, Inconclusive
from .memo import memo, memoised
from .record import Record, setfield

BALL_CAP = 1_000_000


class Ball(Record):
    """The ball's elements and distances, its fibres by finite part, and
    their rows by the finite part of the conjugated element.

    A fibre is (v, mus, n_inner) for the elements t^mu v: mus lists their
    translation parts, the n_inner of distance below the radius first.
    rows maps u.idx to one row per fibre, filled by brute_min_length on the
    first w with finite part u: (the indices of v^-1 alpha over alpha in
    Phi^+, the neg_mask of x = v u v^-1, the vectors (<alpha, mu -
    x(mu)>)_alpha of mus, n_inner), the vectors shared through the datum's
    oracle_vectors table.
    """

    __slots__ = ("radius", "elements", "distances", "fibres", "rows")

    def __init__(self, radius, elements, distances, fibres, rows):
        setfield(self, "radius", radius)
        setfield(self, "elements", elements)
        setfield(self, "distances", distances)
        setfield(self, "fibres", fibres)
        setfield(self, "rows", rows)

    def distance(self, w):
        return self.distances.get(w.key)


@memoised("oracle_ball", key=lambda datum, radius, cap=BALL_CAP: (radius, cap))
def cayley_ball(datum, radius, cap=BALL_CAP):
    """BFS ball over left multiplication by the simple reflections.

    Each class of length-zero elements contributes its translate of the
    ball, at the same distance as the untranslated element.  Balls are
    memoised per datum and (radius, cap), with their fibres; callers must
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
    shells = {}  # v -> (inner mus, boundary mus)
    for key, g in elems.items():
        shells.setdefault(g.fw, ([], []))[dist[key] == radius].append(g.lam)
    fibres = tuple((v, inner + boundary, len(inner)) for v, (inner, boundary) in shells.items())
    return Ball(radius=radius, elements=elems, distances=dist, fibres=fibres, rows={})


def _rows(datum, fibres, u):
    """One row per fibre for the finite part u (Ball), by two finite
    products per fibre."""
    pos, n = datum.pos_roots, len(datum.pos_roots)
    vectors = memo(datum, "oracle_vectors").table
    rows = []
    for v, mus, n_inner in fibres:
        vinv = v.inverse()
        x = v * u * vinv
        d = []
        for mu in mus:
            # (<alpha, mu - x(mu)>)_alpha, interned by (x.idx, mu)
            vec = vectors.get((x.idx, mu))
            if vec is None:
                vec = vectors[x.idx, mu] = linalg.mat_vec(pos, linalg.vec_sub(mu, x.act(mu)))
            d.append(vec)
        rows.append((vinv.perm[:n], x.neg_mask, d, n_inner))
    return rows


def brute_min_length(w, radius, cap=BALL_CAP):
    """Minimum length over conjugates g w g^-1 for g in the radius ball.

    The ball's rows for w's finite part are built on first use; then per
    fibre the vector (<alpha, v(lam)> - [x^-1 alpha < 0])_alpha is read off
    (<beta, lam>)_beta, and one sum of absolute values is taken per mu
    (module docstring).  Raises Inconclusive when the boundary shell still
    improves the minimum, so an answer is never wrong, only possibly
    refused.
    """
    datum, u = w.datum, w.fw
    ball = cayley_ball(datum, radius, cap)
    rows = ball.rows.get(u.idx)
    if rows is None:
        rows = ball.rows[u.idx] = _rows(datum, ball.fibres, u)
    pairings = linalg.mat_vec(datum.roots, w.lam)
    lows, inner = [], []
    for index, mask, d, n_inner in rows:
        c = tuple(map(sub, map(pairings.__getitem__, index), mask))
        vals = [sum(map(abs, map(add, dm, c))) for dm in d]
        lows.append(min(vals))
        inner += vals[:n_inner]
    best = min(lows)
    if not inner or best < min(inner):
        raise Inconclusive(
            f"minimum {best} still improves at the boundary of radius {radius}"
        )
    return best


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
