"""Brute-force ground truth on small groups.

The ball construction never consults the closed length formula: distances
are BFS levels in the Cayley graph over the simple reflections, extended to
length-zero translates by d(tau * w) := d(w).  This is the anti-regression
backbone for the length formula, straightness, and minimal lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affweyl import aw_identity, omega_elements, simple_reflections
from .errors import ExplorationBudgetExceeded, Inconclusive
from .memo import memoised

BALL_CAP = 1_000_000


@dataclass(frozen=True)
class Ball:
    radius: int
    elements: dict
    distances: dict
    inverses: dict

    def distance(self, w):
        return self.distances.get(w.key)


@memoised(
    "oracle_ball",
    key=lambda datum, radius, cap=BALL_CAP, include_omega=True: (radius, cap, include_omega),
)
def cayley_ball(datum, radius, cap=BALL_CAP, include_omega=True):
    """BFS ball over left multiplication by the simple reflections.

    With include_omega, each class of length-zero elements contributes its
    translate of the ball, at the same distance as the untranslated element.
    Balls are memoised per datum and (radius, cap, include_omega), with the
    inverse of every element; callers must treat the returned Ball as
    read-only.
    """
    refl = simple_reflections(datum)
    ident = aw_identity(datum)
    dist = {ident.key: 0}
    elems = {ident.key: ident}
    frontier = [ident]
    for level in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for _, s in refl:
                v2 = s * v
                if v2.key not in dist:
                    dist[v2.key] = level
                    elems[v2.key] = v2
                    nxt.append(v2)
                    if len(dist) > cap:
                        raise ExplorationBudgetExceeded(f"Cayley ball exceeded {cap} nodes")
        frontier = nxt
    if include_omega:
        for tau in omega_elements(datum):
            if tau.is_identity:
                continue
            for key, w in list(elems.items()):
                tw = tau * w
                if tw.key not in dist:
                    dist[tw.key] = dist[key]
                    elems[tw.key] = tw
                    if len(dist) > cap:
                        raise ExplorationBudgetExceeded(f"Cayley ball exceeded {cap} nodes")
    inverses = {key: g.inv() for key, g in elems.items()}
    return Ball(radius=radius, elements=elems, distances=dist, inverses=inverses)


def brute_min_length(w, radius, cap=BALL_CAP):
    """Minimum length over conjugates g w g^-1 for g in the radius ball.

    Raises Inconclusive when the boundary shell still improves the minimum,
    so an answer is never wrong, only possibly refused.
    """
    ball = cayley_ball(w.datum, radius, cap)
    best = None
    best_inner = None
    for key, g in ball.elements.items():
        val = (g * w * ball.inverses[key]).length
        if best is None or val < best:
            best = val
        if ball.distances[key] < radius and (best_inner is None or val < best_inner):
            best_inner = val
    if best_inner is None or best < best_inner:
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
