"""The one search kernel behind every walk over group elements.

Elements need `.key` (hashable, totally ordered) and `.length`; `moves(v)`
lazily yields `(label, v2)` in a fixed order and is consumed only as far as
the search needs.  Budget rule: a search raises ExplorationBudgetExceeded,
naming itself, once it holds more than `budget` elements (None means
DEFAULT_BUDGET); `descend` counts the elements of every level it explores.
"""

from __future__ import annotations

import heapq

from .errors import ExplorationBudgetExceeded

DEFAULT_BUDGET = 1_000_000


def left_moves(gens):
    """v -> s v for the labeled generators (label, s), in order."""
    return lambda v: ((label, s * v) for label, s in gens)


def right_moves(gens):
    """v -> v s for the labeled generators (label, s), in order."""
    return lambda v: ((label, v * s) for label, s in gens)


def _check(held, budget, what):
    if held > budget:
        raise ExplorationBudgetExceeded(f"{what} exceeded its budget of {budget} elements")


def closure(seeds, moves, budget, what, keep=None):
    """Breadth-first closure of `seeds` under `moves`, restricted to the
    elements `keep` accepts; {key: element} in discovery order."""
    budget = DEFAULT_BUDGET if budget is None else budget
    elts = {w.key: w for w in seeds}
    _check(len(elts), budget, what)
    queue = list(elts.values())
    for v in queue:
        for _, v2 in moves(v):
            if v2.key not in elts and (keep is None or keep(v2)):
                elts[v2.key] = v2
                queue.append(v2)
                _check(len(elts), budget, what)
    return elts


def explore_level(start, moves, budget, what, want=1, held=0):
    """Explore the length level of `start`, smallest key first, until `want`
    moves to strictly shorter elements are found.

    Returns (level, descents).  `level` maps each explored key to (element,
    via), via being the move (parent key, label) that first reached it, None
    for `start`.  `descents` holds up to `want` triples (v, label, v2) with
    l(v2) < l(start); it is empty only if the whole level was explored.
    `held` counts what the caller already holds against `budget`.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    lcur = start.length
    level = {start.key: (start, None)}
    heap = [start.key]
    descents = []
    _check(held + 1, budget, what)
    while heap:
        k = heapq.heappop(heap)
        v = level[k][0]
        for label, v2 in moves(v):
            if v2.length < lcur:
                descents.append((v, label, v2))
                if len(descents) == want:
                    return level, descents
            elif v2.length == lcur and v2.key not in level:
                level[v2.key] = (v2, (k, label))
                heapq.heappush(heap, v2.key)
                _check(held + len(level), budget, what)
    return level, descents


def descend(start, moves, budget, what):
    """Walk `start` down, taking the first descent of each level, until a
    level has none.  Returns the landing element and the steps (label,
    before, after), including the level-preserving moves leading to each
    descent."""
    steps, held, current = [], 0, start
    while True:
        level, descents = explore_level(current, moves, budget, what, held=held)
        if not descents:
            return current, steps
        held += len(level)
        v, label, current = descents[0]
        chain = [(label, v, current)]
        k, via = v.key, level[v.key][1]
        while via is not None:
            pk, plabel = via
            chain.append((plabel, level[pk][0], level[k][0]))
            k, via = pk, level[pk][1]
        steps.extend(reversed(chain))
