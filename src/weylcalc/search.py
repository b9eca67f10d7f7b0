"""The one search kernel behind every walk over group elements.

Elements need `.key` (hashable, totally ordered) and `.length`; `moves(v,
back)` lazily yields `(label, v2)` in a fixed order and is consumed only as
far as the search needs.  `back` is the label of the move that first
reached v, None for a seed or a start: a moves function whose label-`back`
move leads from v back to that element may leave it out, since the search
already holds it (s(svs)s = v for a shift, (vs)s = v for a right move).
Budget rule: a search raises ExplorationBudgetExceeded, naming itself and
its start, once it holds more than `budget` elements (None means
DEFAULT_BUDGET); `descend` counts the elements of all its levels.
"""

from __future__ import annotations

import heapq

from .errors import ExplorationBudgetExceeded

DEFAULT_BUDGET = 1_000_000


def right_moves(gens):
    """v -> v s for the labeled generators (label, s), in order, but for
    the move back."""
    return lambda v, back: ((label, v * s) for label, s in gens if label != back)


def _check(held, budget, what, start):
    if held > budget:
        raise ExplorationBudgetExceeded(f"{what} exceeded its budget of {budget} elements",
                                        what=what, held=held, budget=budget, start=start)


def closure(seeds, moves, budget, what, keep=None):
    """Breadth-first closure of `seeds` under `moves`, restricted to the
    elements `keep` accepts; {key: element} in discovery order.  Each
    element's moves are asked with back the label that first reached it."""
    budget = DEFAULT_BUDGET if budget is None else budget
    elts = {w.key: w for w in seeds}
    queue = list(elts.values())
    # backs[i] is the label that first reached queue[i]; a list beside the
    # queue, since an (element, label) pair per element raised peak memory
    backs = [None] * len(queue)
    start = queue[0] if queue else None
    _check(len(elts), budget, what, start)
    for i, v in enumerate(queue):
        for label, v2 in moves(v, backs[i]):
            if v2.key not in elts and (keep is None or keep(v2)):
                elts[v2.key] = v2
                queue.append(v2)
                backs.append(label)
                _check(len(elts), budget, what, start)
    return elts


def explore_level(start, moves, budget, what, want=1, held=0, origin=None):
    """Explore the length level of `start`, smallest key first, until `want`
    moves to strictly shorter elements are found.

    Returns (level, descents).  `level` maps each explored key to (element,
    via), via being the move (parent key, label) that first reached it, None
    for `start`; v's moves are asked with back the label of its via.
    `descents` holds up to `want` triples (v, label, v2) with l(v2) <
    l(start); it is empty only if the whole level was explored.
    `held` counts what the caller already holds against `budget`, and
    `origin` is the element the caller's search began from (default `start`).
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    lcur = start.length
    level = {start.key: (start, None)}
    heap = [start.key]
    descents = []
    origin = start if origin is None else origin
    _check(held + 1, budget, what, origin)
    room = budget - held  # the level may hold this many
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        k = heappop(heap)
        v, via = level[k]
        for label, v2 in moves(v, None if via is None else via[1]):
            l2 = v2.length
            if l2 < lcur:
                descents.append((v, label, v2))
                if len(descents) == want:
                    return level, descents
            elif l2 == lcur:
                k2 = v2.key
                if k2 not in level:
                    level[k2] = (v2, (k, label))
                    heappush(heap, k2)
                    if len(level) > room:
                        _check(held + len(level), budget, what, origin)
    return level, descents


def descend(start, moves, budget, what, stop=None):
    """Walk `start` down, taking the first descent of each level, until a
    level has none.  Returns the landing element, the steps (label, before,
    after), including the level-preserving moves leading to each descent,
    the count of elements its levels held, and the final level: the
    explore_level map {key: (element, via)} of the level with no descent,
    which holds every element the landing element's moves reach without
    changing length.

    `stop(v)`, asked of each element a descent lands on, may give the walk
    from v as (landing element, steps, held); the walk then ends with it
    when the counts still fit the budget, and otherwise goes on from v,
    as the walk from v is the same walk.  A walk a stop ends returns None
    for its final level, as it never explores it."""
    budget = DEFAULT_BUDGET if budget is None else budget
    steps, held, current = [], 0, start
    while True:
        level, descents = explore_level(current, moves, budget, what, held=held, origin=start)
        if not descents:
            return current, steps, held + len(level), level
        held += len(level)
        v, label, current = descents[0]
        chain = [(label, v, current)]
        k, via = v.key, level[v.key][1]
        while via is not None:
            pk, plabel = via
            chain.append((plabel, level[pk][0], level[k][0]))
            k, via = pk, level[pk][1]
        steps.extend(reversed(chain))
        known = None if stop is None else stop(current)
        if known is not None and held + known[2] <= budget:
            return known[0], steps + list(known[1]), held + known[2], None
