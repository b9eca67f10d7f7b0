"""Per-datum memo tables: every get-or-compute table is a Memo on the datum.

A stored None reads as a miss, so a stored value may be falsy (an empty
coset max, a zero pairing), and a compute that raises stores nothing.

Budget rule: a hit raises whatever the computation would raise on a fresh
datum.  A memoised function that takes a budget keeps it by held= alone;
the few budgeted functions that read a table another way are listed, with
their reasons, in tests/test_memo.py (BUDGET_EXEMPT).
"""

from functools import wraps

from .search import DEFAULT_BUDGET


class Memo:
    """A table with hit and miss counters; the first value stored wins."""

    def __init__(self):
        self.table = {}
        self.hits = 0
        self.misses = 0

    def get(self, key):
        value = self.table.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value):
        return self.table.setdefault(key, value)


def memo(datum, name):
    """The datum's table called name, created on first use."""
    table = datum._cache.get(name)
    if table is None:
        table = datum._cache[name] = Memo()
    return table


def memoised(name, key=None, held=None):
    """Memoise a function's result on the datum of its first argument (a
    datum, or an element carrying one) under key(*args, **kwargs), or once
    per datum when key is None.

    With held, the function takes a `budget` argument (None means
    DEFAULT_BUDGET), and held(value) is the count its computation held
    against it: a stored value whose count is over the call's budget is not
    served, and the call computes afresh, so it raises as on a fresh datum.
    """

    def decorate(fn):
        code = fn.__code__
        at = None if held is None else code.co_varnames[:code.co_argcount].index("budget")

        @wraps(fn)
        def wrapper(*args, **kwargs):
            table = memo(getattr(args[0], "datum", args[0]), name)
            k = None if key is None else key(*args, **kwargs)
            value = table.get(k)
            if value is not None and held is not None:
                budget = kwargs["budget"] if "budget" in kwargs else (
                    args[at] if len(args) > at else None)
                if held(value) > (DEFAULT_BUDGET if budget is None else budget):
                    value = None
            if value is None:
                value = table.put(k, fn(*args, **kwargs))
            return value

        return wrapper

    return decorate
