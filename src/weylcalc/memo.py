"""Per-datum memo tables: every get-or-compute table is a Memo on the datum.

A stored None reads as a miss, so a stored value may be falsy (an empty
coset max, a zero pairing), and a compute that raises stores nothing.
"""

from functools import wraps


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


def memo(datum, name, factory=Memo):
    """The datum's table called name, created on first use."""
    table = datum._cache.get(name)
    if table is None:
        table = datum._cache[name] = factory()
    return table


def memoised(name, key=None):
    """Memoise a function's result on the datum of its first argument (a
    datum, or an element carrying one) under key(*args, **kwargs), or once
    per datum when key is None."""

    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            table = memo(getattr(args[0], "datum", args[0]), name)
            k = None if key is None else key(*args, **kwargs)
            value = table.get(k)
            if value is None:
                value = table.put(k, fn(*args, **kwargs))
            return value

        return wrapper

    return decorate
