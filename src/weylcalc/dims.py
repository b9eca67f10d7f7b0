"""Dimension and nonemptiness evaluators.

dim_profile runs the reduction recursion once per element for every
straight class at once: a minimal-length element w meets only its own class
(kappa(w), nu_bar_w), in dimension l(w) - <2 rho, nu_bar_w>; otherwise a
level-preserving shift exposes a length-reducing step and each class's
dimension is 1 + max over the two shorter elements.  dim_X_flag reads one
class off the profile.  Everything else is a closed formula layered on top,
and the affine Lusztig evaluators add a GammaDescriptor's fiber dimension.

A class is named by StraightClass.pair_key, (kappa, nu_bar as reduced
integer pairs), and enters profiles as an id from the datum's class_ids
table, which is never reset.  _validate_class checks l(C) = <2 rho, nu_bar>
once per class and gives that id; from then on every formula reads l(C)
for <2 rho, nu_bar>, so the virtual dimension (the element part l(w) +
l(eta(w)) minus the class part def(C) + l(C)), the Grassmannian dimension
and the fiber dimension are integers halved.  Fractions are built only for
error messages and at the cache file's edge.

The empty value is absorbing under +1 and max and is kept distinct from 0
everywhere, including serialization.  DimValue and GammaDescriptor are
frozen records (weylcalc.record).
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from math import lcm

from . import linalg
from .affweyl import (
    AffineWeylElt,
    _newton_data,
    class_key,
    eta_decomposition,
    left_move,
    low_shifts,
)
from .errors import (
    HypothesisViolated,
    InternalAssertion,
    NegativeDimension,
    NonIntegralDimension,
    NonIntegralHalf,
    NotDominant,
)
from .finiteweyl import enumerate_w0, longest_element, supp
from .memo import memo, memoised
from .record import Record, setfield
from .search import explore_level


class DimValue(Record):
    """Either the empty value or a finite nonnegative dimension."""

    __slots__ = ("dim",)

    def __init__(self, dim):
        setfield(self, "dim", dim)

    # Record's __eq__, with the field read directly: dimensions are
    # compared in bulk by the verify suites
    def __eq__(self, other):
        if other.__class__ is DimValue:
            return self.dim == other.dim
        return NotImplemented

    __hash__ = Record.__hash__

    @property
    def is_empty(self):
        return self.dim is None

    def plus(self, n):
        if self.is_empty:
            return self
        return DimValue(self.dim + n)

    def __add__(self, n):
        if isinstance(n, int):
            return self.plus(n)
        return NotImplemented

    def to_json(self):
        return {"nonempty": not self.is_empty, "dim": self.dim}

    def __repr__(self):
        return "Empty" if self.is_empty else f"Finite({self.dim})"


EMPTY = DimValue(None)


def finite(n):
    n = linalg.as_int(n)
    if n < 0:
        raise NegativeDimension(f"finite dimension {n} < 0")
    return DimValue(n)


class GammaDescriptor(Record):
    """Class data of a regular semisimple loop-group element.

    Carries the straight class of the element together with the dimension of
    its associated affine Springer fiber, given directly or through the pair
    (discriminant valuation, rank drop).
    """

    __slots__ = ("straight_class", "springer_dim", "d_gamma", "c_gamma")

    def __init__(self, straight_class, springer_dim=None, d_gamma=None, c_gamma=None):
        if springer_dim is None and (d_gamma is None or c_gamma is None):
            raise ValueError(
                "GammaDescriptor needs springer_dim or both d_gamma and c_gamma"
            )
        if springer_dim is not None and springer_dim < 0:
            raise NegativeDimension("springer_dim must be nonnegative")
        setfield(self, "straight_class", straight_class)
        setfield(self, "springer_dim", springer_dim)
        setfield(self, "d_gamma", d_gamma)
        setfield(self, "c_gamma", c_gamma)

    def resolve_springer_dim(self, datum):
        if self.d_gamma is not None and self.c_gamma is not None:
            derived = springer_dim_from_invariants(datum, self)
            if self.springer_dim is not None and self.springer_dim != derived:
                raise ValueError(
                    f"springer_dim={self.springer_dim} disagrees with derived value {derived}"
                )
            return derived
        return self.springer_dim

    def to_json(self):
        return {
            "class": self.straight_class.to_json(),
            "springer_dim": self.springer_dim,
            "d": self.d_gamma,
            "c": self.c_gamma,
        }


def _class_id(datum, pair):
    """The profile id of the class with pair key pair: its index in the
    datum's class_ids table, assigned on first meeting and never reset."""
    ids = memo(datum, "class_ids")
    cid = ids.get(pair)
    return ids.put(pair, len(ids.table)) if cid is None else cid


def _validate_class(datum, cls):
    """Check l(C) = <2 rho, nu_bar> in integers and return the class's
    profile id (_class_id).

    The check depends on the class alone, so it is memoised per datum in
    the class_facts table, keyed by (pair_key, length): class equality
    ignores the length, and a class carrying a wrong length must still be
    refused.  A class that no profile meets reads as Empty.
    """
    facts, key = memo(datum, "class_facts"), (cls.pair_key, cls.length)
    cid = facts.get(key)
    if cid is None:
        nu = cls.pair_key[1]
        den = lcm(*(d for _, d in nu))
        ell = sum(c * n * (den // d) for c, (n, d) in zip(datum.two_rho, nu))
        if ell != den * cls.length:
            raise InternalAssertion(
                f"class length {cls.length} != <2 rho, nu_bar> = {Fraction(ell, den)}")
        cid = facts.put(key, _class_id(datum, cls.pair_key))
    return cid


@memoised("eta", key=lambda w: w.key)
def _eta(w):
    """eta_decomposition(w), memoised per element on the datum."""
    return eta_decomposition(w)


def element_part(w):
    """l(w) + l(eta(w)), the part of the virtual dimension that is w's alone."""
    return w.length + _eta(w).eta.length


def virtual_dimension(w, cls):
    """d_w(C) = (l(w) + l(eta(w)) - def(C) - l(C)) / 2 in integers: the
    element part minus the class part, halved.  A non-integral half is
    surfaced as an error carrying the exact rational, never rounded."""
    _validate_class(w.datum, cls)
    num = element_part(w) - cls.defect - cls.length
    if num % 2:
        raise NonIntegralHalf(Fraction(num, 2))
    return num // 2


def _dim_cache(datum):
    """The datum's profile table: element key -> {class id: dim}.  Profiles
    are shared between the elements of a shift class and never mutated."""
    return memo(datum, "dim_x_flag")


def _shift_descents(w, budget=None):
    """Explore the length-preserving shift class of w, smallest key first,
    until two descents (v, label, s v s) with l(s v s) < l(w) are found.
    Returns the explored elements by key and the descents; none means w is
    of minimal length and the whole shift class was explored."""
    return explore_level(w, low_shifts, budget, "shift-class exploration", want=2)


def _raise_by_one(a, b):
    """Class-by-class max of two profiles, plus 1; Empty stays absorbing."""
    out = {ckey: d + 1 for ckey, d in a.items()}
    for ckey, d in b.items():
        if out.get(ckey, -1) <= d:
            out[ckey] = d + 1
    return out


def dim_profile(w, budget=None):
    """Dimension of the flag cell of w for every straight class at once, as
    a profile {class id: dim} (ids from _class_id).

    The reduction tree depends on w alone; only its leaves depend on the
    class.  A minimal-length leaf x meets only its own class class_key(x),
    in dimension l(x) - <2 rho, nu_bar_x>, and is Empty for every other
    class; an inner node with witness (v, s) is 1 + the class-by-class max
    over s v and s v s.  The tree is walked on an explicit stack, so no
    recursion limit caps the length of w.  The result is independent of
    the witness, and this is asserted by comparing the whole profiles
    along a second witness when one exists.
    """
    cache = _dim_cache(w.datum)
    hit = cache.get(w.key)
    if hit is not None:
        return hit
    table = cache.table
    stack = [[w, None]]  # [element, its shift class and witness children]
    while stack:
        frame = stack[-1]
        v = frame[0]
        if v.key in table:
            stack.pop()
            continue
        if frame[1] is None:
            elts, descents = _shift_descents(v, budget)
            # s u s is the descent the search built; s u is one left move
            children = [(left_move(u, label), sus) for u, label, sus in descents]
            frame[1] = (elts, children)
            missing = [
                c for pair in children for c in pair if cache.get(c.key) is None
            ]
            if missing:
                stack.extend([c, None] for c in missing)
                continue
        elts, children = frame[1]
        if children:
            values = [_raise_by_one(table[a.key], table[b.key]) for a, b in children]
            if len(values) == 2 and values[0] != values[1]:
                raise InternalAssertion(
                    f"reduction result depends on the chosen witness: {values}"
                )
            profile = values[0]
        else:
            # the whole shift class admits no descent, so v is of minimal length:
            # X_v(b) is nonempty only for b = [v], and there its dimension is
            # l(v) - <2 rho, nu_bar_v> (He, Ann. of Math. 179 (2014), Thm 4.8)
            n, _, dominant = _newton_data(v)
            num = n * v.length - linalg.vec_dot(v.datum.two_rho, dominant)
            if num < 0 or num % n:
                raise InternalAssertion(f"minimal-length leaf has dimension {Fraction(num, n)}")
            profile = {_class_id(v.datum, class_key(v)): num // n}
        for key in elts:
            cache.put(key, profile)
        stack.pop()
    return table[w.key]


def dim_X_flag(w, cls, budget=None):
    """Dimension of the flag cell intersection for (w, straight class):
    the class's entry of dim_profile(w), Empty when absent."""
    cid = _validate_class(w.datum, cls)
    dim = dim_profile(w, budget).get(cid)
    return EMPTY if dim is None else DimValue(dim)


def _dominant(datum, mu):
    """mu as a tuple of ints, one per rank, refused unless it is dominant."""
    mu = datum._coordinates(map(linalg.as_int, mu), "mu")
    if not datum.is_dominant(mu):
        raise NotDominant(f"{mu} is not dominant")
    return mu


def dim_X_grass(datum, mu, cls):
    """Closed formula in the affine Grassmannian.

    Empty unless kappa matches and the class Newton point is dominated by
    mu; otherwise <rho, mu - nu_bar> - def/2, computed as (<2 rho, mu> -
    l(C) - def)/2 in integers, which must come out integral.
    """
    _validate_class(datum, cls)
    mu = _dominant(datum, mu)
    if datum.kappa_class(mu) != cls.kappa:
        return EMPTY
    if not datum.dominance_leq(cls.nu_bar, mu):
        return EMPTY
    num = linalg.vec_dot(datum.two_rho, mu) - cls.length - cls.defect
    if num % 2:
        raise NonIntegralDimension(f"Grassmannian formula gave {Fraction(num, 2)}")
    if num < 0:
        raise NegativeDimension(f"Grassmannian formula gave {num // 2}")
    return finite(num // 2)


def springer_dim_from_invariants(datum, gd):
    """Fiber dimension from (discriminant valuation, rank drop):
    <rho, nu_bar> + def/2 + (d - c)/2, computed as (l(C) + def + d - c)/2
    in integers once l(C) = <2 rho, nu_bar> is checked."""
    if gd.d_gamma is None or gd.c_gamma is None:
        raise ValueError("both d_gamma and c_gamma are required")
    cls = gd.straight_class
    _validate_class(datum, cls)
    num = cls.length + cls.defect + gd.d_gamma - gd.c_gamma
    if num % 2:
        raise NonIntegralDimension(f"fiber dimension formula gave {Fraction(num, 2)}")
    if num < 0:
        raise NegativeDimension(f"fiber dimension formula gave {num // 2}")
    return num // 2


def dim_Y_flag(w, gd, budget=None):
    """Flag-variety dimension for ordinary conjugation: the twisted-cell
    dimension shifted by the fiber dimension, with empty absorbing."""
    d = gd.resolve_springer_dim(w.datum)
    return dim_X_flag(w, gd.straight_class, budget).plus(d)


def dim_Y_grass(datum, mu, gd):
    d = gd.resolve_springer_dim(datum)
    return dim_X_grass(datum, mu, gd.straight_class).plus(d)


@memoised("superregular", key=lambda datum, mu, cls: (mu, cls.pair_key))
def superregular_applies(datum, mu, cls):
    """Whether the superregular formula applies to mu and the class cls with
    Newton point nu_bar: raises HypothesisViolated unless mu is dominant
    with <alpha_i, mu> >= 2 for every simple root, and otherwise returns
    whether nu_bar + 2 rho^vee is dominated by mu.  mu is a tuple of ints,
    one per rank."""
    if not datum.is_dominant(datum._coordinates(mu, "mu")):
        raise HypothesisViolated(f"{mu} is not dominant")
    for i in range(datum.n_simple):
        c = linalg.vec_dot(datum.simple_roots[i], mu)
        if c < 2:
            raise HypothesisViolated(f"<alpha_{i}, mu> = {c} < 2; use the flag recursion")
    return datum.dominance_leq(linalg.vec_add(cls.nu_bar, datum.two_rho_check), mu)


def dim_Y_superregular(x, mu, y, gd, budget=None):
    """Closed formula for w = x t^mu y with mu superregular.

    Requires the hypotheses of superregular_applies.  Then the cell is
    nonempty iff kappa matches and supp(y x) is the full finite diagram, in
    which case the dimension is the virtual dimension plus the fiber
    dimension.  The result is always compared with the reduction recursion
    (dim_Y_flag), and a disagreement raises InternalAssertion.  w is built
    as t^{x(mu)} (xy), by one finite product; reading its eta decomposition
    back tests that x t^mu y is the canonical one the formula assumes.
    """
    datum = x.datum
    cls = gd.straight_class
    _validate_class(datum, cls)
    mu = datum._coordinates(map(linalg.as_int, mu), "mu")
    if not superregular_applies(datum, mu, cls):
        raise HypothesisViolated("nu + 2 rho^vee is not dominated by mu")
    w = AffineWeylElt._from_ints(datum, x.act(mu), x * y)
    eta = _eta(w)
    if eta.x != x or eta.mu != mu or eta.y != y:
        raise HypothesisViolated(
            "x t^mu y is not the canonical dominant decomposition of the product"
        )
    d = gd.resolve_springer_dim(datum)
    if datum.kappa_class(mu) != cls.kappa:
        result = EMPTY
    elif supp(eta.eta) != frozenset(range(datum.n_simple)):
        result = EMPTY
    else:
        result = finite(virtual_dimension(w, cls) + d)
    expected = dim_Y_flag(w, gd, budget)
    if expected != result:
        raise InternalAssertion(
            f"superregular formula {result} disagrees with the recursion {expected}"
        )
    return result


CACHE_VERSION = 2


def _cache_path(datum, directory):
    return os.path.join(directory, f"dimx-{datum.hash_hex[:16]}.json")


def save_cache(datum, directory):
    """Persist the profile memo, one entry per element, keyed by the datum
    hash.  The file is written next to its final path and then moved into
    place, so a reader never sees a partial file."""
    cache = _dim_cache(datum)
    # classes are written sorted by (kappa, nu_bar) and renumbered, so the
    # file does not depend on the order in which this process met them
    keys = {cid: (kappa, tuple(Fraction(n, d) for n, d in nu))
            for (kappa, nu), cid in memo(datum, "class_ids").table.items()}
    classes = sorted({cid for profile in cache.table.values() for cid in profile},
                     key=keys.__getitem__)
    file_id = {cid: i for i, cid in enumerate(classes)}
    profiles, profile_index, elements = [], {}, []
    for (lam, matrix), profile in sorted(cache.table.items()):
        i = profile_index.get(id(profile))
        if i is None:
            i = profile_index[id(profile)] = len(profiles)
            profiles.append(sorted([file_id[c], d] for c, d in profile.items()))
        elements.append([list(lam), [list(row) for row in matrix], i])
    payload = {
        "version": CACHE_VERSION,
        "datum": datum.hash_hex,
        "classes": [
            [list(kappa), [linalg.format_fraction(x) for x in nu_bar]]
            for kappa, nu_bar in map(keys.__getitem__, classes)
        ],
        "profiles": profiles,
        "elements": elements,
    }
    os.makedirs(directory, exist_ok=True)
    path = _cache_path(datum, directory)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:  # one dumps call: the C encoder
            fh.write(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _int(x):
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _parse_cache(payload, datum):
    """Element key -> profile from a version-2 payload, with classes renumbered
    to the datum's class ids; raises on any malformed part, so a bad file
    loads no profile."""
    classes = [
        _class_id(datum, (
            tuple(_int(x) for x in kappa),
            tuple((x.numerator, x.denominator) for x in map(linalg.parse_fraction, nu)),
        ))
        for kappa, nu in payload["classes"]
    ]
    profiles = []
    for pairs in payload["profiles"]:
        profile = {}
        for ci, dim in pairs:
            if _int(dim) < 0:
                raise ValueError(f"negative dimension {dim}")
            profile[classes[_int(ci)]] = dim
        profiles.append(profile)
    table = {}
    for lam, matrix, pi in payload["elements"]:
        key = (tuple(_int(x) for x in lam), tuple(tuple(_int(x) for x in row) for row in matrix))
        table[key] = profiles[_int(pi)]
    return table


def load_cache(datum, directory):
    """Load a persisted profile memo and return the number of elements
    loaded.  A missing file, or one for a different datum, loads nothing; an
    unreadable or malformed file, or another format version, also loads
    nothing and is reported by one warning on stderr."""
    path = _cache_path(datum, directory)
    if not os.path.exists(path):
        return 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        version = payload.get("version")
        if version != CACHE_VERSION:
            print(
                f"weylcalc: ignoring cache {path}: format version {version!r}, "
                f"expected {CACHE_VERSION}",
                file=sys.stderr,
            )
            return 0
        if payload.get("datum") != datum.hash_hex:
            return 0
        table = _parse_cache(payload, datum)
    except (
        OSError, ValueError, ZeroDivisionError, KeyError, TypeError, IndexError, AttributeError
    ) as exc:
        print(f"weylcalc: ignoring unreadable cache {path}: {exc}", file=sys.stderr)
        return 0
    cache = _dim_cache(datum)
    for key, profile in table.items():
        cache.put(key, profile)
    return len(table)


@memoised("grass_max", key=lambda datum, mu: mu)
def _coset_max(datum, mu):
    """Class-by-class max of the profiles over the double coset W0 t^mu W0,
    which is {t^lam u : lam in W0 mu, u in W0} since a t^mu b = t^{a(mu)}
    (ab): each element is built from its parts, with no affine product.
    lam sorted, then u by key, walks the keys (lam, u.key) in sorted order,
    the order that groups the profile table's frames and the cache file."""
    w0 = sorted(enumerate_w0(datum), key=lambda u: u.key)
    best = {}
    for lam in sorted({a.act(mu) for a in w0}):
        for u in w0:
            for cid, d in dim_profile(AffineWeylElt._from_ints(datum, lam, u)).items():
                if best.get(cid, -1) < d:
                    best[cid] = d
    return best


def grass_fibration_max(datum, mu, cls):
    """Independent route to the Grassmannian dimension: the maximum of the
    flag dimensions over the double coset W0 t^mu W0, minus the dimension of
    the finite flag fiber.  The class-by-class maximum of the profiles of
    the coset is taken once per mu and answers every class."""
    mu = _dominant(datum, mu)
    cid = _validate_class(datum, cls)
    dim = _coset_max(datum, mu).get(cid)
    return EMPTY if dim is None else DimValue(dim - longest_element(datum).length)
