"""Dimension and nonemptiness evaluators.

dim_profile runs the reduction recursion once per element for every
straight class at once: a minimal-length element w meets only its own class
(kappa(w), nu_bar_w), in dimension l(w) - <2 rho, nu_bar_w>; otherwise a
level-preserving shift exposes a length-reducing step and each class's
dimension is 1 + max over the two shorter elements.  dim_X_flag reads one
class off the profile.  Everything else is a closed formula layered on top,
and the affine Lusztig evaluators add a GammaDescriptor's fiber dimension.

The empty value is absorbing under +1 and max and is kept distinct from 0
everywhere, including serialization.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .affweyl import class_key, eta_decomposition, from_finite, simple_reflections, translation
from .classes import StraightClass, shift_moves
from .errors import (
    HypothesisViolated,
    InternalAssertion,
    NegativeDimension,
    NonIntegralDimension,
    NonIntegralHalf,
    NotDominant,
)
from .finiteweyl import enumerate_w0, longest_element, supp
from .memo import Memo, memo, memoised
from .search import explore_level


@dataclass(frozen=True)
class DimValue:
    """Either the empty value or a finite nonnegative dimension."""

    dim: int | None

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
    if n < 0:
        raise NegativeDimension(f"finite dimension {n} < 0")
    return DimValue(int(n))


def dim_max(a, b):
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    return DimValue(max(a.dim, b.dim))


@dataclass(frozen=True)
class GammaDescriptor:
    """Class data of a regular semisimple loop-group element.

    Carries the straight class of the element together with the dimension of
    its associated affine Springer fiber, given directly or through the pair
    (discriminant valuation, rank drop).
    """

    straight_class: StraightClass
    springer_dim: int | None = None
    d_gamma: int | None = None
    c_gamma: int | None = None

    def __post_init__(self):
        if self.springer_dim is None and (self.d_gamma is None or self.c_gamma is None):
            raise ValueError(
                "GammaDescriptor needs springer_dim or both d_gamma and c_gamma"
            )
        if self.springer_dim is not None and self.springer_dim < 0:
            raise NegativeDimension("springer_dim must be nonnegative")

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


@memoised("class_facts", key=lambda datum, cls: (cls.kappa, cls.nu_bar, cls.length))
def _validate_class(datum, cls):
    """Check l(C) = <2 rho, nu_bar> and return <rho, nu_bar>.

    Both facts depend on the class alone, so they are memoised per datum,
    keyed by (kappa, nu_bar, length): class equality ignores the length,
    and a class carrying a wrong length must still be refused.
    """
    ell = linalg.vec_dot(datum.two_rho, cls.nu_bar)
    if Fraction(ell) != Fraction(cls.length):
        raise InternalAssertion(f"class length {cls.length} != <2 rho, nu_bar> = {ell}")
    return linalg.vec_dot(datum.rho, cls.nu_bar)


@memoised("eta", key=lambda w: w.key)
def _eta(w):
    """eta_decomposition(w), memoised per element on the datum."""
    return eta_decomposition(w)


def virtual_dimension(w, cls):
    """d_w(C) = (l(w) + l(eta(w)) - def(C) - l(C)) / 2.

    The equivalent Newton-point form (l(w) + l(eta(w)) - def)/2 - <rho, nu>
    is computed alongside and must agree.  A non-integral half is surfaced
    as an error carrying the exact rational, never rounded.
    """
    rho_nu = _validate_class(w.datum, cls)
    eta = _eta(w).eta
    num = w.length + eta.length - cls.defect - cls.length
    d_b = Fraction(w.length + eta.length - cls.defect, 2) - rho_nu
    if d_b != Fraction(num, 2):
        raise InternalAssertion("the two virtual-dimension forms disagree")
    if num % 2 != 0:
        raise NonIntegralHalf(Fraction(num, 2))
    return num // 2


class DimCache(Memo):
    """The memo of dimension profiles keyed by element.

    A profile maps each straight class the cell meets to its dimension; a
    class that is absent is Empty.  Classes enter profiles as small integer
    ids, so that merging profiles hashes no rationals.  Profiles are shared
    between the elements of a shift class and never mutated.
    """

    def __init__(self):
        super().__init__()
        self.class_ids = {}  # class pair key (kappa, nu_bar) -> id
        self.class_keys = []  # id -> class pair key

    def class_id(self, ckey):
        cid = self.class_ids.get(ckey)
        if cid is None:
            cid = self.class_ids[ckey] = len(self.class_keys)
            self.class_keys.append(ckey)
        return cid


def _dim_cache(datum):
    return memo(datum, "dim_x_flag", DimCache)


def _shift_witnesses(w, budget=None):
    """Explore the length-preserving shift class of w, smallest key first,
    until two witnesses (v, s) with l(s v s) < l(w) are found.  Returns the
    explored elements by key and the witnesses; no witness means w is of
    minimal length and the whole shift class was explored."""
    refl = dict(simple_reflections(w.datum))
    elts, descents = explore_level(
        w, shift_moves(w.datum), budget, "shift-class exploration", want=2
    )
    return elts, [(v, refl[label]) for v, label, _ in descents]


def _raise_by_one(a, b):
    """Class-by-class max of two profiles, plus 1; Empty stays absorbing."""
    out = {ckey: d + 1 for ckey, d in a.items()}
    for ckey, d in b.items():
        if out.get(ckey, -1) <= d:
            out[ckey] = d + 1
    return out


def dim_profile(w, budget=None):
    """Dimension of the flag cell of w for every straight class at once, as
    a profile {class id: dim} (ids from DimCache.class_id).

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
            elts, witnesses = _shift_witnesses(v, budget)
            children = [(s * u, s * u * s) for u, s in witnesses]
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
            ckey = class_key(v)
            dim = v.length - linalg.vec_dot(v.datum.two_rho, ckey[1])
            if dim < 0 or dim.denominator != 1:
                raise InternalAssertion(f"minimal-length leaf has dimension {dim}")
            profile = {cache.class_id(ckey): int(dim)}
        for key in elts:
            cache.put(key, profile)
        stack.pop()
    return table[w.key]


def dim_X_flag(w, cls, budget=None):
    """Dimension of the flag cell intersection for (w, straight class):
    the class's entry of dim_profile(w), Empty when absent."""
    _validate_class(w.datum, cls)
    profile = dim_profile(w, budget)
    cid = _dim_cache(w.datum).class_ids.get(cls.pair_key)
    dim = None if cid is None else profile.get(cid)
    return EMPTY if dim is None else DimValue(dim)


def dim_X_grass(datum, mu, cls):
    """Closed formula in the affine Grassmannian.

    Empty unless kappa matches and the class Newton point is dominated by
    mu; otherwise <rho, mu - nu> - def/2, which must come out integral.
    """
    _validate_class(datum, cls)
    mu = tuple(int(x) for x in mu)
    if not datum.is_dominant(mu):
        raise NotDominant(f"{mu} is not dominant")
    if datum.kappa_class(mu) != cls.kappa:
        return EMPTY
    if not datum.dominance_leq(cls.nu_bar, mu):
        return EMPTY
    diff = linalg.vec_sub(tuple(Fraction(x) for x in mu), cls.nu_bar)
    value = linalg.vec_dot(datum.rho, diff) - Fraction(cls.defect, 2)
    if value.denominator != 1:
        raise NonIntegralDimension(f"Grassmannian formula gave {value}")
    if value < 0:
        raise NegativeDimension(f"Grassmannian formula gave {value}")
    return finite(int(value))


def springer_dim_from_invariants(datum, gd):
    """Fiber dimension from (discriminant valuation, rank drop):
    <rho, nu> + def/2 + (d - c)/2."""
    if gd.d_gamma is None or gd.c_gamma is None:
        raise ValueError("both d_gamma and c_gamma are required")
    cls = gd.straight_class
    value = (
        linalg.vec_dot(datum.rho, cls.nu_bar)
        + Fraction(cls.defect, 2)
        + Fraction(gd.d_gamma - gd.c_gamma, 2)
    )
    if value.denominator != 1:
        raise NonIntegralDimension(f"fiber dimension formula gave {value}")
    if value < 0:
        raise NegativeDimension(f"fiber dimension formula gave {value}")
    return int(value)


def dim_Y_flag(w, gd, budget=None):
    """Flag-variety dimension for ordinary conjugation: the twisted-cell
    dimension shifted by the fiber dimension, with empty absorbing."""
    d = gd.resolve_springer_dim(w.datum)
    return dim_X_flag(w, gd.straight_class, budget).plus(d)


def dim_Y_grass(datum, mu, gd):
    d = gd.resolve_springer_dim(datum)
    return dim_X_grass(datum, mu, gd.straight_class).plus(d)


def dim_Y_superregular(x, mu, y, gd, budget=None, cross_check=True):
    """Closed formula for w = x t^mu y with mu superregular.

    Requires <alpha_i, mu> >= 2 for every simple root and nu + 2 rho^vee
    dominated by mu.  Then the cell is nonempty iff kappa matches and
    supp(y x) is the full finite diagram, in which case the dimension is the
    virtual dimension plus the fiber dimension.  When enabled, the result is
    cross-checked against the reduction recursion.
    """
    datum = x.datum
    cls = gd.straight_class
    _validate_class(datum, cls)
    mu = tuple(int(v) for v in mu)
    if not datum.is_dominant(mu):
        raise HypothesisViolated(f"{mu} is not dominant")
    for i in range(datum.n_simple):
        c = linalg.vec_dot(datum.simple_roots[i], mu)
        if c < 2:
            raise HypothesisViolated(f"<alpha_{i}, mu> = {c} < 2; use the flag recursion")
    shifted = linalg.vec_add(cls.nu_bar, datum.two_rho_check)
    if not datum.dominance_leq(shifted, mu):
        raise HypothesisViolated("nu + 2 rho^vee is not dominated by mu")
    w = from_finite(x) * translation(datum, mu) * from_finite(y)
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
    if cross_check:
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
    # classes are written sorted by key and renumbered, so the file does not
    # depend on the order in which this process met them
    classes = sorted({cid for profile in cache.table.values() for cid in profile},
                     key=cache.class_keys.__getitem__)
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
            for kappa, nu_bar in map(cache.class_keys.__getitem__, classes)
        ],
        "profiles": profiles,
        "elements": elements,
    }
    os.makedirs(directory, exist_ok=True)
    path = _cache_path(datum, directory)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
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


def _parse_cache(payload, cache):
    """Element key -> profile from a version-2 payload, with classes renumbered
    to the ids of `cache`; raises on any malformed part, so a bad file loads
    no profile."""
    classes = [
        cache.class_id(
            (tuple(_int(x) for x in kappa), tuple(linalg.parse_fraction(x) for x in nu))
        )
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
        cache = _dim_cache(datum)
        table = _parse_cache(payload, cache)
    except (
        OSError, ValueError, ZeroDivisionError, KeyError, TypeError, IndexError, AttributeError
    ) as exc:
        print(f"weylcalc: ignoring unreadable cache {path}: {exc}", file=sys.stderr)
        return 0
    for key, profile in table.items():
        cache.put(key, profile)
    return len(table)


@memoised("grass_max", key=lambda datum, mu, budget=None: mu)
def _coset_max(datum, mu, budget=None):
    """Class-by-class max of the profiles over the double coset W0 t^mu W0."""
    w0 = enumerate_w0(datum)
    tmu = translation(datum, mu)
    coset = {}
    for a in w0:
        left = from_finite(a) * tmu
        for b in w0:
            w = left * from_finite(b)
            coset[w.key] = w
    best = {}
    for key in sorted(coset):
        for cid, d in dim_profile(coset[key], budget).items():
            if best.get(cid, -1) < d:
                best[cid] = d
    return best


def grass_fibration_max(datum, mu, cls, budget=None):
    """Independent route to the Grassmannian dimension: the maximum of the
    flag dimensions over the double coset W0 t^mu W0, minus the dimension of
    the finite flag fiber.  The class-by-class maximum of the profiles of
    the coset is taken once per mu and answers every class."""
    mu = tuple(int(x) for x in mu)
    if not datum.is_dominant(mu):
        raise NotDominant(f"{mu} is not dominant")
    _validate_class(datum, cls)
    best = _coset_max(datum, mu, budget)
    cid = _dim_cache(datum).class_ids.get(cls.pair_key)
    dim = None if cid is None else best.get(cid)
    return EMPTY if dim is None else DimValue(dim - longest_element(datum).length)
