"""Conjugation combinatorics in the extended affine Weyl group.

Cyclic-shift reduction to minimal length, closures under length-preserving
shifts, the decomposition of a minimal-length element as (finite part u) x
(straight part x) adapted to a spherical generator subset, straight
conjugacy classes keyed by (kappa, dominant Newton point), and the alcove
sign test for Levi compatibility.

All searches run on the kernel in weylcalc.search and are deterministic:
levels are explored smallest canonical key first and generators in label
order, so reported witnesses and paths are reproducible.  Every search is
budget-capped and raises instead of truncating silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .affweyl import (
    AffineWeylElt,
    aw_identity,
    class_key,
    defect_of,
    is_straight,
    omega_elements,
    simple_reflections,
)
from .errors import DecompositionNotFound, InternalAssertion, NotMinimal, UnknownClass
from .finiteweyl import fw_identity, fw_reflection
from .memo import memo, memoised
from .search import closure, descend, left_moves, right_moves


@dataclass(frozen=True)
class StraightClass:
    """A straight conjugacy class, identified by (kappa, nu_bar).

    Doubles as the combinatorial stand-in for a Frobenius-twisted conjugacy
    class of the associated residually split group.  Equality and hashing
    use only the identifying pair; length and defect are derived invariants
    carried along for the dimension formulas.
    """

    kappa: tuple
    nu_bar: tuple
    length: int
    defect: int

    def __eq__(self, other):
        if not isinstance(other, StraightClass):
            return NotImplemented
        return self.kappa == other.kappa and self.nu_bar == other.nu_bar

    def __hash__(self):
        return hash((self.kappa, self.nu_bar))

    @property
    def pair_key(self):
        return (self.kappa, self.nu_bar)

    def to_json(self):
        return {
            "kappa": list(self.kappa),
            "nu": [linalg.format_fraction(x) for x in self.nu_bar],
            "length": self.length,
            "defect": self.defect,
        }

    def __repr__(self):
        nu = ",".join(linalg.format_fraction(x) for x in self.nu_bar)
        return f"StraightClass(kappa={list(self.kappa)}, nu=({nu}), l={self.length}, def={self.defect})"


@dataclass(frozen=True)
class ConjugationStep:
    label: int
    before: AffineWeylElt
    after: AffineWeylElt

    def to_json(self):
        return {"s": self.label, "before": self.before.to_json(), "after": self.after.to_json()}


@dataclass(frozen=True)
class MinimizationResult:
    w_min: AffineWeylElt
    path: tuple

    def to_json(self):
        return {"w_min": self.w_min.to_json(), "path": [st.to_json() for st in self.path]}


@dataclass(frozen=True)
class UxDecomposition:
    u: AffineWeylElt
    x: AffineWeylElt
    K: tuple
    witness: AffineWeylElt

    def to_json(self):
        return {
            "u": self.u.to_json(),
            "x": self.x.to_json(),
            "K": list(self.K),
            "witness": self.witness.to_json(),
        }


def _class_of_straight(x):
    """StraightClass populated from a straight representative."""
    if not is_straight(x):
        raise InternalAssertion("representative is not straight")
    return StraightClass(*class_key(x), length=x.length, defect=defect_of(x))


def shift_moves(datum):
    """Cyclic shifts v -> s v s by the simple reflections, in label order."""
    refl = simple_reflections(datum)
    return lambda v: ((label, s * v * s) for label, s in refl)


@memoised("reduce_min", key=lambda w, budget=None: w.key)
def reduce_to_min(w, budget=None):
    """Minimal-length element of the conjugacy class of w.

    Walks w via conjugation steps v -> s v s, s simple, never increasing
    length: each length level is explored breadth-first and the walk descends
    at the first strictly shorter conjugate found.  The returned path records
    every step taken.
    """
    w_min, steps = descend(w, shift_moves(w.datum), budget, "cyclic-shift search")
    return MinimizationResult(w_min, tuple(ConjugationStep(*step) for step in steps))


def approx_closure(w, budget=None):
    """All elements connected to w by length-preserving conjugation steps,
    as a list sorted by canonical key."""
    lw = w.length
    elts = closure(
        [w], shift_moves(w.datum), budget, "shift-class closure", keep=lambda v: v.length == lw
    )
    return [elts[k] for k in sorted(elts)]


@memoised("spherical_subsets")
def _spherical_subsets(datum):
    """Spherical subsets of the generator labels, smallest first."""
    labels = [label for label, _ in simple_reflections(datum)]
    subsets = []
    for mask in range(1 << len(labels)):
        k = tuple(labels[i] for i in range(len(labels)) if mask & (1 << i))
        if is_spherical(datum, k):
            subsets.append(k)
    subsets.sort(key=lambda k: (len(k), k))
    return tuple(subsets)


def enumerate_parabolic(datum, labels, cap=100_000):
    """The finite subgroup generated by the labeled generators."""
    refl = dict(simple_reflections(datum))
    gens = [(l, refl[l]) for l in labels]
    elts = closure([aw_identity(datum)], right_moves(gens), cap, "parabolic subgroup closure")
    return [elts[k] for k in sorted(elts)]


def is_spherical(datum, labels):
    """True iff the labels omit a node from every component of the affine
    diagram, i.e. the subgroup they generate is finite.

    The diagram is derived from the generators themselves: two generators
    are adjacent iff they fail to commute.
    """
    labels = frozenset(labels)
    graph = _affine_diagram(datum)
    all_labels = set(graph)
    if not labels <= all_labels:
        raise InternalAssertion(f"unknown generator labels: {sorted(labels - all_labels)}")
    seen = set()
    for start in sorted(all_labels):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            a = stack.pop()
            for b in graph[a]:
                if b not in comp:
                    comp.add(b)
                    stack.append(b)
        seen |= comp
        if comp <= labels:
            return False
    return True


@memoised("affine_diagram")
def _affine_diagram(datum):
    """Generator label -> labels of the generators it fails to commute with."""
    refl = simple_reflections(datum)
    return {
        la: {lb for lb, sb in refl if la != lb and (sa * sb).key != (sb * sa).key}
        for la, sa in refl
    }


def ux_decompose(w_min, budget=None, check_minimal=True):
    """Split a minimal-length element through a spherical subset.

    Scans the shift-class of w_min (smallest key first) and the spherical
    subsets K (smallest first) for a presentation w'' = u x with x the
    minimal-length element of W_K w'', u in W_K, x straight, x doubly
    K-minimal, and conjugation by x permuting K.  Returns the first success.
    """
    if check_minimal:
        reduced = reduce_to_min(w_min, budget)
        if reduced.w_min.length < w_min.length:
            raise NotMinimal(
                f"element of length {w_min.length} reduces to length {reduced.w_min.length}"
            )
    datum = w_min.datum
    table = memo(datum, "ux")
    hit = table.get(w_min.key)
    if hit is not None:
        return hit
    refl = dict(simple_reflections(datum))
    shift_class = approx_closure(w_min, budget)
    for w2 in shift_class:
        for k_labels in _spherical_subsets(datum):
            gens = [(l, refl[l]) for l in k_labels]
            # left multiplication changes length by one, so every level of
            # this walk is a single element and it strips K-descents greedily
            x, steps = descend(w2, left_moves(gens), budget, "K-descent strip")
            if not is_straight(x):
                continue
            # x must be minimal on both sides of W_K
            if any((x * s).length < x.length for _, s in gens):
                continue
            xinv = x.inv()
            u = w2 * xinv
            if u.length != len(steps) or u.length + x.length != w2.length:
                continue
            # conjugation by x must permute the chosen generators
            conjugates = [x * s * xinv for _, s in gens]
            images = [next((l for l, g in gens if g == c), None) for c in conjugates]
            if None in images or sorted(images) != sorted(k_labels):
                continue
            result = table.put(
                w_min.key, UxDecomposition(u=u, x=x, K=tuple(k_labels), witness=w2)
            )
            for elt in shift_class:
                table.put(elt.key, result)
            return result
    raise DecompositionNotFound(
        f"no spherical decomposition found for {w_min!r}; this contradicts the "
        "minimal-length structure theory"
    )


def straight_class_of(w, budget=None):
    """The straight conjugacy class whose closure contains w's class."""
    table = memo(w.datum, "straight_class")
    hit = table.get(w.key)
    if hit is not None:
        return hit
    reduced = reduce_to_min(w, budget)
    dec = ux_decompose(reduced.w_min, budget, check_minimal=False)
    cls = _class_of_straight(dec.x)
    if cls.pair_key != class_key(w):
        raise InternalAssertion("(kappa, nu_bar) of the straight part differs from that of w")
    table.put(reduced.w_min.key, cls)
    return table.put(w.key, cls)


@memoised("length_ball", key=lambda datum, max_len, budget=None: max_len)
def length_ball(datum, max_len, budget=None):
    """All elements of length <= max_len, sorted by (length, key).

    BFS closure under right multiplication by the generators, seeded with
    the length-zero elements, accepting only elements inside the ball.
    """
    elts = closure(
        omega_elements(datum), right_moves(simple_reflections(datum)), budget, "length ball",
        keep=lambda v: v.length <= max_len,
    )
    return tuple(sorted(elts.values(), key=lambda w: (w.length, w.key)))


@memoised("straight_classes", key=lambda datum, max_len, budget=None: max_len)
def enumerate_straight_classes(datum, max_len, budget=None):
    """All straight conjugacy classes with a representative of length
    <= max_len, sorted by (length, nu_bar, kappa)."""
    groups = {}
    for w in length_ball(datum, max_len, budget):
        if not is_straight(w):
            continue
        key = class_key(w)
        if key in groups:
            if defect_of(w) != groups[key].defect:
                raise InternalAssertion("defect is not constant on a straight class")
        else:
            groups[key] = _class_of_straight(w)
    return tuple(sorted(groups.values(), key=lambda c: (c.length, c.nu_bar, c.kappa)))


def resolve_class(datum, kappa, nu_bar):
    """StraightClass with the given invariants, or UnknownClass."""
    kappa = tuple(int(x) for x in kappa)
    nu_bar = datum.dominant_rep(nu_bar)
    length = linalg.vec_dot(datum.two_rho, nu_bar)
    if Fraction(length).denominator != 1 or length < 0:
        raise UnknownClass(f"<2 rho, nu> = {length} is not a nonnegative integer")
    for cls in enumerate_straight_classes(datum, int(length)):
        if cls.kappa == kappa and cls.nu_bar == nu_bar:
            return cls
    raise UnknownClass(
        f"no straight class with kappa={list(kappa)}, nu={[str(x) for x in nu_bar]}"
    )


@memoised("levi_groups", key=lambda datum, nu: nu)
def _levi_group(datum, nu):
    """The reflection subgroup of W0 of the roots vanishing on nu, by key."""
    gens = [
        (k, fw_reflection(datum, beta, betavee))
        for k, (beta, betavee) in enumerate(zip(datum.pos_roots, datum.pos_coroots))
        if linalg.vec_dot(beta, nu) == 0
    ]
    return closure([fw_identity(datum)], right_moves(gens), None, "Levi subgroup")


def p_alcove_test(w, nu):
    """Alcove sign test against the parabolic determined by nu.

    True iff (i) the finite part of w lies in the reflection subgroup
    generated by the roots vanishing on nu, and (ii) for every root beta
    positive on nu and every level k, positivity of (beta, k) o w^-1
    implies positivity of (beta, k).

    On the base alcove (beta, k) is positive iff k >= [beta < 0].  For
    w^-1 = t^lam' u', (beta, k) o w^-1 = (beta o M_u', k + <beta, lam'>), so
    some level breaks (ii) iff [beta o M_u' < 0] - <beta, lam'> < [beta < 0].
    """
    datum = w.datum
    nu = tuple(Fraction(x) for x in nu)
    if w.fw.key not in _levi_group(datum, nu):
        return False
    winv = w.inv()
    for alpha in datum.pos_roots:
        pairing = linalg.vec_dot(alpha, nu)
        if pairing == 0:
            continue
        beta = alpha if pairing > 0 else linalg.vec_neg(alpha)
        moved_negative = datum.is_negative_root(winv.fw.inv_act_root(beta))
        if moved_negative - linalg.vec_dot(beta, winv.lam) < (pairing < 0):
            return False
    return True
