"""Conjugation combinatorics in the extended affine Weyl group.

Cyclic-shift reduction to minimal length, closures under length-preserving
shifts, the decomposition of a minimal-length element as (finite part u) x
(straight part x) adapted to a spherical generator subset, straight
conjugacy classes keyed in integers by (kappa, dominant Newton point as
reduced pairs), the class_key of each member, and the alcove sign test for
Levi compatibility.

The census of straight classes builds no length ball and runs no search.
Straight classes are in bijection with B(G) (He, Ann. of Math. 179, 2014),
and B(G) with the pairs (J, lam mod Z<alpha_j^vee : j in J>) whose nu =
pr_J(lam) is dominant and positive off J (Kottwitz, Compositio Math. 109,
1997).  The census walks those pairs by the simple pairings of lam and reads
each class off the length-zero element of M_J's extended affine Weyl group
in the coset of t^lam; resolve_class walks only the J of its nu_bar.
length_ball still enumerates elements.

All searches run on the kernel in weylcalc.search and are deterministic:
levels are explored smallest canonical key first and generators in label
order, so reported witnesses and paths are reproducible.  Every search is
budget-capped and raises instead of truncating silently.

StraightClass and the search results (ConjugationStep, MinimizationResult,
UxDecomposition) are frozen records (weylcalc.record); a StraightClass
computes its pair_key once, when it is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .affweyl import (
    AffineWeylElt,
    _levi,
    _newton_data,
    cartan_inverse,
    class_key,
    coweight,
    defect_of,
    is_straight,
    kappa_w,
    left_ascents,
    left_descents,
    low_shifts,
    omega_elements,
    simple_reflections,
)
from .errors import (
    DecompositionNotFound,
    ExplorationBudgetExceeded,
    InternalAssertion,
    NotMinimal,
    UnknownClass,
)
from .memo import memo, memoised
from .record import Record, setfield
from .search import DEFAULT_BUDGET, closure, descend


class StraightClass(Record):
    """A straight conjugacy class, identified by (kappa, nu_bar).

    Doubles as the combinatorial stand-in for a Frobenius-twisted conjugacy
    class of the associated residually split group.  Equality and hashing
    use only pair_key, the identifying pair in integers: (kappa, nu_bar as
    reduced (numerator, denominator) pairs), the value class_key gives for
    every element of the class.  length and defect are derived invariants
    carried along for the dimension formulas, and nu_bar stays a tuple of
    Fractions for printing and sorting.
    """

    __slots__ = ("kappa", "nu_bar", "length", "defect", "pair_key")

    def __init__(self, kappa, nu_bar, length, defect):
        setfield(self, "kappa", kappa)
        setfield(self, "nu_bar", nu_bar)
        setfield(self, "length", length)
        setfield(self, "defect", defect)
        setfield(self, "pair_key", (kappa, tuple([(x.numerator, x.denominator) for x in nu_bar])))

    def __eq__(self, other):
        if not isinstance(other, StraightClass):
            return NotImplemented
        return self.pair_key == other.pair_key

    def __hash__(self):
        return hash(self.pair_key)

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


class ConjugationStep(Record):
    __slots__ = ("label", "before", "after")

    def __init__(self, label, before, after):
        setfield(self, "label", label)
        setfield(self, "before", before)
        setfield(self, "after", after)

    def to_json(self):
        return {"s": self.label, "before": self.before.to_json(), "after": self.after.to_json()}


class MinimizationResult(Record):
    """w_min, the steps leading to it, and the count of elements the walk
    held against its budget."""

    __slots__ = ("w_min", "path", "held")

    def __init__(self, w_min, path, held):
        setfield(self, "w_min", w_min)
        setfield(self, "path", path)
        setfield(self, "held", held)

    def to_json(self):
        return {"w_min": self.w_min.to_json(), "path": [st.to_json() for st in self.path]}


class UxDecomposition(Record):
    """held, the largest count its searches held, is not printed."""

    __slots__ = ("u", "x", "K", "witness", "held")

    def __init__(self, u, x, K, witness, held):
        setfield(self, "u", u)
        setfield(self, "x", x)
        setfield(self, "K", K)
        setfield(self, "witness", witness)
        setfield(self, "held", held)

    def to_json(self):
        return {
            "u": self.u.to_json(),
            "x": self.x.to_json(),
            "K": list(self.K),
            "witness": self.witness.to_json(),
        }


def _class_of(w):
    """[w]'s StraightClass read off w in integers: kappa(w), nu_bar from
    _newton_data, length <2 rho, nu_bar> and defect_of(w), which is [w]'s
    for w straight or of length zero in a Levi's extended affine Weyl group."""
    n, _, dominant = _newton_data(w)
    length = linalg.vec_dot(w.datum.two_rho, dominant)
    if length % n:
        raise InternalAssertion(f"<2 rho, nu_bar> = {Fraction(length, n)} is not an integer")
    return StraightClass(kappa_w(w), tuple([Fraction(x, n) for x in dominant]), length // n, defect_of(w))


@memoised("reduce_min", key=lambda w, budget=None: w.key, held=lambda r: r.held)
def reduce_to_min(w, budget=None):
    """Minimal-length element of the conjugacy class of w.

    Walks w via conjugation steps v -> s v s, s simple, never increasing
    length: each length level is explored smallest key first and the walk
    descends at the first strictly shorter conjugate found.  The returned
    path records every step taken.  A descent that lands on an element whose
    reduction the reduce_min table holds ends the walk with that reduction's
    steps, when its count still fits the budget.

    A walk that ends on its own final level has explored the whole
    length-preserving shift class C of w_min, with no descent, and a walk
    from any member v of C explores exactly C: the table records (v, (), |C|)
    for every member, and the held rule serves it only within the budget.
    """
    table = memo(w.datum, "reduce_min")
    known = table.table

    def stop(v):
        hit = known.get(v.key)
        if hit is not None:
            return hit.w_min, ((st.label, st.before, st.after) for st in hit.path), hit.held

    w_min, steps, held, level = descend(w, low_shifts, budget, "cyclic-shift search", stop)
    if level is not None:
        for key, (v, _) in level.items():
            table.put(key, MinimizationResult(v, (), len(level)))
    return MinimizationResult(w_min, tuple(ConjugationStep(*step) for step in steps), held)


def approx_closure(w, budget=None):
    """All elements connected to w by length-preserving conjugation steps,
    as a list sorted by canonical key."""
    lw = w.length
    elts = closure(
        [w], low_shifts, budget, "shift-class closure", keep=lambda v: v.length == lw
    )
    return [elts[k] for k in sorted(elts)]


def _spherical_subsets(datum):
    """Spherical subsets of the generator labels, smallest first.

    The affine diagram of a component c of the finite diagram is that
    component plus its affine node -c, and it is connected, so labels
    generate a finite group iff they hold no component's whole affine
    diagram: with one bit per label, iff their mask m has m & f != f for
    the mask f of -c and c's finite labels, for every c.
    """
    labels = [label for label, _ in simple_reflections(datum)]
    bit = {label: 1 << j for j, label in enumerate(labels)}
    diagrams = [bit[-c] | sum(bit[i + 1] for i in comp) for c, comp in enumerate(datum.components)]
    subsets = [tuple(label for label in labels if m & bit[label])
               for m in range(1 << len(labels)) if all(m & f != f for f in diagrams)]
    subsets.sort(key=lambda k: (len(k), k))
    return tuple(subsets)


def is_spherical(datum, labels):
    """True iff the subgroup the labels generate is finite: their set is one
    of the spherical subsets."""
    labels = set(labels)
    known = {label for label, _ in simple_reflections(datum)}
    if not labels <= known:
        raise InternalAssertion(f"unknown generator labels: {sorted(labels - known)}")
    return tuple(sorted(labels)) in _spherical_subsets(datum)


def ux_decompose(w_min, budget=None, check_minimal=True):
    """Split a minimal-length element through a spherical subset.

    Scans the shift-class of w_min (smallest key first) and the spherical
    subsets K (smallest first) for a presentation w'' = u x with x the
    minimal-length element of W_K w'', u in W_K, x straight, x doubly
    K-minimal, and conjugation by x permuting K.  Returns the first success,
    memoised per w_min with its held count.
    """
    if check_minimal:
        reduced = reduce_to_min(w_min, budget)
        if reduced.w_min.length < w_min.length:
            raise NotMinimal(
                f"element of length {w_min.length} reduces to length {reduced.w_min.length}"
            )
    return _ux(w_min, budget)


@memoised("ux", key=lambda w_min, budget=None: w_min.key, held=lambda dec: dec.held)
def _ux(w_min, budget=None):
    """The search of ux_decompose.  A stripped x whose length is not
    <2 rho, nu_bar(w_min)> is rejected before its Newton data, u or the
    conjugates are built: an accepted x permutes K by conjugation, so
    (u x)^N = x^N for a suitable N, nu_x = nu_{w_min}, and a straight x
    has exactly that length.  The strip still runs, so held is unchanged."""
    datum = w_min.datum
    refl = dict(simple_reflections(datum))
    shift_class = approx_closure(w_min, budget)
    subsets = _spherical_subsets(datum)
    held = len(shift_class)
    # n <2 rho, nu_bar(w_min)>, compared with n l(x)
    n, _, dominant = _newton_data(w_min)
    straight_length = linalg.vec_dot(datum.two_rho, dominant)
    for w2 in shift_class:
        for k_labels in subsets:
            gens = [(l, refl[l]) for l in k_labels]
            descents = left_descents(datum, k_labels)
            # left multiplication changes length by one, so every level of
            # this walk is a single element and it strips K-descents greedily
            x, steps, strip, _ = descend(w2, descents, budget, "K-descent strip")
            held = max(held, strip)
            if n * x.length != straight_length or not is_straight(x):
                continue
            xinv = x.inv()
            u = w2 * xinv
            if u.length != len(steps) or u.length + x.length != w2.length:
                continue
            # conjugation by x must permute the chosen generators; this also
            # makes x minimal on the right of W_K, as x s = s' x for s' in K
            # and x has no left K-descent after the strip
            conjugates = [x * s * xinv for _, s in gens]
            images = [next((l for l, g in gens if g == c), None) for c in conjugates]
            if None in images or sorted(images) != sorted(k_labels):
                continue
            return UxDecomposition(u=u, x=x, K=tuple(k_labels), witness=w2, held=held)
    raise DecompositionNotFound(
        f"no spherical decomposition found for {w_min!r}; this contradicts the "
        "minimal-length structure theory"
    )


def straight_class_of(w, budget=None):
    """The straight conjugacy class whose closure contains w's class."""
    reduced = reduce_to_min(w, budget)
    dec = ux_decompose(reduced.w_min, budget, check_minimal=False)
    cls = _class_of(dec.x)
    if cls.pair_key != class_key(w):
        raise InternalAssertion("(kappa, nu_bar) of the straight part differs from that of w")
    return cls


@memoised("length_ball", key=lambda datum, max_len, budget=None: max_len, held=len)
def length_ball(datum, max_len, budget=None):
    """All elements of length <= max_len, sorted by (length, key).

    BFS closure under left moves by the generators, seeded with the
    length-zero elements; only the moves that lengthen an element and stay
    inside the ball are built, since every element of the ball is s_i1 ...
    s_ik tau, tau of length zero, and is reached from tau by such moves
    along a reduced word.
    """
    elts = closure(omega_elements(datum), left_ascents(max_len), budget, "length ball")
    return tuple(sorted(elts.values(), key=lambda w: (w.length, w.key)))


def _lines(steps, room):
    """The nonnegative integer x with sum steps[i] x[i] <= room, as lines
    (head, top): x = head + (last,), 0 <= last <= top; no steps give ((), 0)."""
    if room < 0:
        return
    if len(steps) <= 1:
        yield (), room // steps[0] if steps else 0
        return
    for x in range(room // steps[0] + 1):
        for head, top in _lines(steps[1:], room - steps[0] * x):
            yield (x,) + head, top


def enumerate_straight_classes(datum, max_len, budget=None):
    """All straight conjugacy classes with a representative of length
    <= max_len, sorted by (length, nu_bar, kappa).

    Built from Kottwitz's classification of B(G), with no length ball: one
    class per J and lam mod Z<alpha_j^vee : j in J> whose nu = pr_J(lam) has
    <alpha_k, nu> > 0 for k not in J and <2 rho, nu> <= max_len.  lam is
    walked by its simple pairings p, with p_J one per residue mod A_JJ Z^J
    and p_K bounded through the weights <2 rho, omega_k^vee>, and the class
    is read off the length-zero element of M_J's extended affine Weyl group
    in the coset of t^lam (_class_of), straight or not, with no search.

    lam is integral or not with p modulo period, the denominator of A^-1,
    so a line of p_K's classes is counted from its first period points, and
    a census over budget classes raises before building them.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    n = datum.n_simple
    period = cartan_inverse(datum)[1]
    held, classes = 0, []
    for mask in range(1 << n):
        J, K, weights, den, _, cosets = _levi(datum, mask)
        steps = [den * c for c in weights]
        zeros = (0,) * len(J)
        for u, p_j, shift in cosets:
            # the least p_k with <alpha_k, nu> > 0, and what is left of
            # den * max_len once every <alpha_k, nu> takes it
            lows = [s // den + 1 for s in shift]
            room = den * max_len - sum(c * (den * lo - s) for c, lo, s in zip(weights, lows, shift))
            for head, top in _lines(steps, room):
                def p_k(last):
                    return [lo + x for lo, x in zip(lows, (*head, last))]

                firsts = []
                for r in range(min(period, top + 1)):
                    lam = coweight(datum, _spread(J, p_j, K, p_k(r)))
                    if lam is not None:
                        firsts.append((r, lam))
                held += sum((top - r) // period + 1 for r, _ in firsts)
                if held > budget:
                    raise ExplorationBudgetExceeded(
                        f"straight-class census exceeded its budget of {budget} classes",
                        what="straight-class census", held=held, budget=budget)
                for r, lam in firsts:
                    for last in range(r, top + 1, period):
                        if last > r:
                            lam = coweight(datum, _spread(J, p_j, K, p_k(last)))
                        cls = _class_of(AffineWeylElt._from_ints(datum, lam, u))
                        nu = [Fraction(den * x - s, den) for x, s in zip(p_k(last), shift)]
                        if linalg.mat_vec(datum.simple_roots, cls.nu_bar) != _spread(J, zeros, K, nu):
                            raise InternalAssertion(
                                "the Levi representative has the wrong Newton point")
                        classes.append(cls)
    return tuple(sorted(classes, key=lambda c: (c.length, c.nu_bar, c.kappa)))


def _spread(J, on_j, K, on_k):
    """The vector indexed by the simple roots with the given entries on J and K."""
    out = [0] * (len(J) + len(K))
    for i, x in zip(J + K, (*on_j, *on_k)):
        out[i] = x
    return tuple(out)


def resolve_class(datum, kappa, nu_bar):
    """StraightClass with the given invariants, or UnknownClass.

    Only the Levi M_J of nu_bar is searched, J being where <alpha_j, nu_bar>
    vanishes.  lam is tried once per residue p_J of J: its pairings on K are
    those of nu_bar plus shift / den, and it must be integral with
    kappa(lam) = kappa.  kappa's coordinates must be integers (NotIntegral)
    and nu_bar's ints or Fractions (NotRational), one per rank each
    (DatumMismatch).
    """
    kappa = datum._coordinates(map(linalg.as_int, kappa), "kappa")
    nu_bar = datum.dominant_rep(tuple(map(linalg.as_rational, nu_bar)))
    length = linalg.vec_dot(datum.two_rho, nu_bar)
    if Fraction(length).denominator != 1 or length < 0:
        raise UnknownClass(f"<2 rho, nu> = {length} is not a nonnegative integer")
    pairings = [Fraction(x) for x in linalg.mat_vec(datum.simple_roots, nu_bar)]
    J, K, _, den, _, cosets = _levi(datum, sum(1 << i for i, x in enumerate(pairings) if x == 0))
    for u, p_j, shift in cosets:
        p_k = [pairings[k] + Fraction(s, den) for k, s in zip(K, shift)]
        if any(x.denominator != 1 for x in p_k):
            continue
        lam = coweight(datum, _spread(J, p_j, K, [int(x) for x in p_k]))
        if lam is None or datum.kappa_class(lam) != kappa:
            continue
        cls = _class_of(AffineWeylElt._from_ints(datum, lam, u))
        if (cls.kappa, cls.nu_bar) != (kappa, nu_bar):
            raise InternalAssertion("the Levi representative lies in another class")
        return cls
    raise UnknownClass(
        f"no straight class with kappa={list(kappa)}, nu={[str(x) for x in nu_bar]}"
    )


def p_alcove_test(w, nu):
    """Alcove sign test against the parabolic determined by nu.

    True iff (i) the finite part of w fixes nu, that is, lies in the
    reflection subgroup generated by the roots vanishing on nu (the
    stabilizer of nu in W0 is generated by the reflections fixing it:
    Humphreys, Reflection Groups and Coxeter Groups, 1.12), and (ii) for every root beta
    positive on nu and every level k, positivity of (beta, k) o w^-1
    implies positivity of (beta, k).

    On the base alcove (beta, k) is positive iff k >= [beta < 0].  For
    w^-1 = t^lam' u', (beta, k) o w^-1 = (beta o M_u', k + <beta, lam'>), so
    some level breaks (ii) iff [beta o M_u' < 0] - <beta, lam'> < [beta < 0].
    nu's coordinates must be ints or Fractions (NotRational), one per rank
    (DatumMismatch).
    """
    datum = w.datum
    nu = datum._coordinates(map(linalg.as_rational, nu), "nu")
    den = lcm(*(x.denominator for x in nu))  # a positive scale keeps signs and stabilizer
    nu = tuple([x.numerator * (den // x.denominator) for x in nu])
    if w.fw.act(nu) != nu:
        return False
    winv, perm, half = w.inv(), w.fw.perm, len(datum.pos_roots)
    for k, alpha in enumerate(datum.pos_roots):
        pairing = linalg.vec_dot(alpha, nu)
        if pairing == 0:
            continue
        # beta o M_u' = u(beta), of index perm[j] for beta the root of index j
        beta, j = (alpha, k) if pairing > 0 else (linalg.vec_neg(alpha), k + half)
        if (perm[j] >= half) - linalg.vec_dot(beta, winv.lam) < (pairing < 0):
            return False
    return True
