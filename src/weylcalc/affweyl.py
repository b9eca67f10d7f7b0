"""The extended affine Weyl group X x| W0: elements, length, Newton points.

An element t^lam * u acts on V = X (x) Q by v -> u(v) + lam.  The base
alcove is the fundamental one in the dominant chamber, {v : 0 < <alpha, v> <
1 for all positive roots alpha}, so an affine root (beta, k) is positive on
it iff k >= [beta < 0].  AffineRoot reads the same sign at an explicit
interior rational point (datum.alcove_point), and the orientation is
confirmed by the self-check that every simple reflection, including the
affine ones t^{theta^vee} s_theta, has length one.

Newton data are kept in integers: n nu_w = sum_{i<n} u^i(lam) for n the
order of u is integral, and Fractions are built only when nu is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from . import linalg
from .errors import DatumMismatch, DecompositionFailure, InfinitePi1, InternalAssertion
from .finiteweyl import (
    FiniteWeylElt,
    enumerate_w0,
    fw_from_word,
    fw_identity,
    fw_reflection,
    fw_simple,
)
from .memo import memoised
from .search import descend, left_moves


class AffineWeylElt:
    """t^lam * u with lam in X and u in W0."""

    __slots__ = ("datum", "lam", "fw", "_length", "_newton")

    def __init__(self, datum, lam, fw):
        self.datum = datum
        self.lam = tuple(int(x) for x in lam)
        self.fw = fw
        self._length = None
        self._newton = None

    @classmethod
    def _from_ints(cls, datum, lam, fw):
        """Internal constructor for a lam that is already a tuple of ints."""
        w = cls.__new__(cls)
        w.datum = datum
        w.lam = lam
        w.fw = fw
        w._length = None
        w._newton = None
        return w

    @property
    def key(self):
        return (self.lam, self.fw.matrix)

    @property
    def is_identity(self):
        return all(x == 0 for x in self.lam) and self.fw.is_identity

    @property
    def length(self):
        """Iwahori-Matsumoto length.

        l(t^lam u) = sum over positive roots alpha of |<alpha, lam>| when
        u^-1(alpha) is positive and |<alpha, lam> - 1| when it is negative.
        """
        if self._length is None:
            # mask entries are bools, so subtracting one shifts <alpha, lam>
            # by 1 exactly where u^-1(alpha) is negative
            pairings = linalg.mat_vec(self.datum.pos_roots, self.lam)
            self._length = sum(map(abs, map(sub, pairings, self.fw.neg_mask)))
        return self._length

    def act(self, v):
        """Affine action on V: v -> u(v) + lam."""
        return linalg.vec_add(self.fw.act(v), self.lam)

    def __mul__(self, other):
        if not isinstance(other, AffineWeylElt):
            return NotImplemented
        if not self.datum.same_datum(other.datum):
            raise DatumMismatch("cannot compose elements of different root data")
        lam = linalg.vec_add(self.lam, linalg.mat_vec(self.fw.matrix, other.lam))
        return AffineWeylElt._from_ints(self.datum, lam, self.fw * other.fw)

    def inv(self):
        uinv = self.fw.inverse()
        lam = linalg.vec_neg(linalg.mat_vec(uinv.matrix, self.lam))
        return AffineWeylElt._from_ints(self.datum, lam, uinv)

    def __eq__(self, other):
        if not isinstance(other, AffineWeylElt):
            return NotImplemented
        return self.key == other.key and self.datum.same_datum(other.datum)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"t^{list(self.lam)}*{self.fw!r}"

    def to_json(self):
        return {"lambda": list(self.lam), "word": [i + 1 for i in self.fw.word]}


def aw_identity(datum):
    return AffineWeylElt(datum, (0,) * datum.rank, fw_identity(datum))


def translation(datum, lam):
    return AffineWeylElt(datum, lam, fw_identity(datum))


def from_finite(u):
    return AffineWeylElt(u.datum, (0,) * u.datum.rank, u)


def from_parts(datum, lam, word):
    """Element with the given translation part and finite word (0-based)."""
    return AffineWeylElt(datum, lam, fw_from_word(datum, word))


def aw_mul(a, b):
    return a * b


def aw_inv(a):
    return a.inv()


@memoised("simple_reflections")
def simple_reflections(datum):
    """The labeled generating set of the affine Weyl group.

    Finite reflections s_i carry label i+1; the affine reflection of
    component c, t^{theta_c^vee} s_{theta_c}, carries label -c (so the usual
    s_0 for an irreducible system).  Every generator is checked to have
    length one, which pins the alcove orientation.
    """
    gens = []
    for c, (theta, thetavee) in enumerate(datum.highest_roots):
        s = AffineWeylElt(datum, thetavee, fw_reflection(datum, theta, thetavee))
        gens.append((-c, s))
    for i in range(datum.n_simple):
        gens.append((i + 1, from_finite(fw_simple(datum, i))))
    gens.sort(key=lambda pair: pair[0])
    for label, s in gens:
        if s.length != 1:
            raise InternalAssertion(
                f"orientation self-check failed: generator {label} has length {s.length}"
            )
    return tuple(gens)


def _newton_data(w):
    """(n, n nu_w, n nu_bar) in integers, n the order of the finite part:
    n nu_w = sum_{i<n} u^i(lam) is integral, and W0 acts linearly, so its
    dominant representative is n times that of nu_w."""
    if w._newton is None:
        n = w.fw.order()
        total = v = w.lam
        for _ in range(n - 1):
            v = w.fw.act(v)
            total = linalg.vec_add(total, v)
        w._newton = (n, total, w.datum.dominant_rep(total))
    return w._newton


def newton_point(w):
    """(nu_w, dominant representative) as Fractions, with nu_w the averaged
    translation part (1/n) sum_i u^i(lam) for n the order of the finite part."""
    n, total, dominant = _newton_data(w)
    return tuple(Fraction(x, n) for x in total), tuple(Fraction(x, n) for x in dominant)


def is_straight(w):
    """w is straight iff l(w) = <2 rho, nu_bar>, tested as n l(w) = <2 rho, n nu_bar>."""
    n, _, dominant = _newton_data(w)
    return n * w.length == linalg.vec_dot(w.datum.two_rho, dominant)


def defect_of(w):
    """Rank drop of the fixed space of the nu-twisted affine action.

    The fixed points solve (M_u - I) v = nu_w - lam, so the defect is the
    rank of M_u - I.  The system is always consistent, which is checked in
    integers on n times it: the right-hand side n nu_w - n lam adds no rank.
    """
    n, total, _ = _newton_data(w)
    m = w.fw.matrix
    a = [linalg.vec_sub(row, e) for row, e in zip(m, linalg.identity_matrix(len(m)))]
    rank = linalg.rank_rational(a)
    rhs = linalg.vec_sub(total, linalg.vec_scale(n, w.lam))
    if linalg.rank_rational([row + (b,) for row, b in zip(a, rhs)]) != rank:
        raise InternalAssertion("twisted fixed-point system is inconsistent")
    return rank


def kappa_w(w):
    """Image of w in X / Z<coroots>; constant on cosets of the affine subgroup."""
    return w.datum.kappa_class(w.lam)


def class_key(w):
    """(kappa(w), nu_bar_w): the StraightClass.pair_key of the class [w] in B(G)."""
    return kappa_w(w), newton_point(w)[1]


@dataclass(frozen=True)
class EtaDecomposition:
    """w = x * t^mu * y with mu dominant and t^mu y minimal in W0 t^mu y."""

    x: FiniteWeylElt
    mu: tuple
    y: FiniteWeylElt
    eta: FiniteWeylElt


def eta_decomposition(w):
    """Unique decomposition w = x t^mu y with mu dominant and t^mu y of
    minimal length in its W0-coset; eta(w) = y x."""
    datum = w.datum
    gens = [(label, s) for label, s in simple_reflections(datum) if label > 0]
    m, _ = descend(w, left_moves(gens), None, "coset-minimal strip")
    mu, y = m.lam, m.fw
    if not datum.is_dominant(mu):
        raise DecompositionFailure(f"coset-minimal translation part {mu} is not dominant")
    x_aff = w * m.inv()
    if any(c != 0 for c in x_aff.lam):
        raise DecompositionFailure("finite factor has a nonzero translation part")
    x = x_aff.fw
    if w.length != x.length + m.length:
        raise DecompositionFailure("coset decomposition is not length-additive")
    return EtaDecomposition(x=x, mu=mu, y=y, eta=y * x)


@memoised("omega")
def omega_elements(datum):
    """One length-zero element per class of X / Z<coroots>.

    For each finite part u there is at most one translation part lam making
    t^lam u length zero; it is found by an exact linear solve against the
    simple roots and kept when integral.  Refuses infinite quotients.
    """
    order = datum.pi1_order()
    if order is None:
        raise InfinitePi1(
            "X / Z<coroots> is infinite (central directions present); "
            "length-zero elements cannot be enumerated"
        )
    found = []
    for u in enumerate_w0(datum):
        # l(t^lam u) = 0 forces <alpha_i, lam> = 0 or 1 according to the
        # sign pattern of u^-1 on the simple roots
        rhs = tuple(
            1 if u.inv_act_root(datum.simple_roots[i]) in datum._neg_set else 0
            for i in range(datum.n_simple)
        )
        sol = linalg.solve_rational(datum.simple_roots, rhs)
        if sol is None or any(x.denominator != 1 for x in sol):
            continue
        cand = AffineWeylElt(datum, tuple(int(x) for x in sol), u)
        if cand.length == 0:
            found.append(cand)
    found.sort(key=lambda w: w.key)
    if len(found) != order:
        raise InternalAssertion(
            f"found {len(found)} length-zero elements but the lattice quotient has order {order}"
        )
    kappas = {kappa_w(w) for w in found}
    if len(kappas) != order:
        raise InternalAssertion("length-zero elements do not biject with the lattice quotient")
    return tuple(found)


# -- affine roots ---------------------------------------------------------


@dataclass(frozen=True)
class AffineRoot:
    """The affine function v -> <alpha, v> + k."""

    alpha: tuple
    k: int

    def value_at(self, v):
        return linalg.vec_dot(self.alpha, v) + self.k

    def is_positive(self, datum):
        """Positive iff positive on the interior of the base alcove."""
        val = self.value_at(datum.alcove_point)
        if val == 0:
            raise InternalAssertion("affine root vanishes at the alcove sample point")
        return val > 0


def transport_affine_root(g, ar):
    """The affine function ar o g, for g = t^lam u.

    (ar o g)(v) = <alpha, u(v) + lam> + k, so the root part becomes
    alpha o M_u and the constant picks up <alpha, lam>.  The alcove sign
    test applies this with g = w^-1.
    """
    beta = linalg.row_mat(ar.alpha, g.fw.matrix)
    return AffineRoot(beta, ar.k + linalg.vec_dot(ar.alpha, g.lam))
