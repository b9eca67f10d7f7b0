"""The extended affine Weyl group X x| W0: elements, length, Newton points.

An element t^lam * u acts on V = X (x) Q by v -> u(v) + lam.  The base
alcove is the fundamental one in the dominant chamber, {v : 0 < <alpha, v> <
1 for all positive roots alpha}, so an affine root (beta, k) is positive on
it iff k >= [beta < 0].  The orientation is confirmed by the self-check that
every simple reflection, including the affine ones t^{theta^vee} s_theta,
has length one.

Generator moves never multiply.  A generator s = t^mu sigma has the simple
affine root a_s = (alpha, k): (alpha_i, 0) for a finite s_i, (-theta, 1)
for the affine node of a component.  l(s w) > l(w) iff a_s o w is
positive, l(w s) > l(w) iff a_s o w^-1 is (Humphreys, Reflection Groups
and Coxeter Groups, 5.4); for w = t^lam u the first is (u^-1 alpha,
<alpha, lam> + k).  Elements move by s w and by the shift s w s, the two
moves of the reduction (He, Ann. of Math. 179, 2014), never by w s alone.
The move row of u (move_row) reads the roots of both off u's root
permutation, so a left or shift move costs O(rank) and sets the moved
element's length.  A shift is told by two pairings with lam: c = <alpha,
lam> + k for s w, and c2 = k2 + <beta2, lam> for the right move of s w,
with beta2 and k2 kept in the row.  The finite parts sigma u and sigma u
sigma are built with the row, and low_shifts leaves out the shift back to
the element a search came from.  Elements built by a product, and the
oracle's Cayley ball, use the Iwahori-Matsumoto formula instead.  An
element's key (lam, matrix) is built once, with the element.

eta_decomposition runs no search: it walks (lam, u) in integers, reads
shorter coset mates from the datum's eta table and stores its own result
there.

Newton data are kept in integers: n nu_w = sum_{i<n} u^i(lam) for n the
order of u is integral, and Fractions are built only when newton_point
returns nu; class_key names a class by nu_bar as reduced integer pairs.
The length-zero elements of each standard Levi's extended affine Weyl
group are read off longest elements of W_J and the Cartan matrix in
integers, one J at a time (_levi): J = S gives omega_elements, and every J
the straight census.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul, sub

from . import linalg
from .errors import DatumMismatch, DecompositionFailure, InfinitePi1, InternalAssertion
from .finiteweyl import (
    fw_from_word,
    fw_identity,
    fw_reflection,
    fw_simple,
    longest_element,
    product,
)
from .memo import memo, memoised
from .record import Record
from .search import closure, right_moves


class AffineWeylElt:
    """t^lam * u with lam in X and u in W0.  The public constructor refuses
    a lam whose length is not the rank (DatumMismatch) or with a non-integer
    coordinate (NotIntegral); _from_ints does not check."""

    __slots__ = ("datum", "lam", "fw", "key", "_length", "_newton")

    def __init__(self, datum, lam, fw):
        self.datum = datum
        self.lam = tuple(map(linalg.as_int, lam))
        if len(self.lam) != datum.rank:
            raise DatumMismatch(f"lambda has {len(self.lam)} coordinates, not {datum.rank}")
        self.fw = fw
        self.key = (self.lam, fw.matrix)
        self._length = None
        self._newton = None

    @classmethod
    def _from_ints(cls, datum, lam, fw, length=None):
        """Internal constructor for a lam that is already a tuple of ints,
        with the length when a move already knows it."""
        w = cls.__new__(cls)
        w.datum = datum
        w.lam = lam
        w.fw = fw
        w.key = (lam, fw.matrix)
        w._length = length
        w._newton = None
        return w

    @property
    def is_identity(self):
        return all(x == 0 for x in self.lam) and self.fw.is_identity

    @property
    def length(self):
        """Iwahori-Matsumoto length.

        l(t^lam u) = sum over positive roots alpha of |<alpha, lam>| when
        u^-1(alpha) is positive and |<alpha, lam> - 1| when it is negative.
        An element built by a generator move already carries its length.
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
    return AffineWeylElt._from_ints(u.datum, (0,) * u.datum.rank, u)


def from_parts(datum, lam, word):
    """Element with the given translation part and finite word of 0-based
    simple indices, each checked by fw_from_word."""
    return AffineWeylElt(datum, lam, fw_from_word(datum, word))


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


def move_row(u):
    """The move row of the finite part u: one entry per generator s = t^mu
    sigma, in the label order of simple_reflections, built on first use and
    kept on u itself.  An entry is the tuple

        (label, alpha, k, coroot, left_positive, left,
         beta2, k2, shift_positive, shift_lam, shifted)

    of which a left move s w reads the first six.  a_s = (alpha, k) is the
    simple affine root of s and coroot the coroot of alpha, so s(v) = v -
    a_s(v) coroot.  left = sigma u is the finite part of s t^lam u, and
    left_positive the sign of u^-1 alpha.  s w s is the right move of s w by
    s: shift_positive is the sign of sigma u alpha, shift_lam = sigma u(mu)
    is what that move adds to the translation part (None when mu = 0), and
    shifted = sigma u sigma.  The right move of s w reads the constant c2 =
    k2 + <beta2, lam> off lam itself, with beta2 = -u(alpha) and k2 = k (1 -
    <u alpha, alpha^vee>): sigma = s_alpha gives sigma u alpha = u alpha -
    <u alpha, alpha^vee> alpha, so p = <sigma u alpha, alpha^vee> = -<u
    alpha, alpha^vee>, and beta2 = p alpha - sigma u alpha, k2 = k (1 + p).
    Every root is read off root indices: -beta has the index of beta shifted
    by |Phi^+|.  One pass over the generators, with u's permutation, |Phi^+|
    and the datum's roots and coroots read once for the row."""
    row = u._moves
    if row is None:
        datum, perm = u.datum, u.perm
        half, roots, coroots = len(perm) // 2, datum.roots, datum.coroots
        row = []
        for label, s in simple_reflections(datum):
            sigma = s.fw
            k = int(label <= 0)
            a = sigma.refl + half * k  # index of alpha: alpha_i, or -theta for an affine node
            ua = perm[a]  # the index of u alpha
            sua = sigma.perm[ua]  # the index of sigma u alpha
            coroot = coroots[a]
            left = product(sigma, u)
            row.append((
                label, roots[a], k, coroot, perm.index(a) < half, left,
                roots[(ua + half) % (2 * half)],
                k - sum(map(mul, roots[ua], coroot)) if k else 0,
                sua < half,
                # sigma u(theta^vee) = -(sigma u alpha)^vee
                coroots[sua - half] if k else None,
                product(left, sigma)))
        row = u._moves = tuple(row)
    return row


def _position(datum, label):
    """Index of the generator labelled label in simple_reflections: labels
    run -(components - 1), ..., 0, 1, ..., n in order."""
    return label + len(datum.highest_roots) - 1


# The sign of an affine function (beta, c) on the base alcove is that of c,
# and that of beta when c = 0; each move reads one such sign.


def _left_up(m, lam):
    """(c, l(s w) > l(w)) for w = t^lam u and m = move_row(u)[s], with
    c = <alpha, lam> + k the constant of a_s o w; m[1], m[2] and m[4] are
    alpha, k and left_positive."""
    c = linalg.vec_dot(m[1], lam) + m[2]
    return c, c > 0 or (c == 0 and m[4])


def _left_lam(m, lam, c):
    """Translation part of s t^lam u: s(lam) = lam - c coroot, m[3]."""
    return lam if c == 0 else tuple([x - c * y for x, y in zip(lam, m[3])])


def left_move(w, label):
    """s w for the generator s labelled label, of length l(w) +- 1."""
    m = move_row(w.fw)[_position(w.datum, label)]
    c, up = _left_up(m, w.lam)
    return AffineWeylElt._from_ints(w.datum, _left_lam(m, w.lam, c), m[5],
                                    w.length + (1 if up else -1))


def low_shifts(w, back=None):
    """(label, s w s) for every generator s but the one labelled back with
    l(s w s) <= l(w), in label order: s (s w s) s = w, so a search leaves
    out the shift back to the element that reached w.  s w = t^lam' (sigma
    u) with lam' = lam - c coroot, c = <alpha, lam> + k, so the right move
    reads k - <sigma u alpha, lam'> = k2 + <beta2, lam>, and a shift that
    raises the length is never built."""
    datum, lw, lam = w.datum, w.length, w.lam
    for (label, alpha, k, coroot, left_positive, _,
         beta2, k2, shift_positive, shift_lam, shifted) in move_row(w.fw):
        if label == back:
            continue
        c = sum(map(mul, alpha, lam)) + k
        c2 = sum(map(mul, beta2, lam)) + k2
        step = (1 if c > 0 or (c == 0 and left_positive) else -1) + (
            1 if c2 > 0 or (c2 == 0 and shift_positive) else -1)
        if step <= 0:
            if k:
                lam2 = tuple([x - c * y + z for x, y, z in zip(lam, coroot, shift_lam)])
            else:
                lam2 = lam if c == 0 else tuple([x - c * y for x, y in zip(lam, coroot)])
            yield label, AffineWeylElt._from_ints(datum, lam2, shifted, lw + step)


def left_descents(datum, labels):
    """Search moves w -> s w over the labelled generators, in the given
    order, yielding only those that shorten w; the move back to a longer
    element is never one of them, so back is not read."""
    positions = [_position(datum, label) for label in labels]

    def moves(w, back):
        row, lam = move_row(w.fw), w.lam
        for j in positions:
            m = row[j]
            c, up = _left_up(m, lam)
            if not up:
                yield m[0], AffineWeylElt._from_ints(datum, _left_lam(m, lam, c), m[5],
                                                     w.length - 1)

    return moves


def left_ascents(max_len):
    """Search moves w -> s w, in label order, yielding only those that
    lengthen w and stay within length max_len; the move back to a shorter
    element is never one of them, so back is not read."""

    def moves(w, back):
        lw, lam = w.length, w.lam
        if lw >= max_len:
            return
        for m in move_row(w.fw):
            c, up = _left_up(m, lam)
            if up:
                yield m[0], AffineWeylElt._from_ints(w.datum, _left_lam(m, lam, c), m[5], lw + 1)

    return moves


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
        w._newton = (n, total, w.datum._dominant(total))
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
    rhs = tuple(t - n * x for t, x in zip(total, w.lam))
    if linalg.rank_rational([row + (b,) for row, b in zip(a, rhs)]) != rank:
        raise InternalAssertion("twisted fixed-point system is inconsistent")
    return rank


def kappa_w(w):
    """Image of w in X / Z<coroots>; constant on cosets of the affine subgroup."""
    return w.datum.kappa_class(w.lam)


def class_key(w):
    """(kappa(w), nu_bar_w as reduced (numerator, denominator) pairs): the
    StraightClass.pair_key of the class [w] in B(G), in integers."""
    n, _, dominant = _newton_data(w)
    gcds = [gcd(x, n) for x in dominant]
    return kappa_w(w), tuple((x // g, n // g) for x, g in zip(dominant, gcds))


class EtaDecomposition(Record):
    """w = x * t^mu * y with mu dominant and t^mu y minimal in W0 t^mu y."""

    __slots__ = ("x", "mu", "y", "eta")


def _finite_descent(datum, lam, u):
    """(i, <alpha_i, lam>) for the smallest finite left descent s_i of t^lam u,
    or None: <alpha_i, lam> < 0, or = 0 with u^-1 alpha_i negative."""
    neg = u.neg_mask
    for i, (alpha, k) in enumerate(zip(datum.simple_roots, datum.simple_index)):
        c = sum(map(mul, alpha, lam))
        if c < 0 or (c == 0 and neg[k]):
            return i, c
    return None


@memoised("eta", key=lambda w: w.key)
def eta_decomposition(w):
    """Unique decomposition w = x t^mu y with mu dominant and t^mu y of
    minimal length in its W0-coset; eta(w) = y x, memoised per element.

    The walk strips the smallest finite left descent s_i of t^lam u until
    none is left, or until the eta table holds the stripped element, whose
    mu and y are those of w.  Checked exactly: x = u y^-1 has x(mu) = lam,
    mu is dominant, t^mu y has no finite left descent, and l(w) = l(x) +
    l(t^mu y).
    """
    datum, lw = w.datum, w.length
    known = memo(datum, "eta").table
    lam, u, steps, found = w.lam, w.fw, 0, None
    while found is None:
        descent = _finite_descent(datum, lam, u)
        if descent is None:
            break
        i, c = descent
        if c:
            lam = tuple([x - c * y for x, y in zip(lam, datum.simple_coroots[i])])
        u = fw_simple(datum, i) * u
        steps += 1
        found = known.get((lam, u.matrix))
    # l(t^mu y) as the walk knows it
    if found is None:
        mu, y, short = lam, u, lw - steps
    else:
        mu, y, short = found.mu, found.y, lw - steps - found.x.length
    pairings = linalg.mat_vec(datum.simple_roots, mu)
    if any(c < 0 for c in pairings):
        raise DecompositionFailure(f"coset-minimal translation part {mu} is not dominant")
    if found is not None and any(c == 0 and y.neg_mask[k]
                                 for c, k in zip(pairings, datum.simple_index)):
        raise DecompositionFailure(f"t^{list(mu)} y has a finite left descent")
    x = w.fw * y.inverse()
    if x.act(mu) != w.lam:
        raise DecompositionFailure("w is not x t^mu y")
    if lw != x.length + short:
        raise DecompositionFailure("coset decomposition is not length-additive")
    return EtaDecomposition(x, mu, y, y * x)


def require_finite_pi1(datum):
    """The order of X / Z<coroots>; refuses an infinite quotient."""
    order = datum.pi1_order()
    if order is None:
        raise InfinitePi1(
            "X / Z<coroots> is infinite (central directions present); "
            "length-zero elements cannot be enumerated"
        )
    return order


@memoised("levis", key=lambda datum, mask: mask)
def _levi(datum, mask):
    """What the census and omega_elements need of the standard Levi M_J, J
    the set bits of mask, in integers, built on first use of each J.

    (J, K, weights, den, cosets) with K = S \\ J, weights the
    <2 rho, omega_k^vee> for k in K (the coefficients of 2 rho in the simple
    roots), den the least denominator of A_JJ^-1, A the Cartan matrix, and
    cosets one (u, p_J, shift) per finite part u of a length-zero element
    t^lam' u of M_J's extended affine Weyl group: p_J = (<alpha_j, lam'>)_j
    = ([u^-1 alpha_j < 0])_j and shift = den A_KJ A_JJ^-1 p_J.  Then nu =
    pr_J(lam') pairs to (den p_K - shift) / den with (alpha_k)_k.  The p_J
    run over Z^J / A_JJ Z^J, one per residue, which is checked against the
    Smith form of A_JJ.  The finite parts are the group Omega_J generated
    by the w_0^{J - j} w_0^J for the j in J minuscule in their component,
    those whose alpha_j-coefficient is at most 1 on Phi_J^+ (Iwahori and
    Matsumoto, Publ. IHES 25, 1965; Bourbaki, Lie Groups VI.2), each w_0
    by longest_element's walk, so W_J is never enumerated.
    """
    require_finite_pi1(datum)
    n, cartan, coeffs = datum.n_simple, datum.cartan, datum.pos_coeffs
    J = tuple(i for i in range(n) if mask >> i & 1)
    K = tuple(i for i in range(n) if not mask >> i & 1)
    weights = tuple(sum(coeff[k] for coeff in coeffs) for k in K)
    a_jj = tuple(tuple(cartan[i][j] for j in J) for i in J)
    a_kj = tuple(tuple(cartan[k][j] for j in J) for k in K)
    inv, den, index = linalg.scaled_inverse(a_jj)
    # (position, coefficients on J) of each root of Phi_J^+
    phi_j = [(k, [coeff[j] for j in J]) for k, coeff in enumerate(coeffs)
             if all(mask >> j & 1 for j, c in enumerate(coeff) if c)]
    top = longest_element(datum, J)
    gens = [(j, longest_element(datum, [i for i in J if i != j]) * top)
            for j in J if all(coeffs[k][j] <= 1 for k, _ in phi_j)]
    omega_j = closure([fw_identity(datum)], right_moves(gens), index, "Levi length-zero parts")
    cosets = []
    for u in sorted(omega_j.values(), key=lambda u: (u.length, u.key)):
        neg = u.neg_mask
        p_j = tuple(int(neg[datum.simple_index[j]]) for j in J)
        # l_J(t^lam' u) = 0 iff <beta, lam'> = [u^-1 beta < 0] on Phi_J^+
        if all(linalg.vec_dot(c, p_j) == neg[k] for k, c in phi_j):
            cosets.append((u, p_j, linalg.mat_vec(a_kj, linalg.mat_vec(inv, p_j))))
    if len(cosets) != index:
        raise InternalAssertion(f"length-zero elements of the Levi {J} miss a residue")
    return J, K, weights, den, tuple(cosets)


@memoised("cartan_inverse")
def cartan_inverse(datum):
    """(inv, den) with A^-1 = inv / den, den least, A the Cartan matrix: the
    A_JJ^-1 of the J = S Levi, read without building W0.  Refuses an
    infinite X / Z<coroots> (require_finite_pi1), where the simple pairings
    do not determine a coweight."""
    require_finite_pi1(datum)
    inv, den, _ = linalg.scaled_inverse(datum.cartan)
    return inv, den


def coweight(datum, p):
    """The integral coweight with simple pairings p, or None.  It is C A^-1 p
    for C the coroot matrix.  The pairings determine it only when X /
    Z<coroots> is finite, else InfinitePi1."""
    inv, den = cartan_inverse(datum)
    num = linalg.mat_vec(datum.coroot_matrix, linalg.mat_vec(inv, p))
    if any(x % den for x in num):
        return None
    return tuple(x // den for x in num)


@memoised("omega")
def omega_elements(datum):
    """One length-zero element per class of X / Z<coroots>, sorted by key.

    These are the length-zero elements of the J = S Levi, which is the
    whole group: t^lam u for each coset (u, p) of _levi whose coweight lam
    with simple pairings p is integral, u read off longest elements with no
    W0 built.  Refuses infinite quotients.
    """
    order = require_finite_pi1(datum)
    *_, cosets = _levi(datum, (1 << datum.n_simple) - 1)
    found = []
    for u, p, _ in cosets:
        lam = coweight(datum, p)
        if lam is not None:
            found.append(AffineWeylElt._from_ints(datum, lam, u))
    found.sort(key=lambda w: w.key)
    if len(found) != order:
        raise InternalAssertion(
            f"found {len(found)} length-zero elements but the lattice quotient has order {order}"
        )
    kappas = {kappa_w(w) for w in found}
    if len(kappas) != order:
        raise InternalAssertion("length-zero elements do not biject with the lattice quotient")
    return tuple(found)
