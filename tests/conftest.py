import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import pytest

from weylcalc import aw_identity, build_root_datum, finite, simple_reflections
from weylcalc.affweyl import EtaDecomposition, left_descents, low_shifts
from weylcalc.search import closure, descend, explore_level, right_moves


@pytest.fixture(scope="session")
def sl2():
    return build_root_datum("SL2")


@pytest.fixture(scope="session")
def pgl2():
    return build_root_datum("PGL2")


@pytest.fixture(scope="session")
def sl3():
    return build_root_datum("SL3")


@pytest.fixture(scope="session")
def pgl3():
    return build_root_datum("PGL3")


@pytest.fixture(scope="session")
def sp4():
    return build_root_datum("Sp4")


@pytest.fixture(scope="session")
def a2_twisted():
    return build_root_datum("A2-twisted")


@pytest.fixture(scope="session")
def a3_twisted():
    return build_root_datum("A3-twisted")


# Simply connected groups beyond the presets, given by their Cartan
# matrices A[i][j] = <alpha_i, alpha_j^vee> (Bourbaki numbering).  A2xA1 is
# reducible, with two affine generators (labels 0 and -1).
CARTAN_MATRICES = {
    "G2": [[2, -1], [-3, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "SL5": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "A2xA1": [[2, -1, 0], [-1, 2, 0], [0, 0, 2]],
}

# Rank 4 beyond type A, in the same convention.  Kept apart from
# CARTAN_MATRICES, whose parametrized tests check every move row against
# matrix products: on F4 that alone takes 17 s.
RANK4_CARTAN_MATRICES = {
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
    "C4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
}


def cartan_config(name):
    """The config of CARTAN_MATRICES[name] or RANK4_CARTAN_MATRICES[name]:
    the Cartan matrix as the simple roots and the identity as the coroots,
    so X is the coroot lattice."""
    cartan = CARTAN_MATRICES.get(name) or RANK4_CARTAN_MATRICES[name]
    n = len(cartan)
    return {
        "name": name,
        "rank": n,
        "roots": cartan,
        "coroots": [[int(i == j) for j in range(n)] for i in range(n)],
    }


# -- references ---------------------------------------------------------------
# Written on the public API, for tests that check the library against them
# or that need what the library no longer keeps.


def solve_rational(a, b):
    """The unique solution of a x = b over Q, by Gauss-Jordan elimination on
    Fractions, or None if the system is inconsistent.  The columns of a
    must be independent."""
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        pivot = next(i for i in range(r, len(rows)) if rows[i][c] != 0)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        r += 1
    if any(row[-1] != 0 for row in rows[ncols:]):
        return None
    return tuple(row[-1] for row in rows[:ncols])


def in_coroot_lattice(datum, lam):
    """Membership of lam in the integer span of the simple coroots."""
    coeffs = solve_rational(datum.coroot_matrix, lam)
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def kappa_add(datum, a, b):
    """a + b in X / Z<coroots>, in the coordinates of kappa_class: the first
    n_simple are reduced modulo the invariant factors (the leading ones 1,
    then the nonzero pi1_invariants), the rest are free."""
    factors = [x for x in datum.pi1_invariants() if x]
    moduli = [1] * (datum.n_simple - len(factors)) + factors
    return tuple(
        (x + y) % moduli[k] if k < len(moduli) else x + y for k, (x, y) in enumerate(zip(a, b))
    )


def alcove_point(datum, step=0):
    """An interior point of the base alcove: rho^vee / m with m > <beta,
    rho^vee> for every positive root beta; each step gives another one."""
    m = 1 + step + max(sum(map(mul, beta, datum.two_rho_check)) for beta in datum.pos_roots) // 2
    return tuple(Fraction(x, 2 * m) for x in datum.two_rho_check)


@dataclass(frozen=True)
class AffineRoot:
    """The affine function v -> <alpha, v> + k."""

    alpha: tuple
    k: int

    def value_at(self, v):
        return sum(map(mul, self.alpha, v)) + self.k

    def is_positive(self, datum):
        """Positive iff positive on the interior of the base alcove."""
        val = self.value_at(alcove_point(datum))
        assert val != 0, "affine root vanishes at the alcove sample point"
        return val > 0


def transport_affine_root(g, ar):
    """The affine function ar o g for g = t^lam u: (ar o g)(v) = <alpha,
    u(v) + lam> + k, so alpha becomes alpha o M_u and k gains <alpha, lam>."""
    m = g.fw.matrix
    beta = tuple(sum(a * row[j] for a, row in zip(ar.alpha, m)) for j in range(len(m)))
    return AffineRoot(beta, ar.k + sum(map(mul, ar.alpha, g.lam)))


def enumerate_parabolic(datum, labels, cap=100_000):
    """The subgroup generated by the labeled generators, sorted by key; a
    budget overrun when it has more than cap elements."""
    refl = dict(simple_reflections(datum))
    gens = [(label, refl[label]) for label in labels]
    elts = closure([aw_identity(datum)], right_moves(gens), cap, "parabolic subgroup closure")
    return [elts[k] for k in sorted(elts)]


def shift_witnesses(w, budget=None):
    """The shift class of w explored until two length-reducing shifts s v s
    are found, and those as witnesses (v, s); none when w is minimal."""
    refl = dict(simple_reflections(w.datum))
    elts, descents = explore_level(w, low_shifts, budget, "shift-class exploration", want=2)
    return elts, [(v, refl[label]) for v, label, _ in descents]


def reference_level(w, want):
    """explore_level(w, low_shifts, ..., want) by affine products: pop the
    smallest key, build s v s by products in label order, keep a move when
    l(s v s) <= l(v), and skip nothing.  Returns (level, descents) in the
    kernel's shapes: {key: (element, via)} in insertion order and (v,
    label, s v s) triples."""
    lw = w.length
    level, heap, descents = {w.key: (w, None)}, [w.key], []
    while heap:
        k = heapq.heappop(heap)
        v = level[k][0]
        for label, s in simple_reflections(w.datum):
            svs = s * v * s
            if svs.length > v.length:
                continue
            if svs.length < lw:
                descents.append((v, label, svs))
                if len(descents) == want:
                    return level, descents
            elif svs.key not in level:
                level[svs.key] = (svs, (k, label))
                heapq.heappush(heap, svs.key)
    return level, descents


def reference_closure(w):
    """approx_closure(w) by affine products: the keys of every element
    joined to w by shifts s v s of length l(w), sorted."""
    lw, seen = w.length, {w.key: w}
    queue = [w]
    for v in queue:
        for _, s in simple_reflections(w.datum):
            svs = s * v * s
            if svs.length == lw and svs.key not in seen:
                seen[svs.key] = svs
                queue.append(svs)
    return sorted(seen)


def reference_reduction(w):
    """reduce_to_min(w) by reference_level: (w_min key, the steps as (label,
    before key, after key), and the count its levels held)."""
    steps, held, current = [], 0, w
    while True:
        level, descents = reference_level(current, 1)
        held += len(level)
        if not descents:
            return current.key, steps, held
        v, label, current = descents[0]
        chain, k = [(label, v.key, current.key)], v.key
        while level[k][1] is not None:
            pk, plabel = level[k][1]
            chain.append((plabel, pk, k))
            k = pk
        steps.extend(reversed(chain))


def reference_eta(w):
    """The eta decomposition by search: strip the smallest finite left
    descent with descend until the coset minimum m = t^mu y is reached, and
    read x off w m^-1, which must be finite."""
    datum = w.datum
    finite_labels = range(1, datum.n_simple + 1)
    m, _, _, _ = descend(w, left_descents(datum, finite_labels), None, "coset-minimal strip")
    x_aff = w * m.inv()
    assert not any(x_aff.lam) and datum.is_dominant(m.lam)
    x = x_aff.fw
    assert w.length == x.length + m.length
    return EtaDecomposition(x=x, mu=m.lam, y=m.fw, eta=m.fw * x)


def dim_max(a, b):
    """max of two DimValues, with Empty the least."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    return finite(max(a.dim, b.dim))


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _row_mat(v, m):
    return tuple(sum(x * y for x, y in zip(v, col)) for col in zip(*m))


def _mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def matrix_generator_move(label, s, u, inverse_matrix):
    """The fields of an affweyl.move_row entry for the generator s = t^mu sigma
    labelled label and the finite part u, from matrices alone, with finite
    parts given by their matrices and inverse_matrix(m) the matrix of the
    inverse.  alpha is alpha_i for label i > 0 and -theta for an affine
    node; a shift s w s is the right move of s w, which adds sigma u(mu) and
    whose constant k - <sigma u alpha, s(lam)> is k2 + <beta2, lam>."""
    datum = u.datum
    if label > 0:
        alpha, k, coroot = datum.simple_roots[label - 1], 0, datum.simple_coroots[label - 1]
    else:
        theta, thetavee = datum.highest_roots[-label]
        alpha, k, coroot = tuple(-x for x in theta), 1, tuple(-x for x in thetavee)
    sigma, m_u = s.fw.matrix, u.matrix
    left = _matmul(sigma, m_u)
    shift_root = _row_mat(alpha, inverse_matrix(left))
    pairing = sum(x * y for x, y in zip(shift_root, coroot))
    return {
        "alpha": alpha,
        "k": k,
        "coroot": coroot,
        "left": left,
        "left_positive": _row_mat(alpha, m_u) in datum.pos_roots,
        "shift_positive": shift_root in datum.pos_roots,
        "beta2": tuple(pairing * a - r for a, r in zip(alpha, shift_root)),
        "k2": k * (1 + pairing),
        "shift_lam": _mat_vec(left, s.lam) if k else None,
        "shifted": _matmul(left, sigma),
    }
