"""Root data with exact integer/rational arithmetic.

A root datum here is a free lattice X = Z^r (thought of as a coweight
lattice), a list of simple coroots in X, and a list of simple roots given as
integer functionals on X.  All derived structure (the positive roots and
coroots, rho, the dominance order, the quotient X / Z<coroots> used for the
kappa invariant) is computed exactly, so every predicate in this package is
a decision, never an approximation.

The lattice is required to be free: quotients by Galois coinvariants that
introduce torsion are out of scope, and torsion only ever appears inside the
finite quotient X / Z<coroots>.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    BadAutomorphism,
    MalformedConfig,
    NotDominant,
    NotFiniteType,
)

# Backstop against bad configs even if the positive-definiteness check is
# bypassed: reflection closure refuses to generate more roots than this.
ROOT_CLOSURE_CAP = 10_000

PRESETS = {
    "SL2": {
        "name": "SL2",
        "rank": 1,
        "roots": [[2]],
        "coroots": [[1]],
    },
    "PGL2": {
        "name": "PGL2",
        "rank": 1,
        "roots": [[1]],
        "coroots": [[2]],
    },
    "SL3": {
        "name": "SL3",
        "rank": 2,
        "roots": [[2, -1], [-1, 2]],
        "coroots": [[1, 0], [0, 1]],
    },
    "PGL3": {
        "name": "PGL3",
        "rank": 2,
        "roots": [[1, 0], [0, 1]],
        "coroots": [[2, -1], [-1, 2]],
    },
    "Sp4": {
        "name": "Sp4",
        "rank": 2,
        "roots": [[2, -1], [-2, 2]],
        "coroots": [[1, 0], [0, 1]],
    },
    "SL4": {
        "name": "SL4",
        "rank": 3,
        "roots": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        "coroots": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    },
    "A2-twisted": {
        "name": "A2-twisted",
        "rank": 2,
        "roots": [[2, -1], [-1, 2]],
        "coroots": [[1, 0], [0, 1]],
        "delta": {"perm": [1, 0], "lattice_matrix": [[0, 1], [1, 0]]},
    },
    "A3-twisted": {
        "name": "A3-twisted",
        "rank": 3,
        "roots": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        "coroots": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "delta": {
            "perm": [2, 1, 0],
            "lattice_matrix": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        },
    },
}


@dataclass(frozen=True)
class DiagramAutomorphism:
    """A diagram automorphism: a permutation of the simple indices together
    with the lattice automorphism of X realizing it."""

    perm: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]

    @property
    def is_identity(self):
        return all(p == i for i, p in enumerate(self.perm)) and self.matrix == linalg.identity_matrix(len(self.matrix))

    @staticmethod
    def identity(n_simple, rank):
        return DiagramAutomorphism(tuple(range(n_simple)), linalg.identity_matrix(rank))


class RootDatum:
    """Immutable container for a validated root datum.

    Use :func:`build_root_datum`; the constructor performs full validation
    and derivation and raises on invalid data.
    """

    def __init__(self, name, rank, simple_roots, simple_coroots, delta=None):
        self.name = name
        self.rank = rank
        self.simple_roots = tuple(tuple(int(x) for x in row) for row in simple_roots)
        self.simple_coroots = tuple(tuple(int(x) for x in v) for v in simple_coroots)
        self.n_simple = len(self.simple_roots)
        self._validate_basic()
        # rank x n, column j the simple coroot alpha_j^vee
        self.coroot_matrix = tuple(zip(*self.simple_coroots))
        self._simple_reflection_matrices = tuple(
            self.reflection_matrix(a, av) for a, av in zip(self.simple_roots, self.simple_coroots)
        )
        self.cartan = tuple(
            tuple(linalg.vec_dot(self.simple_roots[i], self.simple_coroots[j]) for j in range(self.n_simple))
            for i in range(self.n_simple)
        )
        self._validate_cartan()
        self._validate_independence()
        self._derive_roots()
        self._derive_rho()
        self._derive_kappa()
        self.delta = self._validate_delta(delta)
        self._derive_alcove_point()
        self._cache = {}

    # -- validation -------------------------------------------------------

    def _validate_basic(self):
        if self.rank < 1:
            raise MalformedConfig("rank must be a positive integer")
        if self.n_simple == 0:
            raise MalformedConfig("at least one simple root is required")
        if len(self.simple_coroots) != self.n_simple:
            raise MalformedConfig("roots and coroots must have the same number of entries")
        for row in self.simple_roots:
            if len(row) != self.rank:
                raise MalformedConfig("each simple root must be a functional on Z^rank")
        for v in self.simple_coroots:
            if len(v) != self.rank:
                raise MalformedConfig("each simple coroot must be a vector in Z^rank")

    def _validate_independence(self):
        # redundant once the Cartan matrix is known nonsingular, but kept as
        # a defensive backstop
        if linalg.rank_rational(self.simple_roots) != self.n_simple:
            raise MalformedConfig("simple roots are linearly dependent")
        if linalg.rank_rational(self.coroot_matrix) != self.n_simple:
            raise MalformedConfig("simple coroots are linearly dependent")

    def _validate_cartan(self):
        a = self.cartan
        n = self.n_simple
        for i in range(n):
            if a[i][i] != 2:
                raise MalformedConfig(f"<alpha_{i}, alpha_{i}^vee> = {a[i][i]} != 2")
            for j in range(n):
                if i != j:
                    if a[i][j] > 0:
                        raise MalformedConfig("off-diagonal Cartan entries must be <= 0")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise MalformedConfig("Cartan zero pattern is not symmetric")
        # symmetrize: d_i a_ij = d_j a_ji with d_i > 0, per connected component
        d = [None] * n
        for start in range(n):
            if d[start] is not None:
                continue
            d[start] = Fraction(1)
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if a[i][j] != 0 and i != j:
                        want = d[i] * a[i][j] / a[j][i]
                        if d[j] is None:
                            d[j] = want
                            stack.append(j)
                        elif d[j] != want:
                            raise NotFiniteType("Cartan matrix is not symmetrizable")
        sym = tuple(tuple(d[i] * a[i][j] for j in range(n)) for i in range(n))
        for i in range(n):
            for j in range(n):
                if sym[i][j] != sym[j][i]:
                    raise NotFiniteType("symmetrized Cartan matrix is not symmetric")
        if not linalg.is_positive_definite(sym):
            raise NotFiniteType("symmetrized Cartan matrix is not positive definite")

    def _validate_delta(self, delta):
        if delta is None:
            return None
        if isinstance(delta, DiagramAutomorphism):
            perm, matrix = delta.perm, delta.matrix
        else:
            try:
                perm = tuple(int(x) for x in delta["perm"])
                matrix = tuple(tuple(int(x) for x in row) for row in delta["lattice_matrix"])
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedConfig(f"malformed delta block: {exc}") from exc
        if sorted(perm) != list(range(self.n_simple)):
            raise BadAutomorphism("delta.perm is not a permutation of the simple indices")
        if len(matrix) != self.rank or any(len(row) != self.rank for row in matrix):
            raise BadAutomorphism("delta.lattice_matrix has the wrong shape")
        if linalg.invert_unimodular(matrix) is None:
            raise BadAutomorphism("delta.lattice_matrix is not invertible over Z")
        for i in range(self.n_simple):
            if linalg.row_mat(self.simple_roots[perm[i]], matrix) != self.simple_roots[i]:
                raise BadAutomorphism(f"alpha_{perm[i]} o g != alpha_{i}")
            if linalg.mat_vec(matrix, self.simple_coroots[i]) != self.simple_coroots[perm[i]]:
                raise BadAutomorphism(f"g(alpha_{i}^vee) != alpha_{perm[i]}^vee")
        for i in range(self.n_simple):
            for j in range(self.n_simple):
                if self.cartan[perm[i]][perm[j]] != self.cartan[i][j]:
                    raise BadAutomorphism("delta does not fix the Cartan matrix")
        for beta in self.pos_roots:
            if linalg.row_mat(beta, matrix) not in self._pos_set:
                raise BadAutomorphism("delta does not permute the positive roots")
        return DiagramAutomorphism(perm, matrix)

    # -- derivation -------------------------------------------------------

    def _derive_roots(self):
        n = self.n_simple
        # closure of the simple roots under simple reflections, carrying the
        # coroot and the coefficient vector in the simple-root basis along
        seen = {}
        work = []
        for i in range(n):
            coeff = tuple(1 if j == i else 0 for j in range(n))
            item = (self.simple_roots[i], self.simple_coroots[i], coeff)
            seen[item[0]] = item
            work.append(item)
        while work:
            beta, betavee, coeff = work.pop()
            for i in range(n):
                pairing = linalg.vec_dot(beta, self.simple_coroots[i])
                nbeta = linalg.vec_sub(beta, linalg.vec_scale(pairing, self.simple_roots[i]))
                if nbeta in seen:
                    continue
                cb = linalg.vec_dot(self.simple_roots[i], betavee)
                nbetavee = linalg.vec_sub(betavee, linalg.vec_scale(cb, self.simple_coroots[i]))
                ncoeff = tuple(
                    coeff[j] - (pairing if j == i else 0) for j in range(n)
                )
                item = (nbeta, nbetavee, ncoeff)
                seen[nbeta] = item
                work.append(item)
                if len(seen) > ROOT_CLOSURE_CAP:
                    raise NotFiniteType(
                        f"root closure exceeded {ROOT_CLOSURE_CAP} roots; data is not of finite type"
                    )
        pos = []
        for beta, (_, betavee, coeff) in sorted(seen.items()):
            if all(c >= 0 for c in coeff):
                if not any(c > 0 for c in coeff):
                    raise MalformedConfig("zero root generated; invalid data")
                pos.append((beta, betavee, coeff))
            elif not all(c <= 0 for c in coeff):
                raise MalformedConfig("root with mixed-sign coefficients; invalid data")
        if 2 * len(pos) != len(seen):
            raise MalformedConfig("root system is not symmetric under negation")
        self.pos_roots = tuple(p[0] for p in pos)
        self.pos_coroots = tuple(p[1] for p in pos)
        self.pos_coeffs = tuple(p[2] for p in pos)
        self._pos_set = frozenset(self.pos_roots)
        self._neg_set = frozenset(linalg.vec_neg(b) for b in self.pos_roots)
        for beta, betavee in zip(self.pos_roots, self.pos_coroots):
            if linalg.vec_dot(beta, betavee) != 2:
                raise MalformedConfig("derived coroot fails <beta, beta^vee> = 2")
        self.components = self._connected_components()
        self.highest_roots = tuple(self._highest_root(comp) for comp in self.components)

    def _connected_components(self):
        n = self.n_simple
        comp = [None] * n
        comps = []
        for start in range(n):
            if comp[start] is not None:
                continue
            cid = len(comps)
            members = []
            stack = [start]
            comp[start] = cid
            while stack:
                i = stack.pop()
                members.append(i)
                for j in range(n):
                    if comp[j] is None and self.cartan[i][j] != 0:
                        comp[j] = cid
                        stack.append(j)
            comps.append(tuple(sorted(members)))
        return tuple(comps)

    def _highest_root(self, comp):
        comp_set = set(comp)
        candidates = [
            k
            for k in range(len(self.pos_roots))
            if {j for j, c in enumerate(self.pos_coeffs[k]) if c != 0} <= comp_set
        ]
        best = max(candidates, key=lambda k: sum(self.pos_coeffs[k]))
        for k in candidates:
            if any(self.pos_coeffs[k][j] > self.pos_coeffs[best][j] for j in range(self.n_simple)):
                raise MalformedConfig("no componentwise-highest root; invalid data")
        return (self.pos_roots[best], self.pos_coroots[best])

    def _derive_rho(self):
        self.two_rho = tuple(map(sum, zip(*self.pos_roots)))
        self.rho = tuple(Fraction(x, 2) for x in self.two_rho)
        self.two_rho_check = tuple(map(sum, zip(*self.pos_coroots)))
        self.rho_check = tuple(Fraction(x, 2) for x in self.two_rho_check)
        # standard identities; failure indicates a derivation bug
        for i in range(self.n_simple):
            if linalg.vec_dot(self.simple_roots[i], self.rho_check) != 1:
                raise MalformedConfig("<alpha_i, rho^vee> != 1; inconsistent root data")
            if linalg.vec_dot(self.rho, self.simple_coroots[i]) != 1:
                raise MalformedConfig("<rho, alpha_i^vee> != 1; inconsistent root data")

    def _derive_kappa(self):
        u, d, _ = linalg.smith_normal_form(self.coroot_matrix)
        self._kappa_u = u
        diag = [d[k][k] for k in range(min(self.rank, self.n_simple))]
        if any(x == 0 for x in diag):
            raise MalformedConfig("coroot lattice degenerate under Smith reduction")
        self._kappa_diag = tuple(diag)

    def _derive_alcove_point(self):
        m = 1 + max(linalg.vec_dot(beta, self.rho_check) for beta in self.pos_roots)
        self.alcove_point = tuple(x / m for x in self.rho_check)
        # a second interior point, used by tests to confirm that affine-root
        # positivity does not depend on the sample
        self.alcove_point2 = tuple(x / (m + 1) for x in self.rho_check)

    # -- operations -------------------------------------------------------

    def reflect_coweight(self, i, v):
        c = linalg.vec_dot(self.simple_roots[i], v)
        return tuple(x - c * y for x, y in zip(v, self.simple_coroots[i]))

    def is_positive_root(self, beta):
        return beta in self._pos_set

    def is_negative_root(self, beta):
        return beta in self._neg_set

    def simple_reflection_matrix(self, i):
        return self._simple_reflection_matrices[i]

    def reflection_matrix(self, beta, betavee):
        return tuple(
            tuple((1 if j == k else 0) - betavee[j] * beta[k] for k in range(self.rank))
            for j in range(self.rank)
        )

    def dominant_rep(self, nu):
        """The unique dominant representative of the W0-orbit of nu, in the
        number type of nu's entries (ints stay ints, Fractions stay Fractions)."""
        v = tuple(nu)
        while True:
            i = next(
                (i for i in range(self.n_simple) if linalg.vec_dot(self.simple_roots[i], v) < 0),
                None,
            )
            if i is None:
                return v
            v = self.reflect_coweight(i, v)

    def is_dominant(self, nu):
        return all(linalg.vec_dot(beta, nu) >= 0 for beta in self.simple_roots)

    def dominance_leq(self, nu1, nu2):
        """nu1 <= nu2 iff nu2 - nu1 is a nonnegative rational combination of
        the simple coroots.  Both arguments must already be dominant."""
        v1 = tuple(Fraction(x) for x in nu1)
        v2 = tuple(Fraction(x) for x in nu2)
        if not self.is_dominant(v1):
            raise NotDominant(f"first coweight {v1} is not dominant")
        if not self.is_dominant(v2):
            raise NotDominant(f"second coweight {v2} is not dominant")
        diff = linalg.vec_sub(v2, v1)
        coeffs = linalg.solve_rational(self.coroot_matrix, diff)
        if coeffs is None:
            return False
        return all(c >= 0 for c in coeffs)

    def kappa_class(self, lam):
        """Canonical coordinates of lam in X / Z<simple coroots>.

        The first n entries are reduced modulo the Smith invariant factors;
        any remaining entries are free Z-coordinates.  Equality of classes is
        equality of these tuples, and the map is additive componentwise.
        """
        ulam = linalg.mat_vec(self._kappa_u, tuple(int(x) for x in lam))
        key = []
        for k in range(self.rank):
            if k < len(self._kappa_diag):
                key.append(int(ulam[k]) % self._kappa_diag[k])
            else:
                key.append(int(ulam[k]))
        return tuple(key)

    def kappa_zero(self):
        return tuple(0 for _ in range(self.rank))

    def kappa_add(self, a, b):
        out = []
        for k in range(self.rank):
            s = a[k] + b[k]
            if k < len(self._kappa_diag):
                s %= self._kappa_diag[k]
            out.append(s)
        return tuple(out)

    def in_coroot_lattice(self, lam):
        """Membership of lam in the integer span of the simple coroots."""
        coeffs = linalg.solve_rational(self.coroot_matrix, lam)
        return coeffs is not None and all(c.denominator == 1 for c in coeffs)

    def pi1_order(self):
        """Order of X / Z<coroots>, or None when the quotient is infinite."""
        if len(self._kappa_diag) < self.rank:
            return None
        order = 1
        for x in self._kappa_diag:
            order *= x
        return order

    def pi1_invariants(self):
        inv = [x for x in self._kappa_diag if x > 1]
        inv.extend(0 for _ in range(self.rank - len(self._kappa_diag)))
        return tuple(inv)

    # -- identity ---------------------------------------------------------

    def content_key(self):
        delta = None
        if self.delta is not None:
            delta = {"perm": list(self.delta.perm), "lattice_matrix": [list(r) for r in self.delta.matrix]}
        return json.dumps(
            {
                "rank": self.rank,
                "roots": [list(r) for r in self.simple_roots],
                "coroots": [list(v) for v in self.simple_coroots],
                "delta": delta,
            },
            sort_keys=True,
        )

    @property
    def hash_hex(self):
        return hashlib.sha256(self.content_key().encode()).hexdigest()

    def same_datum(self, other):
        return self is other or self.content_key() == other.content_key()

    def __repr__(self):
        return f"RootDatum({self.name!r}, rank={self.rank}, n_simple={self.n_simple})"


def build_root_datum(config):
    """Build and validate a RootDatum from a preset name or a config mapping.

    The mapping layout is JSON-compatible: {"name", "rank", "roots",
    "coroots", optional "cartan", optional "delta": {"perm",
    "lattice_matrix"}}.  Coroots are given as a rank x n matrix whose columns
    are the simple coroots in the X-basis; roots as an n x rank matrix whose
    rows are the simple-root functionals.
    """
    if isinstance(config, str):
        if config not in PRESETS:
            raise MalformedConfig(
                f"unknown preset {config!r}; available: {', '.join(sorted(PRESETS))}"
            )
        config = PRESETS[config]
    if not isinstance(config, dict):
        raise MalformedConfig("config must be a preset name or a mapping")
    try:
        rank = int(config["rank"])
        roots = [[int(x) for x in row] for row in config["roots"]]
        coroot_matrix = [[int(x) for x in row] for row in config["coroots"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedConfig(f"missing or ill-typed config field: {exc}") from exc
    n = len(roots)
    if len(coroot_matrix) != rank or any(len(row) != n for row in coroot_matrix):
        raise MalformedConfig("coroots must be a rank x n matrix with columns alpha_i^vee")
    coroots = [[coroot_matrix[i][j] for i in range(rank)] for j in range(n)]
    name = str(config.get("name", "custom"))
    datum = RootDatum(name, rank, roots, coroots, delta=config.get("delta"))
    if "cartan" in config:
        declared = tuple(tuple(int(x) for x in row) for row in config["cartan"])
        if declared != datum.cartan:
            raise MalformedConfig("declared Cartan matrix disagrees with <alpha_i, alpha_j^vee>")
    return datum


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedConfig(f"config file {path} is not valid JSON: {exc}") from exc


def dominant_rep(datum, nu):
    return datum.dominant_rep(nu)


def dominance_leq(datum, nu1, nu2):
    return datum.dominance_leq(nu1, nu2)


def kappa_class(datum, lam):
    return datum.kappa_class(lam)
