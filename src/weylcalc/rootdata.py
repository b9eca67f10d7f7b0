"""Root data with exact integer/rational arithmetic.

A root datum here is a free lattice X = Z^r (thought of as a coweight
lattice), a list of simple coroots in X, and a list of simple roots given as
integer functionals on X.  All derived structure (the positive roots and
coroots, 2 rho, the dominance order, the quotient X / Z<coroots> used for the
kappa invariant) is computed exactly, so every predicate in this package is
a decision, never an approximation.

The lattice is required to be free: quotients by Galois coinvariants that
introduce torsion are out of scope, and torsion only ever appears inside the
finite quotient X / Z<coroots>.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .errors import (
    BadAutomorphism,
    DatumMismatch,
    MalformedConfig,
    NotDominant,
    NotFiniteType,
)
from .record import Record

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


class DiagramAutomorphism(Record):
    """A diagram automorphism: a permutation of the simple indices together
    with the lattice automorphism of X realizing it."""

    __slots__ = ("perm", "matrix")

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
        self.rank = linalg.as_int(rank, MalformedConfig)
        self.simple_roots = _int_matrix(simple_roots)
        self.simple_coroots = _int_matrix(simple_coroots)
        self.n_simple = len(self.simple_roots)
        self._validate_basic()
        # rank x n, column j the simple coroot alpha_j^vee
        self.coroot_matrix = tuple(zip(*self.simple_coroots))
        self.cartan = linalg.mat_mul(self.simple_roots, self.coroot_matrix)
        self._validate_cartan()
        self._derive_roots()
        self._derive_rho()
        self._derive_kappa()
        self.delta = self._validate_delta(delta)
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
        # symmetrize: d_i a_ij = d_j a_ji with d_i = num / den > 0, per
        # connected component (collected on the way), then scale the d_i to
        # integers
        d, components = [None] * n, []
        for start in range(n):
            if d[start] is not None:
                continue
            d[start], stack, members = (1, 1), [start], [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if a[i][j] != 0 and i != j:
                        # both entries are negative, so the ratio is positive
                        num, den = -d[i][0] * a[i][j], -d[i][1] * a[j][i]
                        if d[j] is None:
                            g = gcd(num, den)
                            d[j] = (num // g, den // g)
                            stack.append(j)
                            members.append(j)
                        elif d[j][0] * den != num * d[j][1]:
                            raise NotFiniteType("Cartan matrix is not symmetrizable")
            components.append(tuple(sorted(members)))
        self.components = tuple(components)
        scale = lcm(*(den for _, den in d))
        sym = tuple(tuple(num * (scale // den) * x for x in row) for (num, den), row in zip(d, a))
        if sym != tuple(zip(*sym)):
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
                perm = tuple(linalg.as_int(x, MalformedConfig) for x in delta["perm"])
                matrix = _int_matrix(delta["lattice_matrix"])
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
            if linalg.row_mat(beta, matrix) not in self.pos_roots:
                raise BadAutomorphism("delta does not permute the positive roots")
        return DiagramAutomorphism(perm, matrix)

    # -- derivation -------------------------------------------------------

    def _derive_roots(self):
        n = self.n_simple
        # closure of the simple roots under simple reflections inside Phi^+,
        # carrying the coroot and the coefficient vector in the simple-root
        # basis along, and keeping every positive root's images s_i(beta);
        # s_i permutes Phi^+ \ {alpha_i}, so an image that leaves Phi^+ must
        # be -alpha_i, and the negative roots need no closure
        seen = {}
        images = {}
        work = []
        for i in range(n):
            coeff = tuple(1 if j == i else 0 for j in range(n))
            item = (self.simple_roots[i], self.simple_coroots[i], coeff)
            seen[item[0]] = item
            work.append(item)
        simple = tuple(enumerate(zip(self.simple_roots, self.simple_coroots)))
        while work:
            beta, betavee, coeff = work.pop()
            row = images[beta] = []
            for i, (alpha, alphavee) in simple:
                pairing = linalg.vec_dot(beta, alphavee)
                nbeta = tuple([x - pairing * y for x, y in zip(beta, alpha)]) if pairing else beta
                row.append(nbeta)
                if nbeta in seen:
                    continue
                ncoeff = coeff[:i] + (coeff[i] - pairing,) + coeff[i + 1:]
                if not all(c >= 0 for c in ncoeff):
                    if any(c > 0 for c in ncoeff):
                        raise MalformedConfig("root with mixed-sign coefficients; invalid data")
                    if nbeta != linalg.vec_neg(alpha):
                        raise MalformedConfig("root system is not symmetric under negation")
                    continue
                if not any(ncoeff):
                    raise MalformedConfig("zero root generated; invalid data")
                cb = linalg.vec_dot(alpha, betavee)
                nbetavee = tuple([x - cb * y for x, y in zip(betavee, alphavee)])
                item = (nbeta, nbetavee, ncoeff)
                seen[nbeta] = item
                work.append(item)
                if 2 * len(seen) > ROOT_CLOSURE_CAP:
                    raise NotFiniteType(
                        f"root closure exceeded {ROOT_CLOSURE_CAP} roots; data is not of finite type"
                    )
        pos = [item for _, item in sorted(seen.items())]
        self.pos_roots, self.pos_coroots, self.pos_coeffs = map(tuple, zip(*pos))
        # Phi indexed as Phi^+ then -Phi^+, with the coroot of each root; W0 acts
        # on Phi by permutations of these indices (bytes, a quarter of a tuple's
        # memory, when they fit), s_i by simple_perms[i]
        self.roots = self.pos_roots + tuple(map(linalg.vec_neg, self.pos_roots))
        self.coroots = self.pos_coroots + tuple(map(linalg.vec_neg, self.pos_coroots))
        self.root_index = {beta: k for k, beta in enumerate(self.roots)}
        self.perm_type = bytes if len(self.roots) <= 256 else tuple
        self.simple_index = tuple(self.root_index[alpha] for alpha in self.simple_roots)
        # s_i(-beta) = -s_i(beta), whose index is half away from s_i(beta)'s
        half = len(self.pos_roots)
        on_pos = ([self.root_index[images[b][i]] for b in self.pos_roots] for i in range(n))
        self.simple_perms = tuple(self.perm_type(row + [(k + half) % (2 * half) for k in row])
                                  for row in on_pos)
        for beta, betavee in zip(self.pos_roots, self.pos_coroots):
            if linalg.vec_dot(beta, betavee) != 2:
                raise MalformedConfig("derived coroot fails <beta, beta^vee> = 2")
        self.highest_roots = tuple(self._highest_root(comp) for comp in self.components)

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
        self.two_rho_check = tuple(map(sum, zip(*self.pos_coroots)))
        # standard identities, checked on 2 rho and 2 rho^vee; failure
        # indicates a derivation bug
        for i in range(self.n_simple):
            if linalg.vec_dot(self.simple_roots[i], self.two_rho_check) != 2:
                raise MalformedConfig("<alpha_i, rho^vee> != 1; inconsistent root data")
            if linalg.vec_dot(self.two_rho, self.simple_coroots[i]) != 2:
                raise MalformedConfig("<rho, alpha_i^vee> != 1; inconsistent root data")

    def _derive_kappa(self):
        self._kappa_u, d, self._kappa_v = linalg.smith_normal_form(self.coroot_matrix)
        diag = [d[k][k] for k in range(min(self.rank, self.n_simple))]
        if any(x == 0 for x in diag):
            raise MalformedConfig("coroot lattice degenerate under Smith reduction")
        self._kappa_diag = tuple(diag)

    # -- operations -------------------------------------------------------

    def reflect_coweight(self, i, v):
        c = linalg.vec_dot(self.simple_roots[i], v)
        return tuple(x - c * y for x, y in zip(v, self.simple_coroots[i]))

    def _coordinates(self, v, name):
        """v as a tuple of one coordinate per rank, else DatumMismatch."""
        v = tuple(v)
        if len(v) != self.rank:
            raise DatumMismatch(f"{name} has {len(v)} coordinates, not {self.rank}")
        return v

    def _rational_coordinates(self, nu):
        """nu as a tuple of one int or Fraction per rank, in its own number
        type, else DatumMismatch or NotRational."""
        v = self._coordinates(nu, "nu")
        for x in v:
            linalg.as_rational(x)  # only refuses: v keeps its number type
        return v

    def dominant_rep(self, nu):
        """The unique dominant representative of the W0-orbit of nu, in the
        number type of nu's entries (ints stay ints, Fractions stay Fractions).
        A nu without one coordinate per rank is refused (DatumMismatch), as
        is a coordinate that is not an int or a Fraction (NotRational)."""
        return self._dominant(self._rational_coordinates(nu))

    def _dominant(self, v):
        """dominant_rep for a tuple v already checked, as the Newton data's
        integer sums are."""
        while True:
            i = next(
                (i for i in range(self.n_simple) if linalg.vec_dot(self.simple_roots[i], v) < 0),
                None,
            )
            if i is None:
                return v
            v = self.reflect_coweight(i, v)

    def is_dominant(self, nu):
        """Whether nu pairs nonnegatively with every simple root; nu is
        refused as dominant_rep refuses it."""
        v = self._rational_coordinates(nu)
        return all(linalg.vec_dot(beta, v) >= 0 for beta in self.simple_roots)

    def dominance_leq(self, nu1, nu2):
        """nu1 <= nu2 iff nu2 - nu1 is a nonnegative rational combination of
        the simple coroots.  Both arguments must already be dominant, with
        one int or Fraction coordinate per rank (NotRational, DatumMismatch).

        Decided in integers by the Smith form u C v = D of the coroot matrix
        C: with b = N (nu2 - nu1) for N clearing the denominators, C x = b
        is solvable iff (u b)_k = 0 for k >= n, and then x = v D^-1 (u b)_<n
        has the signs of v diag(d_n / d_i) (u b)_<n.
        """
        v1 = tuple(map(linalg.as_rational, self._coordinates(nu1, "nu1")))
        v2 = tuple(map(linalg.as_rational, self._coordinates(nu2, "nu2")))
        den = lcm(*(x.denominator for x in v1 + v2))
        b1, b2 = ([x.numerator * (den // x.denominator) for x in v] for v in (v1, v2))
        if not self.is_dominant(b1):
            raise NotDominant(f"first coweight {v1} is not dominant")
        if not self.is_dominant(b2):
            raise NotDominant(f"second coweight {v2} is not dominant")
        b = [y - x for x, y in zip(b1, b2)]
        ub, diag = linalg.mat_vec(self._kappa_u, b), self._kappa_diag
        if any(ub[self.n_simple:]):
            return False
        scaled = [x * (diag[-1] // d) for x, d in zip(ub, diag)]
        return all(c >= 0 for c in linalg.mat_vec(self._kappa_v, scaled))

    def kappa_class(self, lam):
        """Canonical coordinates of lam in X / Z<simple coroots>.

        The first n entries are reduced modulo the Smith invariant factors;
        any remaining entries are free Z-coordinates.  Equality of classes is
        equality of these tuples, and the map is additive componentwise.
        lam's coordinates must be integers (NotIntegral), one per rank
        (DatumMismatch).
        """
        lam = self._coordinates(map(linalg.as_int, lam), "lam")
        ulam = linalg.mat_vec(self._kappa_u, lam)
        key = []
        for k in range(self.rank):
            if k < len(self._kappa_diag):
                key.append(int(ulam[k]) % self._kappa_diag[k])
            else:
                key.append(int(ulam[k]))
        return tuple(key)

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


def _int_matrix(rows):
    """rows as a tuple of int tuples; a non-integer entry is MalformedConfig."""
    return tuple(tuple(linalg.as_int(x, MalformedConfig) for x in row) for row in rows)


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
        rank = linalg.as_int(config["rank"], MalformedConfig)
        roots = _int_matrix(config["roots"])
        coroot_matrix = _int_matrix(config["coroots"])
        declared = _int_matrix(config["cartan"]) if "cartan" in config else None
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedConfig(f"missing or ill-typed config field: {exc}") from exc
    n = len(roots)
    if len(coroot_matrix) != rank or any(len(row) != n for row in coroot_matrix):
        raise MalformedConfig("coroots must be a rank x n matrix with columns alpha_i^vee")
    coroots = [[coroot_matrix[i][j] for i in range(rank)] for j in range(n)]
    name = str(config.get("name", "custom"))
    datum = RootDatum(name, rank, roots, coroots, delta=config.get("delta"))
    if declared is not None and declared != datum.cartan:
        raise MalformedConfig("declared Cartan matrix disagrees with <alpha_i, alpha_j^vee>")
    return datum


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, nested too deep
            raise MalformedConfig(f"config file {path} is not valid JSON: {exc}") from exc
