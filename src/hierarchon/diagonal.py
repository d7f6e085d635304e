"""Rank-k polynomials and the diagonal gates of each hierarchy level.

Every level-k diagonal class on one wire is hit by a gate diag(zeta^phi(z))
for a polynomial phi with bounded precision and degree; this module builds
that family, walks it down a level at a time, and cross-checks it against
the enumerated catalogs.
"""

from collections import namedtuple
from itertools import product

from .cyclo import CycloScalar
from .exactmat import ExactMatrix, to_interchange
from .hierarchy import order_d_corrections
from .phasespace import pauli_x, to_matrix

PrecisionDegree = namedtuple("PrecisionDegree", "k m a")


def precision_degree(k, d):
    """The unique (m, a) with k = (m-1)(d-1) + a and 1 <= a <= d-1."""
    if k < 1:
        raise ValueError("levels start at 1")
    m, a = divmod(k - 1, d - 1)
    return PrecisionDegree(k, m + 1, a + 1)


class RankKPoly:
    """phi(z) = sum_j phi_j z**j over Z_{d**m}, with no constant term.

    Coefficients above the degree bound must vanish mod d.  Evaluation lifts
    z to its integer representative before powering; reducing exponents mod
    d instead would be wrong whenever m > 1.
    """

    def __init__(self, d, k, coeffs):
        self.d = d
        self.k = k
        _, self.m, self.a = precision_degree(k, d)
        self.modulus = d ** self.m
        coeffs = tuple(int(c) % self.modulus for c in coeffs)
        if len(coeffs) != d - 1:
            raise ValueError("need one coefficient per power 1..d-1")
        for j, c in enumerate(coeffs, start=1):
            if j > self.a and c % d:
                raise ValueError(
                    "coefficient %d must vanish mod %d above degree %d" % (j, d, self.a)
                )
        self.coeffs = coeffs

    def __call__(self, z):
        z = int(z) % self.d
        acc, zp = 0, 1
        for c in self.coeffs:
            zp *= z
            acc += c * zp
        return acc % self.modulus

    def gate(self):
        d = self.d
        return ExactMatrix.diag(d, [CycloScalar.zeta(d, self.m, self(z)) for z in range(d)])


def rank_polys(d, k):
    """All rank-k polynomials, lexicographic in the coefficient vector."""
    pd = precision_degree(k, d)
    mod = d ** pd.m
    ranges = [range(mod) if j <= pd.a else range(0, mod, d) for j in range(1, d)]
    for coeffs in product(*ranges):
        yield RankKPoly(d, k, coeffs)


def gen_delta_k(d, k):
    """The d**k level-k diagonal gates fixing |0>, one per phase class."""
    return [phi.gate() for phi in rank_polys(d, k)]


def twist(phi, q):
    """The diagonal factor left over when X**q passes through phi's gate."""
    d = phi.d
    exps = [phi(z) - phi((z - q) % d) for z in range(d)]
    return ExactMatrix.diag(
        d, [CycloScalar.zeta(d, phi.m, e % phi.modulus) for e in exps]
    )


def dxd_step(D):
    """One rung down the ladder: (D X D* X* fixing |0>, its d order fixes).

    The conjugation D X D* equals a one-level-lower diagonal times X up to
    phase; the returned phases are the rephasings giving that product exact
    order d, or None when no rational rephasing exists.
    """
    if not D.is_diagonal():
        raise ValueError("dxd_step needs a diagonal gate")
    X = to_matrix(pauli_x(D.d, 1, 1))
    raw = D @ X @ D.dagger() @ X.dagger()
    down = raw.canonical_rep().demote_min()
    return down, order_d_corrections(down @ X)


def verify_cgk(d, k, catalog):
    """Cross-check the generated level-k diagonals against a catalog.

    missing lists coefficient vectors of generated gates whose class the
    catalog lacks; extra lists catalog diagonal classes the family misses.
    Both empty and the counts matching d**k is a pass.
    """
    delta = {}
    missing = []
    for phi in rank_polys(d, k):
        D = phi.gate()
        delta[D.canonical_rep().to_key()] = phi.coeffs
        if not catalog.contains(D):
            missing.append(list(phi.coeffs))
    diag_count = 0
    extra = []
    for su in catalog.representatives():
        if su.mat.is_diagonal():
            diag_count += 1
            if su.mat.canonical_rep().to_key() not in delta:
                extra.append(to_interchange(su, 1))
    return {
        "d": d,
        "k": k,
        "delta_count": len(delta),
        "diagonal_in_catalog": diag_count,
        "missing": missing,
        "extra": extra,
    }
