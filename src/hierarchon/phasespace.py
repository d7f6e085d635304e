"""Symbolic Pauli group over Z_d^(2n), Weyl operators, symplectic machinery.

Conventions: Z|z> = omega^z |z>, X|z> = |z+1>, so Z X = omega X Z and
(Z^p X^q)[z+q, z] = omega^(p.(z+q)).  Wire 1 is the most significant digit of
the computational index.  A phase point is a pair of length-n tuples (p, q);
W(p,q) = omega^(-2^-1 p.q) Z^p X^q.
"""

import itertools
from functools import lru_cache

import numpy as np

from .cyclo import conductor, max_abs, wide
from .exactmat import ExactMatrix, ScaledUnitary, frozen


class PauliElement:
    """omega^c Z^p X^q on n qudits."""

    __slots__ = ("d", "n", "c", "p", "q")

    def __init__(self, d, c, p, q):
        if d == 2:
            raise ValueError("odd prime only")
        p = tuple(int(x) % d for x in p)
        q = tuple(int(x) % d for x in q)
        if len(p) != len(q) or not p:
            raise ValueError("p and q must be equal nonempty length")
        self.d = d
        self.n = len(p)
        self.c = int(c) % d
        self.p = p
        self.q = q

    def __mul__(self, other):
        # X^q Z^p' = omega^(-q.p') Z^p' X^q
        d = self.d
        cross = sum(a * b for a, b in zip(self.q, other.p))
        return PauliElement(
            d,
            self.c + other.c - cross,
            [a + b for a, b in zip(self.p, other.p)],
            [a + b for a, b in zip(self.q, other.q)],
        )

    def inverse(self):
        d = self.d
        cross = sum(a * b for a, b in zip(self.q, self.p))
        return PauliElement(d, -self.c - cross, [-a for a in self.p],
                            [-a for a in self.q])

    def phase_point(self):
        return (self.p, self.q)

    def __eq__(self, other):
        return (
            isinstance(other, PauliElement)
            and (self.d, self.c, self.p, self.q)
            == (other.d, other.c, other.p, other.q)
        )

    def __hash__(self):
        return hash((self.d, self.c, self.p, self.q))


def pauli_z(d, n, i):
    """Z on wire i (1-based), identity elsewhere."""
    p = [0] * n
    p[i - 1] = 1
    return PauliElement(d, 0, p, [0] * n)


def pauli_x(d, n, i):
    q = [0] * n
    q[i - 1] = 1
    return PauliElement(d, 0, [0] * n, q)


def half(d):
    # 2^-1 mod d, d odd
    return (d + 1) // 2


def weyl(d, p, q, c=0):
    """W(p,q) times omega^c, as a PauliElement in Z^p X^q form."""
    p = tuple(p)
    q = tuple(q)
    pq = sum(a * b for a, b in zip(p, q))
    return PauliElement(d, c - half(d) * pq, p, q)


def weyl_mul(d, a, b):
    """Multiply two Weyl-labelled Paulis: phases add half the symplectic form.

    Arguments and result are (c, p, q) triples meaning omega^c W(p,q);
    W(p1,q1) W(p2,q2) = omega^(2^-1 [(p1,q1),(p2,q2)]) W(p1+p2, q1+q2).
    """
    if d == 2:
        raise ValueError("odd prime only")
    ca, pa, qa = a
    cb, pb, qb = b
    form = symplectic_form((pa, qa), (pb, qb), d)
    return (
        (ca + cb + half(d) * form) % d,
        tuple((x + y) % d for x, y in zip(pa, pb)),
        tuple((x + y) % d for x, y in zip(qa, qb)),
    )


def weyl_to_pauli(d, wtriple):
    c, p, q = wtriple
    return weyl(d, p, q, c)


def symplectic_form(u, v, d):
    pu, qu = u
    pv, qv = v
    return (
        sum(a * b for a, b in zip(pu, qv)) - sum(a * b for a, b in zip(pv, qu))
    ) % d


def to_matrix(P):
    """Exact dim x dim matrix of omega^c Z^p X^q, at conductor d."""
    d, dim = P.d, P.d ** P.n
    src, exps = column_map(P)
    cond = conductor(d, 1)
    nums = np.zeros((dim, dim, cond.phi), dtype=np.int64)
    nums[src, np.arange(dim)] = cond.zeta_vec(exps)
    return ExactMatrix(d, 1, nums, 1)


def column_map(P):
    """(src, e) with (M P)[:, j] = M[:, src[j]] omega**e[j]: P's row of _right_paulis."""
    src, exps = _right_paulis(P.d, P.n)
    pi = _index(P.p + P.q, P.d)
    return src[pi], exps[pi] + P.c


@lru_cache(maxsize=None)
def _right_paulis(d, n):
    """Every Z^p X^q on n wires as a column map, one row per p + q in index order.

    Column j of Z^p X^q holds omega**e[j] at row src[j]: with z the digits
    of j, src = index(z + q) and e = p.(z + q) mod d.  So a right Pauli
    factor permutes and rephases columns, (G P)[:, j] = G[:, src[j]] omega**e[j].
    """
    pq = np.indices((d,) * (2 * n)).reshape(2 * n, -1).T
    z = np.indices((d,) * n).reshape(n, -1).T
    zq = (z + pq[:, None, n:]) % d
    src = zq @ d ** np.arange(n - 1, -1, -1)
    exps = (pq[:, None, :n] * zq).sum(axis=-1) % d
    return src, exps


@lru_cache(maxsize=None)
def _omega_shifts(d, m):
    """(d, phi, phi) integer maps x -> x * omega**e on reduced coefficient rows."""
    cond = conductor(d, m)
    f = cond.c // d
    return np.array([[cond.zeta_vec(u + e * f) for u in range(cond.phi)] for e in range(d)])


def shift_columns(nums, cond, src, exps):
    """Columns of the (row, col, phi) tensor nums permuted and rephased.

    Each map (src, e) along the last axis of src and exps sends M to the
    matrix whose column j is M[:, src[j]] omega**e[j]; the result stacks
    the images as (..., row, col, phi).  The coefficients are over the
    conductor cond; the rows may be those of a stack of matrices set one
    above the next.  A shifted coefficient sums at most phi of M's, so
    cyclo.wide picks the dtype on that bound, as it does for a product.
    """
    shifts = _omega_shifts(cond.d, cond.m)[exps % cond.d]
    nums, shifts = wide(max_abs(nums) * cond.phi, nums, shifts)
    # (row, ..., col, phi) -> (..., col, row, phi) @ (..., col, phi, phi) -> (..., row, col, phi)
    k = src.ndim
    cols = nums[:, src].transpose(*range(1, k + 1), 0, k + 1)
    return (cols @ shifts).transpose(*range(k - 1), k, k - 1, k + 1)


def times_pauli(M, P):
    """M @ to_matrix(P), exactly, without a product.

    M P permutes the columns of M and multiplies each by a power of omega,
    through the same column maps as the level lift's right-Pauli sweep.
    """
    return ExactMatrix(M.d, M.m, shift_columns(M.nums, M.cond, *column_map(P)), M.den)


def wire_count(d, dim):
    """n with dim = d**n and n >= 1; ValueError when there is none."""
    n, power = 0, 1
    while power < dim:
        power *= d
        n += 1
    if power != dim or n == 0:
        raise ValueError("gate dimension is not a power of d")
    return n


def _index(z, d):
    idx = 0
    for digit in z:
        idx = idx * d + digit
    return idx


def recognize_pauli(M, up_to_phase=False):
    """Invert to_matrix; None when M is not of Pauli shape.

    With up_to_phase, any nonzero scalar multiple is accepted and the
    returned phase is the c = 0 convention.  M is a Pauli when each column
    holds one power of omega and no other nonzero entry, at the rows and
    exponents of one column map of _right_paulis up to a constant c.
    """
    if up_to_phase:
        M = M.canonical_rep()
    d, dim = M.d, M.dim
    try:
        n = wire_count(d, dim)
    except ValueError:
        return None
    if M.den != 1:
        return None
    support = np.any(M.nums != 0, axis=-1)
    if np.any(support.sum(axis=0) != 1):
        return None
    rows = support.argmax(axis=0)
    cond = M.cond
    omegas = cond.zeta_vec(np.arange(d) * (cond.c // d))
    hits = np.all(M.nums[rows, np.arange(dim), None] == omegas, axis=-1)
    if not np.all(hits.any(axis=1)):
        return None
    # row p + q of the table sends column 0 to row index(q), so only the
    # d**n rows with q read off M's first column can match
    cand = rows[0] + dim * np.arange(dim)
    src, exps = _right_paulis(d, n)
    src, exps = src[cand], exps[cand]
    c = (hits.argmax(axis=1) - exps) % d
    match = np.flatnonzero(np.all(src == rows, axis=1) & np.all(c == c[:, :1], axis=1))
    if not match.size:
        return None
    hit = int(match[0])
    pq = np.unravel_index(int(cand[hit]), (d,) * (2 * n))
    return PauliElement(d, c[hit, 0], pq[:n], pq[n:])


# ---------------------------------------------------------------------------
# symplectic machinery over Z_d^(2n)

def _point_vec(pt):
    p, q = pt
    return tuple(p) + tuple(q)


def _vec_point(v, n):
    return (tuple(v[:n]), tuple(v[n:]))


def _rref_mod(rows, d):
    """Reduced row echelon form over Z_d (d prime); returns rows, pivots."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(rows)):
            if rows[r][col] % d:
                sel = r
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = pow(rows[rank][col], -1, d)
        rows[rank] = [(x * inv) % d for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % d:
                f = rows[r][col]
                rows[r] = [(a - f * b) % d for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return [tuple(r) for r in rows[:rank]], pivots


def _zfirst_key(basis):
    # order points by (q, p): the all-Z semibasis always enumerates first
    return [tuple(pt[1]) + tuple(pt[0]) for pt in basis]


def enumerate_semibases(d, n):
    """One normalized semibasis per Lagrangian subspace, Z semibasis first."""
    return list(_semibases(d, n))


# every witness search walks the list, so it is built once per (d, n)
@lru_cache(maxsize=None)
def _semibases(d, n):
    """The isotropic n-sets of points with leading coordinate 1, one per span.

    Two distinct such points are never dependent, so for n <= 2 every
    pairwise isotropic n-set spans a Lagrangian subspace, keyed by its
    reduced basis.
    """
    if n > 2:
        raise ValueError("n capped at 2")
    points = itertools.product(range(d), repeat=2 * n)
    lead1 = [v for v in points if next((x for x in v if x), 0) == 1]
    spans = {}
    for vs in itertools.combinations(lead1, n):
        pts = [_vec_point(v, n) for v in vs]
        if any(symplectic_form(u, w, d) for u, w in itertools.combinations(pts, 2)):
            continue
        basis = tuple(_rref_mod(vs, d)[0])
        spans[basis] = tuple(sorted((_vec_point(v, n) for v in basis), key=lambda pt: _zfirst_key([pt])))
    return tuple(sorted(spans.values(), key=_zfirst_key))


def _solve_mod(A, b, d):
    """One solution x of A x = b over Z_d (d prime), or None.

    x holds the augmented column at the pivots of the reduced [A | b] and 0
    elsewhere; there is no solution when a pivot lands in that column.
    """
    ncols = len(A[0])
    red, piv = _rref_mod([list(r) + [bb] for r, bb in zip(A, b)], d)
    if piv and piv[-1] == ncols:
        return None
    x = [0] * ncols
    for row, col in zip(red, piv):
        x[col] = row[ncols]
    return x


def extend_to_symplectic_basis(points, d):
    """Complete v_1..v_n to (e, f) with [e_i, f_j] = delta_ij, isotropic e, f."""
    es = [(_point_vec(pt)) for pt in points]
    n = len(points)
    fs = []
    for i in range(n):
        # [e_j, w] = delta_ij for all j; [f_j, w] = 0 for existing f
        A = []
        b = []
        for j, e in enumerate(es):
            A.append(_form_row(e, n, d))
            b.append(1 if j == i else 0)
        for f in fs:
            A.append(_form_row(f, n, d))
            b.append(0)
        w = _solve_mod(A, b, d)
        if w is None:
            raise ValueError("not a semibasis")
        fs.append(tuple(w))
    return (
        [_vec_point(e, n) for e in es],
        [_vec_point(f, n) for f in fs],
    )


def _form_row(v, n, d):
    # [v, w] as a linear functional of w: (-v_q | v_p)
    return [(-x) % d for x in v[n:]] + [x % d for x in v[:n]]


# ---------------------------------------------------------------------------
# Clifford synthesis

def synthesize_clifford(targets):
    """Clifford C with conjugate_action(C, Z_i) = targets[i], exactly.

    Targets must be independent commuting Paulis; built by extending their
    phase points to a symplectic basis, reconstructing from the phaseless
    Weyl tuple, then fixing phases with right X powers.  The result is
    memoised on the target tuple and shared, so its matrix is read-only.
    """
    return _synthesize(tuple(targets))


# the bound keeps two-wire d=7 work from holding thousands of 49x49 Cliffords
@lru_cache(maxsize=512)
def _synthesize(targets):
    from .svn import ConjugateTuple, reconstruct

    d = targets[0].d
    n = targets[0].n
    pts = [t.phase_point() for t in targets]
    for i, a in enumerate(targets):
        for b in targets[i + 1:]:
            if symplectic_form(a.phase_point(), b.phase_point(), d):
                raise ValueError("targets do not commute")
    vecs, piv = _rref_mod([_point_vec(pt) for pt in pts], d)
    if len(vecs) != n:
        raise ValueError("targets are not independent")
    es, fs = extend_to_symplectic_basis(pts, d)
    pairs = []
    for e, f in zip(es, fs):
        U = to_matrix(weyl(d, e[0], e[1]))
        V = to_matrix(weyl(d, f[0], f[1]))
        pairs.append((U, V))
    G0 = reconstruct(ConjugateTuple(d, n, pairs))
    # G0 Z_i G0* = W(e_i); the target is omega^(c_i + 2^-1 p_i.q_i) W(e_i).
    # Right X powers rotate the phase: (G X^x) Z_i (G X^x)* = omega^(-x_i) G Z_i G*.
    xs = []
    for t in targets:
        pq = sum(a * b for a, b in zip(t.p, t.q))
        xs.append((-(t.c + half(d) * pq)) % d)
    corr = to_matrix(PauliElement(d, 0, [0] * n, xs))
    return ScaledUnitary(frozen(G0.mat @ corr), G0.scale2)
