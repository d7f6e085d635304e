"""Two-qutrit third-level survey over the diagonal-times-X normal form.

A Clifford of the form w^x D[w^phi] Z^a X^alpha, with phi a homogeneous
quadratic, is recorded as a septuple of Z_d values: the three quadratic
coefficients, the Z part and the X part (the phase x never matters).
Commutation of two such gates reduces to two linear congruences plus a phase
value c, so the conjugate tuples of third-level gates can be enumerated
combinatorially.  Each tuple is then tested for a Lagrangian semibasis in
the kernel of its 3x4 quadratic coefficient matrix; finding one certifies
the underlying gate semi-Clifford.

The survey covers tuples in the normal form only; the symplectic reduction
that carries an arbitrary third-level tuple into this form is taken as
given rather than recomputed, and the report says so.
"""

from collections import namedtuple
from fractions import Fraction

import numpy as np

from . import _kernels
from .cyclo import CycloScalar
from .exactmat import ExactMatrix

Septuple = namedtuple("Septuple", "d1 d2 d3 a1 a2 alpha1 alpha2")

TupleQuadruple = namedtuple("TupleQuadruple", "u v s t")

# the qudit dimension, the digit base of every septuple: the survey is
# specific to qutrits
DIM = 3

SCOPE = (
    "tuples in the diagonal-times-X normal form; reduction of arbitrary "
    "third-level tuples into this form is assumed, not recomputed"
)


def septuple_from_index(i):
    digits = []
    for pw in range(6, -1, -1):
        digits.append((i // DIM ** pw) % DIM)
    return Septuple(*digits)


def septuple_index(s):
    out = 0
    for comp in s:
        out = out * DIM + comp % DIM
    return out


def _commutator(s1, s2, d):
    """(lin, c) for U V = w^c V U, over septuple digits that broadcast.

    The two linear congruences come from pushing the X part of each gate
    through the other's quadratic; lin marks where both hold, and there the
    leftover commutator is the plain phase c = psi(alpha) + a.beta -
    phi(beta) - b.alpha.  s1 and s2 are sequences of the seven digits,
    plain ints or numpy arrays alike.
    """
    d1, d2, d3, a1, a2, x1, x2 = s1
    e1, e2, e3, b1, b2, y1, y2 = s2
    # one expression each, so no full-size intermediate outlives its sum
    lin = ((2 * d1 * y1 + d3 * y2 - 2 * e1 * x1 - e3 * x2) % d == 0) & (
        (d3 * y1 + 2 * d2 * y2 - e3 * x1 - 2 * e2 * x2) % d == 0
    )
    c = (
        (x1 * x1) * e1 + (x2 * x2) * e2 + (x1 * x2) * e3  # psi(alpha)
        + a1 * y1 + a2 * y2
        - d1 * (y1 * y1) - d2 * (y2 * y2) - d3 * (y1 * y2)  # phi(beta)
        - x1 * b1 - x2 * b2
    ) % d
    return lin, c


def commutation_check(s1, s2):
    """c with U V = w^c V U, or None when no such phase exists."""
    lin, c = _commutator(s1, s2, DIM)
    return c if lin else None


def quadruple_relations(q):
    """The six c-values for (UV, ST, US, UT, VS, VT).

    A conjugate tuple must come out (1, 1, 0, 0, 0, 0); None marks a pair
    that fails the linear congruences outright.
    """
    return (
        commutation_check(q.u, q.v),
        commutation_check(q.s, q.t),
        commutation_check(q.u, q.s),
        commutation_check(q.u, q.t),
        commutation_check(q.v, q.s),
        commutation_check(q.v, q.t),
    )


def septuple_matrix(s):
    """The gate D[w^phi] Z^a X^alpha as an exact matrix, wire 1 most significant."""
    d = DIM
    w = CycloScalar.omega(d)
    zero = CycloScalar.from_rational(d, Fraction(0))
    grid = [[zero] * (d * d) for _ in range(d * d)]
    for z1 in range(d):
        for z2 in range(d):
            w1, w2 = (z1 + s.alpha1) % d, (z2 + s.alpha2) % d
            e = (
                s.d1 * w1 * w1 + s.d2 * w2 * w2 + s.d3 * w1 * w2
                + s.a1 * w1 + s.a2 * w2
            ) % d
            grid[w1 * d + w2][z1 * d + z2] = w ** e
    return ExactMatrix.from_scalars(d, grid)


def kernel_semibasis_check(q):
    """Search the kernel of the quadratic coefficient matrix for a semibasis.

    Returns (found, witness); the witness is a pair of independent kernel
    vectors with vanishing symplectic product, coordinates (p1, q1, p2, q2).
    """
    mat = [
        [q.u.d1, q.v.d1, q.s.d1, q.t.d1],
        [q.u.d2, q.v.d2, q.s.d2, q.t.d2],
        [q.u.d3, q.v.d3, q.s.d3, q.t.d3],
    ]
    witness = _kernels.isotropic_plane_witness(mat)
    return witness is not None, witness


def _digit_columns(d, count):
    """The count base-d digits of 0..d**count-1, most significant first."""
    idx = np.arange(d ** count)
    return [idx // d ** pw % d for pw in range(count - 1, -1, -1)]


def _pair_list():
    """(pairs, ok0, colcode) over every ordered pair of septuples.

    pairs lists the (i, j) with U_i U_j = w U_j U_i, row-major; ok0[i, j] is
    1 where U_i and U_j commute; colcode[i] packs the quadratic digits of i.
    A septuple index is i = d**4 q + d**2 a + x, with q its quadratic, a its
    Z and x its X digits.  The congruences read only (q, x) of each side, and each
    half of c reads two digit groups, psi(alpha) - b.alpha the row's x and
    the column's (q, b), a.beta - phi(beta) the row's (q, a) and the
    column's y.  So _commutator runs on three small tables, and each
    d**7 x d**7 mask is one comparison of two int8 tables and one AND.
    """
    d = DIM
    nq, nx = d ** 3, d ** 2
    q, x = _digit_columns(d, 3), _digit_columns(d, 2)

    def at(digits, axis, ndim):
        return [v.reshape([-1 if k == axis else 1 for k in range(ndim)]) for v in digits]

    none = [0, 0]  # the Z or the X digits, absent from a table
    # lin over (q_i, x_i, q_j, y_j)
    lin, _ = _commutator(at(q, 0, 4) + none + at(x, 1, 4), at(q, 2, 4) + none + at(x, 3, 4), d)
    # psi(alpha) - b.alpha over (x_i, q_j, b_j); a.beta - phi(beta) over (q_i, a_i, y_j)
    _, c_x = _commutator([0] * 3 + none + at(x, 0, 3), at(q, 1, 3) + at(x, 2, 3) + none, d)
    _, c_y = _commutator(at(q, 0, 3) + at(x, 1, 3) + none, [0] * 3 + none + at(x, 2, 3), d)
    # on the grid over (q_i, a_i, x_i, q_j, b_j, y_j), c == t exactly where
    # c_y == t - c_x (mod d), so no d**7 x d**7 sum is formed; both masks
    # are built in one grid-sized buffer, the second kept as ok0
    lin = lin.reshape(nq, 1, nx, nq, 1, nx)
    c_y = c_y.astype(np.int8).reshape(nq, nx, 1, 1, 1, nx)
    c_x = c_x.astype(np.int8).reshape(1, 1, nx, nq, nx, 1)
    n = d ** 7
    mask = np.equal(c_y, (1 - c_x) % d, out=np.empty((nq, nx, nx, nq, nx, nx), dtype=bool))
    mask &= lin
    flat = np.flatnonzero(mask)
    # laid out as np.argwhere lays it out, so each column is contiguous
    cols = np.empty((2, len(flat)), dtype=flat.dtype)
    np.divmod(flat, n, out=(cols[0], cols[1]))
    pairs = cols.T
    np.equal(c_y, -c_x % d, out=mask)
    mask &= lin
    ok0 = mask.reshape(n, n).view(np.uint8)
    d1, d2, d3 = q
    colcode = np.repeat(d1 + d * d2 + d * d * d3, nx * nx).astype(np.int64)
    return pairs, ok0, colcode


def enumerate_tuples(stride=1):
    """Yield conjugate tuples (U, V, S, T) in a fixed lexicographic order.

    stride keeps every stride-th leading pair, the same stratification the
    survey uses for its quick tier.
    """
    if stride < 1:
        raise ValueError("stride must be positive")
    pairs, ok0, _ = _pair_list()
    pu, pv = pairs[:, 0], pairs[:, 1]
    septs = [septuple_from_index(i) for i in range(DIM ** 7)]
    for rows, qs in _kernels.survey_walk(pu, pv, ok0, 0, len(pairs), stride):
        for r, q in zip(rows.tolist(), qs.tolist()):
            yield TupleQuadruple(septs[pu[r]], septs[pv[r]], septs[pu[q]], septs[pv[q]])


def survey(stride=1):
    """Tally the kernel-semibasis check over every enumerated tuple.

    stride keeps every stride-th leading pair.  One survey_join pass counts
    the tuples by the packed quadratic codes of their two pairs, and the
    semibasis table decides each code; when a code fails, a second walk
    over the same rows lists up to twenty offending tuples in enumeration
    order.
    """
    if stride < 1:
        raise ValueError("stride must be positive")
    # the table first, so its scratch is gone before the pair tables exist
    lutm = _kernels.semibasis_lut().reshape(729, 729)  # [suffix, prefix]
    pairs, ok0, colcode = _pair_list()
    pu = np.ascontiguousarray(pairs[:, 0])
    pv = np.ascontiguousarray(pairs[:, 1])
    stkey = colcode[pu] + 27 * colcode[pv]
    hist = _kernels.survey_join(pu, pv, ok0, stkey, 0, len(pairs), stride)
    total = int(hist.sum())
    passed = int(np.einsum("ij,ji->", hist, lutm))
    failures = []
    if passed != total:
        bad = (lutm.T == 0).reshape(-1)  # every walked code has a count
        for rows, qs in _kernels.survey_walk(pu, pv, ok0, 0, len(pairs), stride):
            hit = np.flatnonzero(bad[stkey[rows] * 729 + stkey[qs]])[:20 - len(failures)]
            failures.extend(
                {
                    "u": list(septuple_from_index(int(pu[r]))),
                    "v": list(septuple_from_index(int(pv[r]))),
                    "s": list(septuple_from_index(int(pu[q]))),
                    "t": list(septuple_from_index(int(pv[q]))),
                }
                for r, q in zip(rows[hit], qs[hit])
            )
            if len(failures) == 20:
                break
    return {
        "d": DIM,
        "total": total,
        "passed": passed,
        "failed": total - passed,
        "failures": failures,
        "pairs": len(pairs),
        "stride": stride,
        "scope": SCOPE,
    }
