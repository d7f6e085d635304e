"""Hot integer kernels, each with one numpy body.

The group-ring product contracts over leading batch axes, on int64 or on
Python-object tensors alike; fingerprints evaluate coefficient tensors of
either dtype mod p; the two-qutrit survey walks the conjugate-pair list as
a sparse (CSR) join, bins the matches into a histogram and reads the
Lagrangian-semibasis table, built from its closed form.
``isotropic_plane_witness`` reads the 40 Lagrangian planes that
``phasespace.enumerate_semibases`` lists and returns the first one a matrix
annihilates; taken straight from the definition, it is the oracle the
table is tested against.
"""

from functools import lru_cache

import numpy as np

# read by the benchmark's environment probe; the kernels have no numba lane
USE_NUMBA = False

# cells the circulant operand of one step of the product may hold (2 MB at
# int64), so neither a long batch nor a large conductor materialises at once
_CHUNK_CELLS = 1 << 18


# ---------------------------------------------------------------------------
# group-ring matrix product: entries are integer coefficient vectors over
# exponents [0, phi) of zeta_c; the product accumulates the cyclic convolution
# into a full length-c vector (reduction happens in Conductor.reduce).


@lru_cache(maxsize=None)
def _circulant_index(phi, c):
    """(phi, c) table of (w - u) mod c, or the zero pad slot phi past phi - 1."""
    diff = (np.arange(c)[None, :] - np.arange(phi)[:, None]) % c
    return np.where(diff < phi, diff, phi)


def _contract(A, B, c):
    """(n, r, m, phi) x (n, m, s, phi) -> unreduced (n, r, s, c).

    B is spread to its circulant form Bc[j, k, u, w] = B[j, k, (w - u) mod c],
    so the product is one integer contraction of A over (j, u): phi * c
    multiply-adds per entry pair.  Batch items, and for large conductors
    blocks of the exponent u, are cut so one step's Bc stays within
    _CHUNK_CELLS.  The arrays are allocated in the inputs' common dtype, so
    Python-object tensors run through the same contraction as int64 ones.
    """
    n, r, m, phi = A.shape
    s = B.shape[2]
    per_u = m * s * c
    ub = max(1, min(phi, _CHUNK_CELLS // per_u))
    step = max(1, _CHUNK_CELLS // (per_u * phi)) if ub == phi else 1
    idx = _circulant_index(phi, c)
    dtype = np.result_type(A, B)
    padded = np.zeros((n, m, s, phi + 1), dtype=dtype)
    padded[..., :phi] = B

    def part(lo, hi, u0, u1):
        Bc = padded[lo:hi][..., idx[u0:u1]].transpose(0, 1, 3, 2, 4)
        width = m * (u1 - u0)
        return A[lo:hi, :, :, u0:u1].reshape(hi - lo, r, width) @ Bc.reshape(hi - lo, width, s * c)

    if step >= n and ub == phi:
        return part(0, n, 0, phi).reshape(n, r, s, c)
    out = np.zeros((n, r, s * c), dtype=dtype)
    for lo in range(0, n, step):
        for u0 in range(0, phi, ub):
            out[lo:lo + step] += part(lo, min(n, lo + step), u0, min(phi, u0 + ub))
    return out.reshape(n, r, s, c)


def gr_matmul_batch(A, B, c):
    """(..., r, m, phi) x (..., m, s, phi) -> unreduced (..., r, s, c).

    Leading axes broadcast as in numpy.matmul; _contract bounds the
    intermediates.  For int64 inputs the caller guarantees the sums fit in
    int64 (cyclo.wide makes that choice); object inputs are exact.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    r, m, phi = A.shape[-3:]
    s = B.shape[-2]
    lead = A.shape[:-3]
    if B.shape[:-3] != lead:
        lead = np.broadcast_shapes(lead, B.shape[:-3])
        A = np.broadcast_to(A, lead + A.shape[-3:])
        B = np.broadcast_to(B, lead + B.shape[-3:])
    out = _contract(A.reshape(-1, r, m, phi), B.reshape(-1, m, s, phi), c)
    return out.reshape(lead + (r, s, c))


def gr_matmul(A, B, c):
    """(r,m,phi) x (m,s,phi) -> unreduced (r,s,c) group-ring product."""
    return _contract(A[None], B[None], c)[0]


# ---------------------------------------------------------------------------
# batched fingerprint evaluation: map coefficient tensors to GF(p) matrices.

def fp_eval(nums, powvec, p):
    """Evaluate zeta -> g mod p over the last axis, as int64 for any input dtype.

    The residues are below p, so the sum runs exactly in int64 even when
    nums holds Python objects.
    """
    return (nums % p).astype(np.int64, copy=False) @ (powvec % p) % p


# ---------------------------------------------------------------------------
# two-qutrit survey: decide whether the kernel of a 3x4 matrix over Z_3
# contains a Lagrangian plane (two independent vectors with vanishing
# symplectic product) for one matrix; semibasis_lut below tabulates the
# answer for all 3^12 matrices and is tested against this witness.

@lru_cache(maxsize=None)
def _lagrangian_planes():
    """(80, 4) array: the 40 two-qutrit Lagrangian planes, two rows each.

    Rows are (p1, q1, p2, q2), in the order of
    phasespace.enumerate_semibases(3, 2), each plane's Z-first pair reversed
    so the all-Z plane reads Z1, Z2.
    """
    from .phasespace import enumerate_semibases  # phasespace imports this module

    planes = [
        [(p[0], q[0], p[1], q[1]) for p, q in basis[::-1]]
        for basis in enumerate_semibases(3, 2)
    ]
    return np.array(planes, dtype=np.int64).reshape(-1, 4)


def isotropic_plane_witness(mat):
    """The first Lagrangian plane mat annihilates mod 3, as two vectors, or None."""
    planes = _lagrangian_planes()
    killed = ~((np.asarray(mat, dtype=np.int64) @ planes.T) % 3).any(axis=0)
    hit = np.flatnonzero(killed.reshape(-1, 2).all(axis=1))
    if not hit.size:
        return None
    u, v = planes[2 * hit[0]:2 * hit[0] + 2].tolist()
    return tuple(u), tuple(v)


# ---------------------------------------------------------------------------
# two-qutrit survey join: row r of the conjugate-pair list is matched against
# the candidate pairs q whose members both commute exactly with both members
# of row r; the matches land in a histogram bucketed by the packed quadratic
# codes of (r, q).

# rows of the pair list one step of the survey walk expands: the qutrit pair
# list has at most 2,916 candidates a row, so a step has at most 46,656 and
# each of its index arrays stays within 0.37 MB at int64
_WALK_ROWS = 16


def survey_walk(pairu, pairv, ok0, start, stop, stride):
    """Yield (rows, q) index arrays: the pairs q matching each row r.

    Rows are range(start, stop, stride).  A candidate q matches row r when
    both of its members commute exactly with both members of r, i.e. lie in
    r's valid set ok0[pairu[r]] & ok0[pairv[r]].  ok0 is a 0/1 table, read
    in place as bool when it is uint8.  The pairs are walked as a CSR list
    by first member (pairu must be non-decreasing), so only the neighbours
    of a row's valid septuples are tested.  Across the yielded blocks the
    matches come out by row, then by q, both ascending.
    """
    ok0 = np.asarray(ok0, dtype=np.uint8).view(bool)
    if np.any(pairu[1:] < pairu[:-1]):
        raise ValueError("pairu must be non-decreasing")
    n = len(ok0)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairu, minlength=n), out=offsets[1:])
    span = _WALK_ROWS * stride
    for lo in range(start, stop, span):
        block = np.arange(lo, min(stop, lo + span), stride)
        valid = (ok0[pairu[block]] & ok0[pairv[block]]).reshape(-1)
        cell = np.flatnonzero(valid)  # b * n + s for each valid septuple s of row b
        s = cell % n
        first, deg = offsets[s], offsets[s + 1] - offsets[s]
        # candidate q runs over first .. first + deg - 1 for each valid cell
        q = np.arange(deg.sum()) + np.repeat(first - (np.cumsum(deg) - deg), deg)
        base = np.repeat(cell - s, deg)
        hit = np.flatnonzero(valid[base + pairv[q]])
        yield block[base[hit] // n], q[hit]


def survey_join(pairu, pairv, ok0, stkey, start, stop, stride):
    """(729, 729) histogram [prefix, suffix] over rows range(start, stop, stride).

    Each walk block's codes are added in place, so no block pays a pass
    over all 531,441 bins.
    """
    hist = np.zeros(729 * 729, dtype=np.int64)
    for rows, q in survey_walk(pairu, pairv, ok0, start, stop, stride):
        np.add.at(hist, stkey[rows] * 729 + stkey[q], 1)
    return hist.reshape(729, 729)


def semibasis_lut():
    """uint8 truth table over packed 3x4 matrices (column-major trits).

    The kernel of M holds a Lagrangian plane exactly when the row space of M
    is isotropic, M J M^T = 0 mod 3, with J pairing columns (0, 1) and
    (2, 3), the (p1, q1) and (p2, q2) of the witness's vectors.  At rank 3 the kernel is a line and no 3-space is
    isotropic; at rank 2 the symplectic complement of the kernel is J times
    the row space, so the kernel is Lagrangian exactly when the row space is
    isotropic; at rank <= 1 the kernel always holds a plane and the form
    vanishes.  The form splits over the column pairs: with
    code = prefix + 729 * suffix, each half packing the columns (u, v) as
    u + 27 * v, and F(u, v) the three entries u_i v_j - v_i u_j (i < j),
    the entry is 1 exactly when F(prefix) + F(suffix) = 0 mod 3.
    """
    pair = np.arange(729, dtype=np.int16)[:, None]
    trits = pair // 3 ** np.arange(6, dtype=np.int16) % 3
    u, v = trits[:, :3], trits[:, 3:]
    i, j = [0, 0, 1], [1, 2, 2]
    form = ((u[:, i] * v[:, j] - v[:, i] * u[:, j]) % 3).astype(np.int8)
    table = ((form[:, None, :] + form[None, :, :]) % 3 == 0).all(axis=2)  # [suffix, prefix]
    return table.astype(np.uint8).reshape(-1)
