"""Conjugate tuples and the discrete Stone-von-Neumann reconstruction.

A conjugate tuple is the image of (Z_1, X_1, ..., Z_n, X_n) under conjugation
by a unitary: n pairs (U_i, V_i) of exact unitaries obeying the same Weyl
relations.  reconstruct() rebuilds that unitary, up to phase, as the matrix
whose column z is V_1^z1 ... V_n^zn u0 with u0 spanning the joint fixed space
of the U_i.  The result is kept unnormalised: scale2 = |u0|^2 stays rational
while the true normaliser 1/sqrt(scale2) usually does not exist in the field.

The columns of the product of the orbit sums I + U_i + ... + U_i^(d-1) all
lie in that fixed space, and u0 is the first nonzero one of rational norm.
On one wire the search goes on through the columns of the orbit sum times a
monomialising Clifford frame; a tuple with neither is rotated by a
symplectic change of its pair.
"""

import math
import operator
from functools import lru_cache, reduce

import numpy as np

from .cyclo import max_abs, wide
from .exactmat import ExactMatrix, ScaledUnitary, conjugate_action, orbit_sum, powers


class ConjugateTuple:
    __slots__ = ("d", "n", "pairs")

    def __init__(self, d, n, pairs):
        if len(pairs) != n or n < 1:
            raise ValueError("need one (U, V) pair per wire")
        self.d = d
        self.n = n
        self.pairs = [(U, V) for U, V in pairs]

    def members(self):
        out = []
        for U, V in self.pairs:
            out.extend((U, V))
        return out

    def validate(self):
        """Exact unitarity, order d, and the Weyl commutation pattern."""
        d = self.d
        for M in self.members():
            if not (M @ M.dagger()).is_identity():
                raise ValueError("tuple member is not an exact unitary")
            if not M.pow_int(d).is_identity():
                raise ValueError("tuple member does not have order d")
        for i, (Ui, Vi) in enumerate(self.pairs):
            if not _omega_commutes(Ui, Vi, 1, d):
                raise ValueError("pair %d breaks U V = omega V U" % (i + 1))
            for j, (Uj, Vj) in enumerate(self.pairs):
                if i == j:
                    continue
                for A, B in ((Ui, Uj), (Ui, Vj), (Vi, Vj)):
                    if not _omega_commutes(A, B, 0, d):
                        raise ValueError(
                            "pairs %d,%d break cross commutation" % (i + 1, j + 1)
                        )
        return True


def _omega_commutes(A, B, e, d):
    """A B == omega^e B A, exactly."""
    lhs = A @ B
    rhs = B @ A
    if e % d:
        rhs = rhs.scale_zeta((e % d) * (rhs.cond.c // d))
    return lhs == rhs


def _hstack(mats):
    m = max(x.m for x in mats)
    mats = [x.promote(m) for x in mats]
    den = math.lcm(*(x.den for x in mats))
    scales = [den // x.den for x in mats]
    bound = max((max_abs(x.nums) * f for x, f in zip(mats, scales) if f != 1), default=0)
    arrs = [a * f for a, f in zip(wide(bound, *(x.nums for x in mats)), scales)]
    return ExactMatrix(mats[0].d, m, np.concatenate(arrs, axis=1), den)


def _rational_column(M):
    """(u, |u|^2) for the first nonzero column u of M of rational norm, or None."""
    for j in range(M.shape[1]):
        col = M.nums[:, j: j + 1]
        if not np.any(col != 0):
            continue
        u = ExactMatrix(M.d, M.m, col, M.den)
        norm2 = (u.dagger() @ u).entry(0, 0)
        if norm2.is_rational():
            return u, norm2
    return None


def _rational_fixed_vector(T, prod):
    """The start of a one-wire tuple from the columns of prod C.

    prod is I + U + ... + U^(d-1) for the first member U.  The conjugation
    action of an order-d gate on phase points is unipotent, so it fixes a
    direction f, and a Clifford frame C sending Z to W(f) turns U into
    X^s D.  Column 0 of prod C is then C times the orbit sum of |0>, a
    cycle of unit-modulus partial products of D, so its norm
    scale2(C) |v|^2 is rational.
    """
    from .phasespace import (
        pauli_x,
        pauli_z,
        recognize_pauli,
        synthesize_clifford,
        to_matrix,
        weyl,
    )

    fail = ValueError("reconstruction norm is not rational")
    d = T.d
    U = T.pairs[0][0]
    su = ScaledUnitary.exact(U)
    imgs = []
    # the Z image alone decides most failures, so X is conjugated only after it
    for W in (pauli_z(d, 1, 1), pauli_x(d, 1, 1)):
        img = recognize_pauli(conjugate_action(su, to_matrix(W)), up_to_phase=True)
        if img is None:
            raise fail
        imgs.append(img)
    # columns of the induced map on phase points, minus the identity
    A = np.array(
        [
            [imgs[0].p[0] - 1, imgs[1].p[0]],
            [imgs[0].q[0], imgs[1].q[0] - 1],
        ]
    ) % d
    # U of order d makes A nilpotent, so f, orthogonal to A's first nonzero
    # row, lies in A's kernel; the check on the start below decides for any U
    f = (1, 0)
    for a, b in A:
        if a % d or b % d:
            f = (b % d, (-a) % d)
            break
    C = synthesize_clifford([weyl(d, (f[0],), (f[1],))])
    start = _rational_column(prod @ C.mat)
    if start is None or U @ start[0] != start[0]:
        raise fail
    return start


def _weyl_word(Up, Vp, a, b):
    """omega^(-2^-1 ab) U^a V^b, the tuple image of W(a,b), from the powers of U and V."""
    from .phasespace import half

    d = len(Up)
    out = Up[a % d] @ Vp[b % d]
    e = (-half(d) * a * b) % d
    if e:
        out = out.scale_zeta(e * (out.cond.c // d))
    return out


@lru_cache(maxsize=None)
def _weyl_pair_reconstruction(d, a, b):
    """The exact Clifford of the direction (a, b), as _rotated_reconstruct needs it.

    Every such Weyl tuple has a projector start, so this never rotates.
    """
    from .phasespace import to_matrix, weyl

    x, y = (d - 1, 0) if a == 0 else (0, 1)
    WA = to_matrix(weyl(d, (a,), (b,)))
    WB = to_matrix(weyl(d, (x,), (y,)))
    return reconstruct(ConjugateTuple(d, 1, [(WA, WB)]))


def _rotated_reconstruct(T, memo):
    """Reconstruct through a symplectic change of the tuple.

    The pair (U, V) is traded for its image under R in SL(2, Z_d), picked so
    the new first member has a tame fixed space; the result is the original
    gate times the exact Clifford of R, which a right factor R^-1 removes.
    The Weyl-calculus phases make the rotated pair a genuine tuple, so no
    phase bookkeeping survives to the caller.
    """
    d = T.d
    Up, Vp = powers(T.pairs[0], d)
    for a, b in [(0, 1)] + [(1, t) for t in range(1, d)]:
        x, y = (d - 1, 0) if a == 0 else (0, 1)
        rotated = ConjugateTuple(d, 1, [(_weyl_word(Up, Vp, a, b), _weyl_word(Up, Vp, x, y))])
        start = _start(rotated, memo)
        if start is None:
            continue
        G2 = _columns(rotated, start)
        TR = _weyl_pair_reconstruction(d, a, b)
        return ScaledUnitary(G2.mat @ TR.mat.dagger(), G2.scale2 * TR.scale2)
    raise ValueError("reconstruction norm is not rational")


def _start(T, memo):
    """(u0, |u0|^2) spanning the joint fixed space of the first members.

    None when neither a projector column nor the monomialising frame gives
    a vector of rational norm, so that only a rotation of the tuple can.
    Found once per distinct set of first members in memo.
    """
    key = tuple((U.m, U.to_key()) for U, _ in T.pairs)
    if key in memo:
        return memo[key]
    prod = reduce(operator.matmul, [orbit_sum(U, T.d) for U, _ in T.pairs])
    # prod is (up to scale) the rank-1 projector onto the joint fixed space;
    # the first column whose norm is rational is the usual start
    if prod.is_zero():
        raise ValueError("not a conjugate tuple: joint fixed space is empty")
    start = _rational_column(prod)
    if start is None and T.n == 1:
        try:
            start = _rational_fixed_vector(T, prod)
        except ValueError:
            pass
    memo[key] = start
    return start


def _columns(T, start):
    """The gate whose column z is V_1^z1 ... V_n^zn u0, with scale2 |u0|^2."""
    u0, norm2 = start
    block = u0
    for i in range(T.n - 1, -1, -1):
        V = T.pairs[i][1]
        blocks = [block]
        for _ in range(T.d - 1):
            blocks.append(V @ blocks[-1])
        block = _hstack(blocks)
    return ScaledUnitary(block, norm2.as_fraction())


def reconstruct(T, memo=None):
    """The unique-up-to-phase unitary with the given conjugation behaviour.

    The start u0 depends on the first members U_i alone.  A caller
    reconstructing many tuples that share first members passes one dict as
    memo, and u0 is then found once per distinct set of first members.
    A one-wire tuple with no rational start is rotated.
    """
    memo = {} if memo is None else memo
    start = _start(T, memo)
    if start is not None:
        return _columns(T, start)
    if T.n != 1:
        raise ValueError("reconstruction norm is not rational")
    return _rotated_reconstruct(T, memo)


def tuple_of(G, n):
    """The conjugate tuple (G Z_i G*, G X_i G*) of a ScaledUnitary."""
    from .phasespace import pauli_x, pauli_z, to_matrix

    d = G.d
    pairs = []
    for i in range(1, n + 1):
        U = conjugate_action(G, to_matrix(pauli_z(d, n, i)))
        V = conjugate_action(G, to_matrix(pauli_x(d, n, i)))
        pairs.append((U, V))
    return ConjugateTuple(d, n, pairs)
