"""Conjugate tuples and the discrete Stone-von-Neumann reconstruction.

A conjugate tuple is the image of (Z_1, X_1, ..., Z_n, X_n) under conjugation
by a unitary: n pairs (U_i, V_i) of exact unitaries obeying the same Weyl
relations.  reconstruct() rebuilds that unitary, up to phase, as the matrix
whose column z is V_1^z1 ... V_n^zn u0 with u0 spanning the joint fixed space
of the U_i.  The result is kept unnormalised: scale2 = |u0|^2 stays rational
while the true normaliser 1/sqrt(scale2) usually does not exist in the field.
"""

import math
from functools import lru_cache

import numpy as np

from .cyclo import CycloScalar, max_abs, wide
from .exactmat import ExactMatrix, ScaledUnitary, conjugate_action


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


def _rational_fixed_vector(T):
    """A fixed vector of U_1 with rational norm, via a monomialising frame.

    The conjugation action of an order-d gate on phase points is unipotent,
    so it fixes a direction f.  A Clifford frame C sending Z to W(f) turns
    the gate into X^s D, whose fixed vector is a cycle of partial products
    of the diagonal, all of unit modulus.  Pulling that vector back through
    C keeps the norm rational: |C v|^2 = scale2(C) |v|^2.
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
    if T.n != 1:
        raise fail
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
    f = (1, 0)
    for a, b in A:
        if a % d or b % d:
            f = (b % d, (-a) % d)
            break
    if np.any(A @ f % d):
        raise fail
    C = synthesize_clifford([weyl(d, (f[0],), (f[1],))])
    Cm = C.mat
    M = conjugate_action(ScaledUnitary(Cm.dagger(), C.scale2), U)
    # M must now be X^s times a diagonal of roots of unity
    s = None
    for z in range(d):
        rows = [r for r in range(d) if np.any(M.nums[r, z] != 0)]
        if len(rows) != 1:
            raise fail
        if s is None:
            s = rows[0] % d
        elif rows[0] != (z + s) % d:
            raise fail
    one = CycloScalar.from_rational(d, 1)
    ident = ExactMatrix.identity(d, d, M.m)

    def basis_col(z):
        return ExactMatrix(d, M.m, ident.nums[:, z: z + 1].copy(), 1)

    if s == 0:
        v = next((basis_col(z) for z in range(d) if M.entry(z, z) == one), None)
        if v is None:
            raise fail
    else:
        v = basis_col(0)
        acc = one
        z = 0
        for _ in range(d - 1):
            acc = (acc * M.entry((z + s) % d, z)).demote_min()
            z = (z + s) % d
            v = v + basis_col(z).scale(acc)
        if (acc * M.entry(0, z)).demote_min() != one:
            raise fail
    u0 = Cm @ v
    if U @ u0 != u0:
        raise fail
    return u0


def _weyl_word(T, a, b):
    """omega^(-2^-1 ab) U^a V^b: the tuple image of the Weyl operator W(a,b)."""
    from .phasespace import half

    d = T.d
    U, V = T.pairs[0]
    out = ExactMatrix.identity(d, d, U.m)
    for _ in range(a % d):
        out = out @ U
    for _ in range(b % d):
        out = out @ V
    e = (-half(d) * a * b) % d
    if e:
        out = out.scale_zeta(e * (out.cond.c // d))
    return out


@lru_cache(maxsize=None)
def _weyl_pair_reconstruction(d, a, b):
    """The exact Clifford of the direction (a, b), as _rotated_reconstruct needs it."""
    from .phasespace import to_matrix, weyl

    x, y = (d - 1, 0) if a == 0 else (0, 1)
    WA = to_matrix(weyl(d, (a,), (b,)))
    WB = to_matrix(weyl(d, (x,), (y,)))
    return reconstruct(ConjugateTuple(d, 1, [(WA, WB)]), _rotate=False)


def _rotated_reconstruct(T, memo=None):
    """Reconstruct through a symplectic change of the tuple.

    The pair (U, V) is traded for its image under R in SL(2, Z_d), picked so
    the new first member has a tame fixed space; the result is the original
    gate times the exact Clifford of R, which a right factor R^-1 removes.
    The Weyl-calculus phases make the rotated pair a genuine tuple, so no
    phase bookkeeping survives to the caller.
    """
    d = T.d
    directions = [(0, 1)] + [(1, t) for t in range(1, d)]
    for a, b in directions:
        x, y = ((d - 1, 0) if a == 0 else (0, 1))
        rotated = ConjugateTuple(d, 1, [(_weyl_word(T, a, b), _weyl_word(T, x, y))])
        try:
            G2 = reconstruct(rotated, _rotate=False, memo=memo)
        except ValueError:
            continue
        TR = _weyl_pair_reconstruction(d, a, b)
        return ScaledUnitary(G2.mat @ TR.mat.dagger(), G2.scale2 * TR.scale2)
    raise ValueError("reconstruction norm is not rational")


def _start(T):
    """(u0, |u0|^2) spanning the joint fixed space of the first members.

    None when neither a projector column nor the monomialising frame gives
    a vector of rational norm, so that only a rotation of the tuple can.
    """
    d, n = T.d, T.n
    dim = d ** n
    prod = None
    for U, _ in T.pairs:
        acc = ExactMatrix.identity(d, dim, U.m)
        power = acc
        for _ in range(d - 1):
            power = power @ U
            acc = acc + power
        prod = acc if prod is None else prod @ acc
    # prod is (up to scale) the rank-1 projector onto the joint fixed space;
    # prefer the first column whose norm is rational, the usual case
    u0 = None
    seen = False
    for j in range(dim):
        col = prod.nums[:, j: j + 1]
        if not np.any(col != 0):
            continue
        seen = True
        cand = ExactMatrix(prod.d, prod.m, col, prod.den)
        if (cand.dagger() @ cand).entry(0, 0).is_rational():
            u0 = cand
            break
    if not seen:
        raise ValueError("not a conjugate tuple: joint fixed space is empty")
    if u0 is None and n == 1:
        try:
            u0 = _rational_fixed_vector(T)
        except ValueError:
            u0 = None
    if u0 is None:
        return None
    return u0, (u0.dagger() @ u0).entry(0, 0)


def reconstruct(T, _rotate=True, memo=None):
    """The unique-up-to-phase unitary with the given conjugation behaviour.

    The fixed vector u0 depends on the first members U_i alone.  A caller
    reconstructing many tuples that share first members passes one dict as
    memo, and u0 is then found once per distinct set of first members.
    """
    d, n = T.d, T.n
    if memo is None:
        start = _start(T)
    else:
        key = tuple((U.m, U.to_key()) for U, _ in T.pairs)
        if key not in memo:
            memo[key] = _start(T)
        start = memo[key]
    if start is None:
        if not (_rotate and n == 1):
            raise ValueError("reconstruction norm is not rational")
        return _rotated_reconstruct(T, memo)
    u0, norm2 = start
    block = u0
    for i in range(n - 1, -1, -1):
        V = T.pairs[i][1]
        blocks = [block]
        cur = block
        for _ in range(d - 1):
            cur = V @ cur
            blocks.append(cur)
        block = _hstack(blocks)
    if not norm2.is_rational():
        raise ValueError("reconstruction norm is not rational")
    return ScaledUnitary(block, norm2.as_fraction())


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
