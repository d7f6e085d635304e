"""Exact simulation of X-teleportation and the semi-Clifford magic state gadget.

Measurement is exhaustive branch projection: the post-measurement state is
computed for every outcome J, so one run covers all d branches and nothing is
sampled.  States stay unnormalised; two branches agree when they differ by a
nonzero scalar, tested through vanishing 2x2 minors.
"""

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cyclo import CycloScalar, conductor
from .exactmat import ExactMatrix, ScaledUnitary, frozen
from .hierarchy import enumerate_level
from .phasespace import pauli_x, to_matrix
from .semiclifford import diagonalize, find_witness


class StateVec:
    """Unnormalised state over one or two wires: a tuple of exact amplitudes."""

    def __init__(self, d, amplitudes):
        amps = tuple(amplitudes)
        if not amps:
            raise ValueError("empty state")
        if all(a.is_zero() for a in amps):
            raise ValueError("state is identically zero")
        self.d = d
        self.amplitudes = amps

    def __len__(self):
        return len(self.amplitudes)

    def __eq__(self, other):
        return (
            isinstance(other, StateVec)
            and self.d == other.d
            and self.amplitudes == other.amplitudes
        )

    @classmethod
    def basis(cls, d, z, wires=1):
        dim = d ** wires
        amps = [_zero(d)] * dim
        amps[z] = CycloScalar.from_rational(d, Fraction(1))
        return cls(d, amps)


def _zero(d):
    return CycloScalar.from_rational(d, Fraction(0))


def _apply(M, amps, d):
    # one exact product of M against the amplitudes as a column
    out = M @ ExactMatrix.from_scalars(d, [[a] for a in amps])
    return [out.entry(i, 0) for i in range(len(amps))]


def apply(M, psi):
    """M applied to psi with exact scalars; scale factors are kept as-is."""
    return StateVec(psi.d, _apply(M, psi.amplitudes, psi.d))


def proportional(u, v):
    """Whether two states differ by a nonzero scalar: all 2x2 minors vanish."""
    a, b = u.amplitudes, v.amplitudes
    if len(a) != len(b):
        return False
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if not a[i] * b[j] == a[j] * b[i]:
                return False
    # states are never all-zero, so rank one really means a nonzero ratio
    return True


@lru_cache(maxsize=None)
def hadamard(d):
    """The scaled discrete Fourier transform; the unitary is this over sqrt d.

    Built once per d and shared, so the matrix is read-only.
    """
    w = CycloScalar.omega(d)
    grid = [[w ** (z * y) for y in range(d)] for z in range(d)]
    return frozen(ExactMatrix.from_scalars(d, grid))


def _plus(d):
    # H|0> is the first column of H
    H = hadamard(d)
    return [H.entry(z, 0) for z in range(d)]


def controlled_x(d):
    """|z1, z2> -> |z1, z1 + z2> with wire 1 the control and most significant."""
    phi = conductor(d, 1).phi
    nums = np.zeros((d * d, d * d, phi), dtype=object)
    for z1 in range(d):
        for z2 in range(d):
            nums[z1 * d + (z1 + z2) % d, z1 * d + z2, 0] = 1
    return ExactMatrix(d, 1, nums)


def _pair_state(w1, w2, d):
    return [w1[z1] * w2[z2] for z1 in range(d) for z2 in range(d)]


def _cx_permute(amps, d):
    out = [None] * (d * d)
    for z1 in range(d):
        for z2 in range(d):
            out[z1 * d + (z1 + z2) % d] = amps[z1 * d + z2]
    return out


def _project_second(amps, d, J):
    return [amps[z1 * d + J] for z1 in range(d)]


def x_teleport(psi):
    """Teleport one qudit through a fresh ancilla, one output per outcome.

    The ancilla on wire 1 becomes the output; the input wire is measured.
    Outcome J calls for the correction X**-J, folded in here, so every
    returned branch is proportional to the input.  A branch with no
    amplitude comes back as None.
    """
    d = psi.d
    if len(psi) != d:
        raise ValueError("x_teleport takes a single-wire state")
    H = hadamard(d)
    data = _apply(H, _apply(H, psi.amplitudes, d), d)
    pair = _cx_permute(_pair_state(_plus(d), data, d), d)
    branches = []
    for J in range(d):
        raw = _project_second(pair, d, J)
        if all(a.is_zero() for a in raw):
            branches.append(None)
            continue
        # X**-J sends |z+J| amplitudes down to |z|
        branches.append(StateVec(d, [raw[(z + J) % d] for z in range(d)]))
    return branches


class GadgetSpec:
    """The three factors of a semi-Clifford gate plus derived gadget data.

    c1 and c2 are the Clifford sides (scaled unitaries), core the diagonal
    middle factor.  The magic state and the measurement correction follow
    from the factors, so they are computed rather than stored.
    """

    def __init__(self, c1, core, c2):
        self.c1 = c1
        self.core = core
        self.c2 = c2
        self.d = core.d

    @classmethod
    def identity(cls, d):
        eye = ExactMatrix.identity(d, d, 1)
        return cls(ScaledUnitary.exact(eye), eye, ScaledUnitary.exact(eye))

    @classmethod
    def from_diagonalisation(cls, split):
        return cls(split.c1, split.diag, split.c2)

    def magic_state(self):
        return StateVec(self.d, _apply(self.core, _plus(self.d), self.d))

    def correction(self):
        """The outcome-1 correction; outcome J takes its J-th power."""
        xinv = to_matrix(pauli_x(self.d, 1, 1).inverse())
        c1 = self.c1.mat
        raw = c1 @ self.core @ xinv @ self.core.dagger() @ c1.dagger()
        return ScaledUnitary(raw, self.c1.scale2 * self.c1.scale2)

    def gate(self):
        """The implemented gate, up to the scale of the Clifford factors."""
        return self.c1.mat @ self.core @ self.c2.mat


def gadget_run(spec, psi):
    """Run the magic-state circuit for every outcome J.

    Wire 1 carries the magic state; the input enters on wire 2 through C2
    and two Fourier layers.  Outcome J is followed by C1 and the J-th power
    of the correction, landing every branch on the implemented gate's output.
    """
    d = spec.d
    if len(psi) != d:
        raise ValueError("gadget_run takes a single-wire state")
    if not spec.core.is_diagonal():
        raise ValueError("gadget requires diagonal core")
    H = hadamard(d)
    w1 = spec.magic_state().amplitudes
    w2 = _apply(H, _apply(H, _apply(spec.c2.mat, psi.amplitudes, d), d), d)
    pair = _cx_permute(_pair_state(w1, w2, d), d)
    fix = spec.correction().mat
    branches = []
    for J in range(d):
        raw = _project_second(pair, d, J)
        if all(a.is_zero() for a in raw):
            branches.append(None)
            continue
        out = _apply(spec.c1.mat, raw, d)
        for _ in range(J):
            out = _apply(fix, out, d)
        branches.append(StateVec(d, out))
    return branches


def _random_state(d, m, rng):
    dim = d
    while True:
        amps = []
        for _ in range(dim):
            c = rng.randrange(-2, 3)
            e = rng.randrange(d ** m)
            amps.append(CycloScalar.zeta(d, m, e) * c)
        if not all(a.is_zero() for a in amps):
            return StateVec(d, amps)


def verify_gadget(d=3, samples=100, seed=0, catalog=None, states=1):
    """Gadget check over random third-level gates and random input states.

    Every sampled gate is diagonalised, run through the circuit on `states`
    random states, and each measurement branch is compared against the gate
    acting directly.  The report counts branches and lists any failures.
    """
    if catalog is None:
        catalog = enumerate_level(d, 1, 3)
    reps = list(catalog.representatives())
    rng = random.Random(seed)
    checked = 0
    failures = []
    for i in range(samples):
        su = reps[rng.randrange(len(reps))]
        witness = find_witness(su)
        if witness is None:
            failures.append({"sample": i, "branch": None, "reason": "no witness"})
            continue
        spec = GadgetSpec.from_diagonalisation(diagonalize(su, witness))
        for _ in range(states):
            psi = _random_state(d, 2, rng)
            target = apply(spec.gate(), psi)
            for J, branch in enumerate(gadget_run(spec, psi)):
                checked += 1
                if branch is None:
                    failures.append({"sample": i, "branch": J, "reason": "empty"})
                elif not proportional(branch, target):
                    failures.append({"sample": i, "branch": J, "reason": "mismatch"})
    return {"d": d, "samples": samples, "branches_checked": checked, "failures": failures}
