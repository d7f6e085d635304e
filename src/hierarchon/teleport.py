"""Exact simulation of X-teleportation and the semi-Clifford magic state gadget.

Measurement is exhaustive branch projection: the post-measurement state is
computed for every outcome J, so one run covers all d branches and nothing is
sampled.  States are exact columns, kept unnormalised; two branches agree
when they differ by a nonzero scalar, tested by exactmat.equal_up_to_phase.
"""

import random
from functools import lru_cache

import numpy as np

from .cyclo import CycloScalar
from .exactmat import ExactMatrix, ScaledUnitary, equal_up_to_phase, frozen, matmul_many, powers
from .hierarchy import enumerate_level
from .phasespace import pauli_x, to_matrix
from .semiclifford import diagonalize, find_witness


class StateVec:
    """Unnormalised state over one or two wires: one nonzero exact column.

    amplitudes is either that (dim, 1) ExactMatrix or a sequence of scalars.
    """

    def __init__(self, d, amplitudes):
        if isinstance(amplitudes, ExactMatrix):
            col = amplitudes
        else:
            amps = list(amplitudes)
            if not amps:
                raise ValueError("empty state")
            col = ExactMatrix.from_scalars(d, [[a] for a in amps])
        if col.is_zero():
            raise ValueError("state is identically zero")
        self.d = d
        self.col = col

    @property
    def amplitudes(self):
        return tuple(self.col.entry(i, 0) for i in range(len(self)))

    def __len__(self):
        return self.col.shape[0]

    def __eq__(self, other):
        return isinstance(other, StateVec) and self.d == other.d and self.col == other.col

    @classmethod
    def basis(cls, d, z, wires=1):
        return cls(d, _column(ExactMatrix.identity(d, d ** wires), z))


def _column(M, j):
    return ExactMatrix(M.d, M.m, M.nums[:, j:j + 1], M.den)


def apply(M, psi):
    """M applied to psi with exact scalars; scale factors are kept as-is."""
    return StateVec(psi.d, M @ psi.col)


def proportional(u, v):
    """Whether two states differ by a nonzero scalar."""
    return equal_up_to_phase(u.col, v.col)


@lru_cache(maxsize=None)
def hadamard(d):
    """The scaled discrete Fourier transform; the unitary is this over sqrt d.

    Built once per d and shared, so the matrix is read-only.
    """
    w = CycloScalar.omega(d)
    grid = [[w ** (z * y) for y in range(d)] for z in range(d)]
    return frozen(ExactMatrix.from_scalars(d, grid))


def x_teleport(psi):
    """Teleport one qudit through a fresh ancilla, one output per outcome.

    This is the magic-state gadget with identity factors: the ancilla on
    wire 1 becomes the output, the input wire is measured, and outcome J's
    correction X**-J is folded in, so every returned branch is proportional
    to the input.  A branch with no amplitude comes back as None.
    """
    return gadget_run(GadgetSpec.identity(psi.d), psi)


class GadgetSpec:
    """The three factors of a semi-Clifford gate plus derived gadget data.

    c1 and c2 are the Clifford sides (scaled unitaries), core the diagonal
    middle factor.  The measurement correction follows from the factors, so
    it is computed rather than stored.
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

    def correction(self):
        """The outcome-1 correction; outcome J takes its J-th power."""
        xinv = to_matrix(pauli_x(self.d, 1, 1).inverse())
        c1 = self.c1.mat
        raw = c1 @ self.core @ xinv @ self.core.dagger() @ c1.dagger()
        return ScaledUnitary(raw, self.c1.scale2 * self.c1.scale2)


def gadget_run(spec, psi):
    """Run the magic-state circuit for every outcome J.

    Wire 1 carries the magic state w1; the input enters on wire 2 as w2,
    through C2 and two Fourier layers.  After the controlled X, outcome J
    leaves wire 1 in w1[z] w2[J - z]: column J of diag(w1) times the
    circulant of w2.  As w1 is the diagonal core on the all-ones |+>,
    diag(w1) is the core itself.  Every branch is then
    followed by C1 and the J-th power of the correction, landing it on the
    implemented gate's output.
    """
    d = spec.d
    if len(psi) != d:
        raise ValueError("gadget_run takes a single-wire state")
    if not spec.core.is_diagonal():
        raise ValueError("gadget requires diagonal core")
    H = hadamard(d)
    w2 = H @ (H @ (spec.c2.mat @ psi.col))
    shift = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    circulant = ExactMatrix(d, w2.m, w2.nums[shift, 0], w2.den)
    out = spec.c1.mat @ (spec.core @ circulant)
    (fixes,) = powers([spec.correction().mat], d)
    branches = matmul_many(fixes, [_column(out, J) for J in range(d)])
    return [None if b.is_zero() else StateVec(d, b) for b in branches]


def _random_state(d, m, rng):
    while True:
        amps = []
        for _ in range(d):
            c = rng.randrange(-2, 3)
            e = rng.randrange(d ** m)
            amps.append(CycloScalar.zeta(d, m, e) * c)
        if not all(a.is_zero() for a in amps):
            return StateVec(d, amps)


def verify_gadget(d=3, samples=100, seed=0, catalog=None, states=1):
    """Gadget check over random third-level gates and random input states.

    Every sampled gate is diagonalised, run through the circuit on `states`
    random states, and each measurement branch is compared against the
    sampled gate acting directly, not the product of the circuit's own
    factors.  The report counts branches and lists any failures.
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
            target = apply(su.mat, psi)
            for J, branch in enumerate(gadget_run(spec, psi)):
                checked += 1
                if branch is None:
                    failures.append({"sample": i, "branch": J, "reason": "empty"})
                elif not proportional(branch, target):
                    failures.append({"sample": i, "branch": J, "reason": "mismatch"})
    return {"d": d, "samples": samples, "branches_checked": checked, "failures": failures}
