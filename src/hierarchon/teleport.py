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
from .phasespace import pauli_x, to_matrix
from .semiclifford import Diagonalisation, diagonalize, find_witness


def state(d, amplitudes):
    """An unnormalised state over one or two wires: a nonzero exact column."""
    amps = list(amplitudes)
    if not amps:
        raise ValueError("empty state")
    psi = ExactMatrix.from_scalars(d, [[a] for a in amps])
    if psi.is_zero():
        raise ValueError("state is identically zero")
    return psi


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
    to the input.
    """
    eye = ScaledUnitary.exact(ExactMatrix.identity(psi.d, psi.d, 1))
    return gadget_run(Diagonalisation(eye, eye.mat, eye), psi)


def correction(split):
    """The outcome-1 correction of split's gadget; outcome J takes its J-th power.

    split is a Diagonalisation: Clifford sides c1 and c2 (scaled unitaries)
    around the diagonal core diag.
    """
    D = split.diag
    xinv = to_matrix(pauli_x(D.d, 1, 1).inverse())
    c1 = split.c1.mat
    raw = c1 @ D @ xinv @ D.dagger() @ c1.dagger()
    return ScaledUnitary(raw, split.c1.scale2 * split.c1.scale2)


def gadget_run(split, psi):
    """Run the magic-state circuit of the Diagonalisation split for every outcome J.

    Wire 1 carries the magic state w1; the input enters on wire 2 as w2,
    through C2 and two Fourier layers.  After the controlled X, outcome J
    leaves wire 1 in w1[z] w2[J - z]: column J of diag(w1) times the
    circulant of w2.  As w1 is the diagonal core on the all-ones |+>,
    diag(w1) is the core itself.  Every branch is then
    followed by C1 and the J-th power of the correction, landing it on the
    implemented gate's output.  Every factor is invertible, so a nonzero
    input leaves no branch zero.
    """
    core = split.diag
    d = core.d
    if psi.shape[0] != d:
        raise ValueError("gadget_run takes a single-wire state")
    if not core.is_diagonal():
        raise ValueError("gadget requires diagonal core")
    if psi.is_zero():
        raise ValueError("state is identically zero")
    H = hadamard(d)
    w2 = H @ (H @ (split.c2.mat @ psi))
    shift = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    circulant = ExactMatrix(d, w2.m, w2.nums[shift, 0], w2.den)
    out = split.c1.mat @ (core @ circulant)
    (fixes,) = powers([correction(split).mat], d)
    columns = [ExactMatrix(d, out.m, out.nums[:, J:J + 1], out.den) for J in range(d)]
    return matmul_many(fixes, columns)


def _random_state(d, rng):
    while True:
        amps = []
        for _ in range(d):
            c = rng.randrange(-2, 3)
            e = rng.randrange(d ** 2)
            amps.append(CycloScalar.zeta(d, 2, e) * c)
        if not all(a.is_zero() for a in amps):
            return state(d, amps)


def verify_gadget(catalog, samples=100, seed=0, states=1):
    """Gadget check over random gates of catalog and random input states.

    Every sampled gate is diagonalised, run through the circuit on `states`
    random states, and each measurement branch is compared against the
    sampled gate acting directly, not the product of the circuit's own
    factors.  The report counts branches and lists any failures.
    """
    d = catalog.d
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
        split = diagonalize(su, witness)
        for _ in range(states):
            psi = _random_state(d, rng)
            target = su.mat @ psi
            for J, branch in enumerate(gadget_run(split, psi)):
                checked += 1
                if not equal_up_to_phase(branch, target):
                    failures.append({"sample": i, "branch": J, "reason": "mismatch"})
    return {"d": d, "samples": samples, "branches_checked": checked, "failures": failures}
