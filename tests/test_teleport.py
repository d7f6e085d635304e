"""Branch-exhaustive checks of X-teleportation and the magic state gadget."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hierarchon import teleport
from hierarchon.cli import main
from hierarchon.cyclo import CycloScalar
from hierarchon.diagonal import gen_delta_k
from hierarchon.exactmat import ExactMatrix, ScaledUnitary, equal_up_to_phase, kron
from hierarchon.hierarchy import enumerate_level, membership
from hierarchon.semiclifford import Diagonalisation
from hierarchon.teleport import (
    correction,
    gadget_run,
    hadamard,
    state,
    verify_gadget,
    x_teleport,
)


def controlled_x(d):
    """|z1, z2> -> |z1, z1 + z2> with wire 1 the control and most significant."""
    grid = [[int(i == z1 * d + (z1 + z2) % d) for z1 in range(d) for z2 in range(d)]
            for i in range(d * d)]
    return ExactMatrix.from_scalars(d, grid)


def scalar(q):
    return CycloScalar.from_rational(3, Fraction(q))


def eye3():
    return ExactMatrix.identity(3, 3, 1)


def t_core():
    z9 = CycloScalar.zeta(3, 2, 1)
    return ExactMatrix.diag(3, [z9 ** 0, z9, z9 ** 2])


@pytest.fixture(scope="module")
def cats(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("cache"))
    return {k: enumerate_level(3, k, cache_dir=cache) for k in (1, 2, 3)}


def test_statevec_rejects_empty_and_zero():
    with pytest.raises(ValueError, match="zero"):
        state(3, [scalar(0), scalar(0), scalar(0)])
    with pytest.raises(ValueError, match="empty"):
        state(3, [])


def test_x_teleport_basis_state():
    branches = x_teleport(state(3, [1, 0, 0]))
    assert len(branches) == 3
    for b in branches:
        assert equal_up_to_phase(b, state(3, [1, 0, 0]))


def test_gadget_rejects_a_zero_input_column():
    with pytest.raises(ValueError, match="state is identically zero"):
        x_teleport(ExactMatrix.zeros(3, 1, 3, 1))


def test_x_teleport_superposition():
    psi = state(3, [scalar(1), scalar(1), scalar(0)])
    for b in x_teleport(psi):
        assert equal_up_to_phase(b, psi)


@settings(max_examples=25, deadline=None)
@given(
    exps=st.lists(st.integers(0, 8), min_size=3, max_size=3),
    coeffs=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
)
def test_x_teleport_arbitrary_states(exps, coeffs):
    assume(any(c != 0 for c in coeffs))
    amps = [CycloScalar.zeta(3, 2, e) * c for e, c in zip(exps, coeffs)]
    psi = state(3, amps)
    for b in x_teleport(psi):
        assert equal_up_to_phase(b, psi)


def test_x_teleport_rejects_two_wire_states():
    psi = state(3, [scalar(1)] * 9)
    with pytest.raises(ValueError, match="single-wire"):
        x_teleport(psi)


def test_identity_gadget_reduces_to_teleportation():
    psi = state(3, [scalar(1), scalar(1), scalar(0)])
    eye = ScaledUnitary.exact(eye3())
    for b in gadget_run(Diagonalisation(eye, eye3(), eye), psi):
        assert equal_up_to_phase(b, psi)


def test_t_gadget_on_basis_state():
    split = Diagonalisation(ScaledUnitary.exact(eye3()), t_core(), ScaledUnitary.exact(eye3()))
    psi = state(3, [0, 1, 0])
    target = t_core() @ psi
    for b in gadget_run(split, psi):
        assert equal_up_to_phase(b, target)
        assert b.entry(0, 0).is_zero() and b.entry(2, 0).is_zero()
        assert not b.entry(1, 0).is_zero()


def test_magic_state_is_core_on_plus():
    split = Diagonalisation(ScaledUnitary.exact(eye3()), t_core(), ScaledUnitary.exact(eye3()))
    z9 = CycloScalar.zeta(3, 2, 1)
    # the magic state is the core on |+>, the all-ones first column of the Fourier matrix
    plus = state(3, [1, 1, 1])
    assert split.diag @ plus == state(3, [z9 ** 0, z9, z9 ** 2])


def test_gadget_rejects_nondiagonal_core():
    split = Diagonalisation(ScaledUnitary.exact(eye3()), hadamard(3), ScaledUnitary.exact(eye3()))
    with pytest.raises(ValueError, match="diagonal core"):
        gadget_run(split, state(3, [1, 0, 0]))


def test_correction_is_clifford_for_every_third_level_core(cats):
    for core in gen_delta_k(3, 3):
        split = Diagonalisation(ScaledUnitary.exact(eye3()), core, ScaledUnitary.exact(eye3()))
        fix = correction(split)
        fix.verify()
        assert cats[2].contains(fix.mat)


def test_diagonal_core_commutes_with_the_control():
    for d in (3, 5):
        w = CycloScalar.zeta(d, 2, 1)
        core = ExactMatrix.diag(d, [w ** (z * z) for z in range(d)])
        CX = controlled_x(d)
        lifted = kron(core, ExactMatrix.identity(d, d, 1))
        assert lifted @ CX == CX @ lifted


def test_gadget_implements_sampled_catalog_gates(cats):
    report = verify_gadget(cats[3], samples=10, seed=3)
    assert report["d"] == 3
    assert report["branches_checked"] == 30
    assert report["failures"] == []


def test_verify_gadget_is_deterministic(cats):
    a = verify_gadget(cats[3], samples=5, seed=11)
    b = verify_gadget(cats[3], samples=5, seed=11)
    assert a == b


def test_verify_gadget_reads_d_from_its_catalog():
    report = verify_gadget(enumerate_level(5, 2), samples=3, seed=5)
    assert report["d"] == 5
    assert report["branches_checked"] == 15 and report["failures"] == []


@pytest.fixture
def squared_core(monkeypatch):
    """Drive the gadget with C1 D**2 C2 in place of the sampled C1 D C2."""

    real = teleport.diagonalize

    def diagonalize(su, witness):
        split = real(su, witness)
        return Diagonalisation(split.c1, split.diag @ split.diag, split.c2)

    monkeypatch.setattr(teleport, "diagonalize", diagonalize)


def test_a_wrong_gadget_factor_fails_every_branch(cats, squared_core):
    # the target is the sampled gate, not a product of the gadget's own factors
    report = verify_gadget(cats[3], samples=20, seed=1)
    assert report["branches_checked"] == 60
    assert [f["reason"] for f in report["failures"]] == ["mismatch"] * 60


def test_teleport_verify_exits_1_on_a_mismatch(capsys, tmp_path, squared_core):
    argv = ["teleport", "verify", "--samples", "5", "--seed", "1", "--format", "json"]
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["branches_checked"] == 15
    assert [f["reason"] for f in doc["failures"]] == ["mismatch"] * 15


def test_a_gate_without_a_witness_is_a_failure(cats, monkeypatch):
    monkeypatch.setattr(teleport, "find_witness", lambda su: None)
    report = verify_gadget(cats[3], samples=4, seed=1)
    assert report["branches_checked"] == 0
    assert report["failures"] == [
        {"sample": i, "branch": None, "reason": "no witness"} for i in range(4)
    ]


def test_a_zero_branch_is_a_mismatch(cats, monkeypatch):
    # no branch of a nonzero input vanishes; one that did would still fail
    def zero_branches(split, psi):
        return [ExactMatrix.zeros(3, 1, 3, 1) for _ in range(3)]

    monkeypatch.setattr(teleport, "gadget_run", zero_branches)
    report = verify_gadget(cats[3], samples=4, seed=1)
    assert report["branches_checked"] == 12
    assert [f["reason"] for f in report["failures"]] == ["mismatch"] * 12
