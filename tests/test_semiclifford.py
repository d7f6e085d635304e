"""Semi-Clifford recognition and diagonalisation against hand-checked gates
and the complete level-3 catalog."""

import json

import numpy as np
import pytest

from hierarchon.cyclo import CycloScalar, conductor
from hierarchon.diagonal import gen_delta_k
from hierarchon.exactmat import ExactMatrix, ScaledUnitary, equal_up_to_phase, to_interchange
from hierarchon.hierarchy import enumerate_level, membership
from hierarchon.phasespace import PauliElement, synthesize_clifford
from hierarchon.semiclifford import (
    SemiCliffordWitness,
    diagonalize,
    find_witness,
    gate_hash,
    gate_report,
    shared_interchange,
    sp_order,
)
from hierarchon.teleport import hadamard


def dft(d):
    w = CycloScalar.omega(d)
    grid = [[w ** (z * y) for y in range(d)] for z in range(d)]
    return ScaledUnitary(ExactMatrix.from_scalars(d, grid), d)


def t_gate():
    z9 = CycloScalar.zeta(3, 2, 1)
    return ScaledUnitary.exact(ExactMatrix.diag(3, [z9 ** 0, z9, z9 ** 2]))


def rational_matrix(d, vals, den=1):
    phi = conductor(d, 1).phi
    nums = np.zeros((len(vals), len(vals), phi), dtype=object)
    for i, row in enumerate(vals):
        for j, v in enumerate(row):
            nums[i, j, 0] = v
    return ScaledUnitary.exact(ExactMatrix(d, 1, nums, den))


def points_of(witness):
    return [(P.c, P.p, P.q) for P in witness.pauli_images]


@pytest.fixture(scope="module")
def cat3(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("cache"))
    return enumerate_level(3, 1, 3, cache_dir=cache)


def test_sp_order():
    assert sp_order(3) == 24
    assert sp_order(5) == 120
    assert sp_order(7) == 336


def test_diagonal_gate_witnesses_at_z():
    wit = find_witness(t_gate())
    assert wit.semibasis == (((1,), (0,)),)
    assert points_of(wit) == [(0, (1,), (0,))]


def test_clifford_gate_has_trivial_core():
    F = dft(3)
    wit = find_witness(F)
    assert wit.semibasis == (((1,), (0,)),)
    assert points_of(wit) == [(0, (0,), (2,))]
    split = diagonalize(F, wit)
    assert split.diag.is_identity()


def test_composed_gates_recover_the_core():
    F, T = dft(3), t_gate()
    cases = [
        (ScaledUnitary(F.mat @ T.mat, F.scale2), (((1,), (0,)),), [(0, (0,), (2,))]),
        (ScaledUnitary(T.mat @ F.mat, F.scale2), (((0,), (1,)),), [(0, (1,), (0,))]),
        (
            ScaledUnitary(F.mat @ T.mat @ F.mat, F.scale2 * F.scale2),
            (((0,), (1,)),),
            [(0, (0,), (2,))],
        ),
    ]
    for G, semibasis, images in cases:
        wit = find_witness(G)
        assert wit.semibasis == semibasis
        assert points_of(wit) == images
        split = diagonalize(G, wit)
        # sandwiching T between Cliffords moves the witness but not the core
        assert equal_up_to_phase(split.diag, T.mat)
        assert membership(split.c1, 2)
        assert membership(split.c2, 2)
        assert equal_up_to_phase(split.c1.mat @ split.diag @ split.c2.mat, G.mat)


def test_rotation_is_not_semi_clifford():
    # two stacked 3-4-5 rotations: exactly unitary, no Pauli images anywhere
    G = rational_matrix(3, [[15, 12, 16], [-20, 9, 12], [0, -20, 15]], 25)
    assert find_witness(G) is None
    report = gate_report(G, None)
    assert report["semi_clifford"] is False
    assert report["witness"] is None
    assert report["C1"] is None and report["C2"] is None and report["D"] is None


def test_wrong_witness_is_rejected():
    fake = SemiCliffordWitness((((1,), (0,)),), [PauliElement(3, 0, (1,), (0,))])
    with pytest.raises(ValueError, match="does not diagonalise"):
        diagonalize(dft(3), fake)


def test_witness_search_is_deterministic():
    F, T = dft(3), t_gate()
    G = ScaledUnitary(T.mat @ F.mat, F.scale2)
    a, b = find_witness(G), find_witness(G)
    assert a.semibasis == b.semibasis
    assert points_of(a) == points_of(b)


def test_two_wire_clifford_witness():
    phi = conductor(3, 1).phi
    nums = np.zeros((9, 9, phi), dtype=object)
    for z1 in range(3):
        for z2 in range(3):
            nums[z1 * 3 + (z2 + z1) % 3, z1 * 3 + z2, 0] = 1
    CX = ScaledUnitary.exact(ExactMatrix(3, 1, nums))
    wit = find_witness(CX)
    assert wit.semibasis == (((0, 1), (0, 0)), ((1, 0), (0, 0)))
    assert points_of(wit) == [(0, (2, 1), (0, 0)), (0, (1, 0), (0, 0))]
    assert diagonalize(CX, wit).diag.is_identity()


def test_dimension_five_diagonal():
    w5 = CycloScalar.omega(5)
    D = ScaledUnitary.exact(
        ExactMatrix.diag(5, [w5 ** (z ** 3 % 5) for z in range(5)])
    )
    wit = find_witness(D)
    assert wit.semibasis == (((1,), (0,)),)
    assert points_of(wit) == [(0, (1,), (0,))]
    assert diagonalize(D, wit).diag == D.mat


def test_every_level3_gate_is_semi_clifford(cat3):
    delta = {D.canonical_rep().to_key() for D in gen_delta_k(3, 3)}
    seen = 0
    for su in cat3.representatives():
        wit = find_witness(su)
        assert wit is not None
        split = diagonalize(su, wit)
        assert split.diag.canonical_rep().to_key() in delta
        seen += 1
    assert seen == 1944


def test_gate_report_shape():
    F, T = dft(3), t_gate()
    G = ScaledUnitary(F.mat @ T.mat, F.scale2)
    report = gate_report(G, find_witness(G))
    assert sorted(report) == ["C1", "C2", "D", "gate_hash", "semi_clifford", "witness"]
    assert report["semi_clifford"] is True
    assert report["witness"]["semibasis"] == [[[1], [0]]]
    assert report["witness"]["images"] == [{"c": 0, "p": [0], "q": [2]}]
    json.dumps(report)


def test_gate_hash_ignores_global_phase():
    T = t_gate()
    rescaled = ScaledUnitary(T.mat.scale_zeta(1), 1)
    assert gate_hash(rescaled) == gate_hash(T)
    assert gate_hash(T) != gate_hash(dft(3))


def test_shared_matrices_refuse_in_place_writes():
    F, T = dft(3), t_gate()
    G = ScaledUnitary(F.mat @ T.mat, F.scale2)
    wit = find_witness(G)
    before = gate_report(G, wit)
    shared = [
        synthesize_clifford(wit.pauli_images).mat,
        diagonalize(G, wit).c1.mat,
        hadamard(3),
    ]
    for M in shared:
        with pytest.raises(ValueError, match="read-only"):
            M.nums[0, 0, 0] += 1
    # the memo hands out the same untouched matrices to the next certificate
    assert synthesize_clifford(wit.pauli_images).mat is shared[0]
    assert gate_report(G, wit) == before


def test_factor_documents_are_shared_per_written_matrix():
    F = dft(3)
    assert F.mat.m == 1
    docs = {}
    first = shared_interchange(F, 1, docs)
    assert first == to_interchange(F, 1)
    copy = ScaledUnitary(ExactMatrix(3, 1, F.mat.nums.copy(), F.mat.den), F.scale2)
    assert shared_interchange(copy, 1, docs) is first
    # M and M.promote(2) are equal in value, but their documents differ
    promoted = ScaledUnitary(F.mat.promote(2), F.scale2)
    assert promoted.mat == F.mat and promoted.mat.to_key() == F.mat.to_key()
    other = shared_interchange(promoted, 1, docs)
    assert other is not first
    assert other == to_interchange(promoted, 1) != first
    # scale2 and n are part of the key too
    assert shared_interchange(ScaledUnitary(F.mat, 9), 1, docs) is not first
    assert shared_interchange(F, 2, docs) is not first
    assert len(docs) == 4
