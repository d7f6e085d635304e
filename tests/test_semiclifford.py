"""Semi-Clifford recognition and diagonalisation against hand-checked gates
and the complete level-3 catalog."""

import json

import numpy as np
import pytest

from hierarchon.cyclo import CycloScalar, conductor
from hierarchon.diagonal import gen_delta_k
from hierarchon.exactmat import (
    ExactMatrix,
    ScaledUnitary,
    conjugate_action,
    equal_up_to_phase,
    to_interchange,
)
from hierarchon.hierarchy import enumerate_level, membership
from hierarchon.phasespace import PauliElement, synthesize_clifford
import hierarchon.cli
import hierarchon.semiclifford as semiclifford
from hierarchon.phasespace import enumerate_semibases, recognize_pauli, to_matrix
from hierarchon.semiclifford import (
    SemiCliffordWitness,
    certificate_report,
    certify,
    diagonalize,
    diagonalize_many,
    find_witness,
    find_witnesses,
    gate_hash,
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
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


@pytest.fixture(scope="module")
def cat3(cache):
    return enumerate_level(3, 3, cache_dir=cache)


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


def rotation():
    # two stacked 3-4-5 rotations: exactly unitary, no Pauli images anywhere
    return rational_matrix(3, [[15, 12, 16], [-20, 9, 12], [0, -20, 15]], 25)


def test_rotation_is_not_semi_clifford():
    G = rotation()
    assert find_witness(G) is None
    report = certificate_report(*certify([G], [None], {})[0])
    assert report["semi_clifford"] is False
    assert report["witness"] is None
    assert report["C1"] is None and report["C2"] is None and report["D"] is None


def test_wrong_witness_is_rejected():
    fake = SemiCliffordWitness((((1,), (0,)),), [PauliElement(3, 0, (1,), (0,))])
    with pytest.raises(ValueError, match="does not diagonalise"):
        diagonalize(dft(3), fake)


def test_a_wrong_diagonal_factor_is_caught(monkeypatch):
    """D squared is still diagonal, but C1 D**2 C2 is not the gate."""
    T = t_gate()
    witness = find_witness(T)
    real = semiclifford.canonical_reps
    monkeypatch.setattr(semiclifford, "canonical_reps", lambda mats: [D @ D for D in real(mats)])
    with pytest.raises(ValueError, match="^diagonalisation does not reproduce the gate$"):
        diagonalize(T, witness)


def test_witness_search_is_deterministic():
    F, T = dft(3), t_gate()
    G = ScaledUnitary(T.mat @ F.mat, F.scale2)
    a, b = find_witness(G), find_witness(G)
    assert a.semibasis == b.semibasis
    assert points_of(a) == points_of(b)


def cx_gate():
    phi = conductor(3, 1).phi
    nums = np.zeros((9, 9, phi), dtype=object)
    for z1 in range(3):
        for z2 in range(3):
            nums[z1 * 3 + (z2 + z1) % 3, z1 * 3 + z2, 0] = 1
    return ScaledUnitary.exact(ExactMatrix(3, 1, nums))


def test_two_wire_clifford_witness():
    CX = cx_gate()
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
    report = certificate_report(*certify([G], [find_witness(G)], {})[0])
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
    before = certificate_report(*certify([G], [wit], {})[0])
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
    assert certificate_report(*certify([G], [wit], {})[0]) == before


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


# -- the batched certificate path ---------------------------------------------


def mixed_gates():
    """Gates at conductors 3 and 9, one and two wires, some semi-Clifford."""
    F, T = dft(3), t_gate()
    return [
        T,
        F,
        ScaledUnitary(F.mat @ T.mat, F.scale2),
        cx_gate(),
        ScaledUnitary(T.mat @ F.mat, F.scale2),
        ScaledUnitary(F.mat @ T.mat @ F.mat, F.scale2 * F.scale2),
        # T rescaled by a ninth root of unity: the same class, another conductor-9 matrix
        ScaledUnitary(T.mat.scale_zeta(1), 1),
    ]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_gate_reports_equal_the_batches_of_one(where):
    gates = mixed_gates()
    at = {"first": 0, "middle": len(gates) // 2, "last": len(gates)}[where]
    gates.insert(at, rotation())
    assert {G.mat.m for G in gates} == {1, 2}
    witnesses = find_witnesses(gates)
    assert [w is None for w in witnesses] == [k == at for k in range(len(gates))]
    for G, w in zip(gates, witnesses):
        one = find_witness(G)
        assert (one is None) == (w is None)
        if w is not None:
            assert w.semibasis == one.semibasis and points_of(w) == points_of(one)
    docs, docs_one = {}, {}
    batched = [certificate_report(*e) for e in certify(gates, witnesses, docs)]
    # each gate alone: once sharing docs_one across the singletons, once not
    shared = [certify([G], [find_witness(G)], docs_one)[0] for G in gates]
    alone = [certify([G], [find_witness(G)], {})[0] for G in gates]
    assert batched == [certificate_report(*e) for e in shared]
    assert json.dumps(batched) == json.dumps([certificate_report(*e) for e in alone])
    assert len(docs) == len(docs_one)


def test_empty_batches():
    assert find_witnesses([]) == []
    assert diagonalize_many([], []) == []
    assert certify([], [], {}) == []


def test_wrong_witness_inside_a_batch_is_rejected():
    F, T = dft(3), t_gate()
    G = ScaledUnitary(F.mat @ T.mat, F.scale2)
    fake = SemiCliffordWitness((((1,), (0,)),), [PauliElement(3, 0, (1,), (0,))])
    with pytest.raises(ValueError) as alone:
        diagonalize(F, fake)
    gates = [T, F, G]
    witnesses = [find_witness(T), fake, find_witness(G)]
    with pytest.raises(ValueError) as batched:
        diagonalize_many(gates, witnesses)
    assert str(batched.value) == str(alone.value) == "witness does not diagonalise the gate"
    with pytest.raises(ValueError, match="^witness does not diagonalise the gate$"):
        certify(gates, witnesses, {})


@pytest.mark.parametrize("d, k", [(3, 2), (3, 3), (3, 4), (5, 2)])
def test_the_pauli_screen_rejects_only_non_paulis(cache, d, k):
    """Every image the screen rejects makes recognize_pauli return None."""
    gates = list(enumerate_level(d, k, cache_dir=cache).representatives())
    rejected = checked = 0
    for m in sorted({G.mat.m for G in gates}):
        group = [G for G in gates if G.mat.m == m]
        cond = conductor(d, m)
        nums = np.stack([G.mat.nums for G in group])
        daggers = cond.conj(nums).transpose(0, 2, 1, 3)
        for (point,) in enumerate_semibases(d, 1):
            raw = semiclifford._conjugates(nums, daggers, point, cond)
            for k_, ok in enumerate(semiclifford._pauli_shaped(raw, cond)):
                G = group[k_]
                image = ExactMatrix(d, m, raw[k_], G.mat.den ** 2).scale_q(1 / G.scale2)
                if checked % 97 == 0:
                    W = to_matrix(PauliElement(d, 0, *point))
                    assert image == conjugate_action(G, W)
                checked += 1
                if not ok:
                    rejected += 1
                    assert recognize_pauli(image) is None
    assert checked == len(gates) * (d + 1)
    # a Clifford sends every Pauli to a Pauli, so only level 3 and up reject
    assert (rejected > 0) == (k > 2)


def test_certificates_do_not_depend_on_the_block_size(capsys, monkeypatch, cache):
    argv = ["semiclifford", "--catalog", "3", "--d", "3", "--certificates", "--format", "json",
            "--cache-dir", cache]
    assert hierarchon.cli.main(argv) == 0
    default = capsys.readouterr().out
    monkeypatch.setattr(hierarchon.cli, "_CERTIFY_BLOCK", 7)
    assert hierarchon.cli.main(argv) == 0
    assert capsys.readouterr().out == default
