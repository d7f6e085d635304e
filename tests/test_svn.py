import numpy as np
import pytest

from hierarchon import svn
from hierarchon.cyclo import CycloScalar
from hierarchon.exactmat import ExactMatrix, ScaledUnitary, conjugate_action, kron
from hierarchon.hierarchy import enumerate_level
from hierarchon.phasespace import (
    PauliElement,
    pauli_x,
    pauli_z,
    synthesize_clifford,
    to_matrix,
    weyl,
)
from hierarchon.svn import ConjugateTuple, reconstruct, tuple_of


def dft(d):
    w = CycloScalar.omega(d)
    grid = [[w ** (z * y) for y in range(d)] for z in range(d)]
    return ScaledUnitary(ExactMatrix.from_scalars(d, grid), d)


def zx(d):
    return to_matrix(pauli_z(d, 1, 1)), to_matrix(pauli_x(d, 1, 1))


def test_reconstruct_dft_from_xinv_z():
    d = 3
    Z, X = zx(d)
    T = ConjugateTuple(d, 1, [(X.pow_int(d - 1), Z)])
    T.validate()
    G = reconstruct(T)
    assert G.scale2 == d
    assert G.mat.canonical_rep() == dft(d).mat.canonical_rep()
    G.verify()


def test_reconstruct_identity_tuple():
    d = 5
    Z, X = zx(d)
    T = ConjugateTuple(d, 1, [(Z, X)])
    G = reconstruct(T)
    assert G.mat.canonical_rep() == ExactMatrix.identity(d, d).canonical_rep()


def test_reconstructed_conjugation_is_exact():
    d = 3
    Z, X = zx(d)
    for U, V in [
        (X.pow_int(2), Z),
        (Z @ X, X),  # a shear
        (X, Z.pow_int(2) @ X),
    ]:
        T = ConjugateTuple(d, 1, [(U, V)])
        T.validate()
        G = reconstruct(T)
        assert conjugate_action(G, Z) == U
        assert conjugate_action(G, X) == V


def test_roundtrip_through_tuple_of():
    d = 3
    for target in (
        PauliElement(d, 0, (1,), (1,)),
        PauliElement(d, 2, (0,), (1,)),
        PauliElement(d, 1, (2,), (1,)),
    ):
        G = synthesize_clifford([target])
        T = tuple_of(G, 1)
        T.validate()
        back = reconstruct(T)
        assert back.mat.canonical_rep() == G.mat.canonical_rep()


def test_roundtrip_two_wires():
    d = 3
    targets = [PauliElement(d, 0, (0, 1), (1, 0)), PauliElement(d, 2, (1, 0), (0, 1))]
    G = synthesize_clifford(targets)
    T = tuple_of(G, 2)
    T.validate()
    back = reconstruct(T)
    assert back.mat.canonical_rep() == G.mat.canonical_rep()
    for i in (1, 2):
        assert conjugate_action(back, to_matrix(pauli_z(d, 2, i))) == T.pairs[i - 1][0]
        assert conjugate_action(back, to_matrix(pauli_x(d, 2, i))) == T.pairs[i - 1][1]


def test_validate_rejects_bad_tuples():
    d = 3
    Z, X = zx(d)
    with pytest.raises(ValueError, match="omega"):
        ConjugateTuple(d, 1, [(Z, Z)]).validate()
    with pytest.raises(ValueError, match="omega"):
        ConjugateTuple(d, 1, [(X, Z)]).validate()  # wrong orientation
    bad = ExactMatrix.from_scalars(3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="unitary"):
        ConjugateTuple(d, 1, [(bad, X)]).validate()
    nonord = ExactMatrix.diag(3, [1, CycloScalar.zeta(3, 2), 1])
    with pytest.raises(ValueError, match="order"):
        ConjugateTuple(d, 1, [(nonord, X)]).validate()


def test_validate_rejects_a_wrong_pair_count_and_broken_cross_commutation():
    d = 3
    Z, X = zx(d)
    with pytest.raises(ValueError, match="one \\(U, V\\) pair per wire"):
        ConjugateTuple(d, 2, [(Z, X)])
    # each pair is a Weyl pair, but Z_1 of the first fails to commute with X_1 of the second
    with pytest.raises(ValueError, match="^pairs 1,2 break cross commutation$"):
        ConjugateTuple(d, 2, [(Z, X), (Z, X)]).validate()


def test_a_member_with_no_fixed_vector_is_refused():
    d = 3
    _, X = zx(d)
    omega = ExactMatrix.diag(d, [CycloScalar.omega(d)] * d)
    with pytest.raises(ValueError, match="joint fixed space is empty"):
        reconstruct(ConjugateTuple(d, 1, [(omega, X)]))


def _no_rational_start():
    """U = diag(z, z^2, z^2) and V = z^2 I, z a primitive ninth root of unity.

    Not a conjugate tuple: neither member has order 3.  No nonzero column
    of the orbit sums of U, V, UV or UV^2 has a rational norm, U, UV and
    UV^2 have no Pauli images, and V, a scalar other than 1, fixes no vector.
    """
    z = [CycloScalar.zeta(3, 2, e) for e in range(3)]
    return ExactMatrix.diag(3, [z[1], z[2], z[2]]), ExactMatrix.diag(3, [z[2]] * 3)


def test_a_one_wire_tuple_that_no_rotation_starts_is_refused():
    U, V = _no_rational_start()
    with pytest.raises(ValueError, match="^reconstruction norm is not rational$"):
        reconstruct(ConjugateTuple(3, 1, [(U, V)]))


def test_a_two_wire_tuple_with_no_rational_start_is_refused():
    # the U of _no_rational_start on the first wire, and Z_2, X_2 on the second
    U, _ = _no_rational_start()
    pairs = [
        (kron(U, ExactMatrix.identity(3, 3)), to_matrix(pauli_x(3, 2, 1))),
        (to_matrix(pauli_z(3, 2, 2)), to_matrix(pauli_x(3, 2, 2))),
    ]
    with pytest.raises(ValueError, match="^reconstruction norm is not rational$"):
        reconstruct(ConjugateTuple(3, 2, pairs))


def test_scale2_tracks_u0_norm():
    d = 3
    Z, X = zx(d)
    T = ConjugateTuple(d, 1, [(X, Z)])  # also reconstructs, orientation is valid
    with pytest.raises(ValueError):
        T.validate()
    ok = ConjugateTuple(d, 1, [(X.pow_int(2), Z)])
    G = reconstruct(ok)
    prod = G.mat @ G.mat.dagger()
    s = prod.scalar_if_scalar()
    assert s is not None and s.as_fraction() == G.scale2


@pytest.fixture(scope="module")
def start_paths():
    """Tuples of the d=3 lift through level 4 that the frame starts, and that rotate."""
    framed, rotated = [], []
    frame, rotate = svn._rational_fixed_vector, svn._rotated_reconstruct

    def spy_frame(T, prod):
        start = frame(T, prod)
        framed.append(T)
        return start

    def spy_rotate(T, memo):
        rotated.append(T)
        return rotate(T, memo)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svn, "_rational_fixed_vector", spy_frame)
        mp.setattr(svn, "_rotated_reconstruct", spy_rotate)
        enumerate_level(3, 4)
    return framed, rotated


def test_the_lift_takes_both_start_paths(start_paths):
    framed, rotated = start_paths
    assert (len(framed), len(rotated)) == (72, 324)


@pytest.mark.parametrize("path", [0, 1], ids=["frame", "rotation"])
def test_both_start_paths_rebuild_their_tuple(start_paths, path):
    Z, X = zx(3)
    sample = start_paths[path][::6]
    assert len(sample) >= 12
    for T in sample:
        G = reconstruct(T)
        (U, V), = T.pairs
        assert conjugate_action(G, Z) == U
        assert conjugate_action(G, X) == V
        G.verify()


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_weyl_pair_reconstruction_never_rotates(monkeypatch, d):
    def no_rotation(T, memo):
        raise AssertionError("a Weyl-direction tuple rotated")

    monkeypatch.setattr(svn, "_rotated_reconstruct", no_rotation)
    svn._weyl_pair_reconstruction.cache_clear()
    Z, X = zx(d)
    for a, b in [(0, 1)] + [(1, t) for t in range(1, d)]:
        x, y = (d - 1, 0) if a == 0 else (0, 1)
        G = svn._weyl_pair_reconstruction(d, a, b)
        G.verify()
        assert conjugate_action(G, Z) == to_matrix(weyl(d, (a,), (b,)))
        assert conjugate_action(G, X) == to_matrix(weyl(d, (x,), (y,)))
