import itertools
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from hierarchon.cyclo import CycloScalar, conductor
from hierarchon.exactmat import (
    ExactMatrix,
    ScaledUnitary,
    conjugate_action,
    kron,
)
from hierarchon.phasespace import (
    PauliElement,
    _rref_mod,
    _solve_mod,
    _vec_point,
    _zfirst_key,
    enumerate_semibases,
    extend_to_symplectic_basis,
    half,
    pauli_x,
    pauli_z,
    recognize_pauli,
    symplectic_form,
    synthesize_clifford,
    times_pauli,
    to_matrix,
    weyl,
    weyl_mul,
    weyl_to_pauli,
)


def dft(d):
    w = CycloScalar.omega(d)
    grid = [[w ** (z * y) for y in range(d)] for z in range(d)]
    return ScaledUnitary(ExactMatrix.from_scalars(d, grid), d)


# ---------------------------------------------------------------------------
# symplectic form and weyl algebra

def test_symplectic_form_values():
    assert symplectic_form(((1,), (0,)), ((0,), (1,)), 3) == 1
    v = ((1,), (2,))
    assert symplectic_form(v, v, 3) == 0
    assert symplectic_form(((1,), (2,)), ((2,), (1,)), 3) == 0  # 1*1-2*2 = -3


def test_weyl_mul_identity_and_example():
    ident = (0, (0,), (0,))
    a = (0, (1,), (0,))
    assert weyl_mul(3, ident, a) == a
    got = weyl_mul(3, (0, (1,), (0,)), (0, (0,), (1,)))
    assert got == (2, (1,), (1,))


def test_weyl_mul_rejects_qubits():
    with pytest.raises(ValueError, match="odd prime"):
        weyl_mul(2, (0, (1,), (0,)), (0, (0,), (1,)))
    with pytest.raises(ValueError, match="odd prime"):
        PauliElement(2, 0, (1,), (0,))


def test_weyl_mul_matrix_oracle_exhaustive_d3():
    d = 3
    labels = list(itertools.product(range(d), range(d), range(d)))
    for c1, p1, q1 in labels:
        for c2, p2, q2 in labels[:27]:
            a = (c1, (p1,), (q1,))
            b = (c2, (p2,), (q2,))
            prod = weyl_mul(d, a, b)
            lhs = to_matrix(weyl_to_pauli(d, prod))
            rhs = to_matrix(weyl_to_pauli(d, a)) @ to_matrix(weyl_to_pauli(d, b))
            assert lhs == rhs


def test_weyl_order_d():
    for d in (3, 5, 7):
        for p, q in ((1, 0), (0, 1), (1, 2), (2, 2)):
            acc = (0, (p,), (q,))
            for _ in range(d - 1):
                acc = weyl_mul(d, acc, (0, (p,), (q,)))
            assert acc == (0, (0,), (0,))


def test_weyl_matrix_power_is_identity():
    for d in (3, 5):
        M = to_matrix(weyl(d, (1,), (2,)))
        assert M.pow_int(d).is_identity()


def test_weyl_tensor_split():
    d = 3
    for p1, q1, p2, q2 in itertools.product(range(d), repeat=4):
        big = to_matrix(weyl(d, (p1, p2), (q1, q2)))
        small = kron(to_matrix(weyl(d, (p1,), (q1,))), to_matrix(weyl(d, (p2,), (q2,))))
        assert big == small


def test_weyl_mul_two_wire_d7_sampled():
    # oracle through the tensor split: componentwise n=1 matrix products
    d = 7
    rng = np.random.default_rng(3)
    for _ in range(12):
        c1, c2 = rng.integers(0, d, 2)
        p1, q1, p2, q2 = (tuple(rng.integers(0, d, 2)) for _ in range(4))
        a = (int(c1), p1, q1)
        b = (int(c2), p2, q2)
        prod = weyl_mul(d, a, b)
        lhs = to_matrix(weyl_to_pauli(d, prod))
        rhs_full = to_matrix(weyl_to_pauli(d, a)) @ to_matrix(weyl_to_pauli(d, b))
        assert lhs == rhs_full


# ---------------------------------------------------------------------------
# matrix recognition

def test_pauli_roundtrip():
    P = PauliElement(3, 1, (1,), (2,))
    got = recognize_pauli(to_matrix(P))
    assert got == P


def test_pauli_roundtrip_all_d3_n1():
    for c, p, q in itertools.product(range(3), repeat=3):
        P = PauliElement(3, c, (p,), (q,))
        assert recognize_pauli(to_matrix(P)) == P


def test_pauli_roundtrip_two_wires():
    P = PauliElement(3, 2, (1, 0), (2, 1))
    assert recognize_pauli(to_matrix(P)) == P
    Q = PauliElement(5, 3, (0, 4), (1, 0))
    assert recognize_pauli(to_matrix(Q)) == Q


@pytest.mark.parametrize("d", [5, 7])
def test_pauli_roundtrip_two_wires_larger_d(d):
    gen = random.Random(d)
    for _ in range(20):
        P = PauliElement(d, gen.randrange(d), [gen.randrange(d) for _ in range(2)],
                         [gen.randrange(d) for _ in range(2)])
        M = to_matrix(P)
        assert recognize_pauli(M) == P
        assert recognize_pauli(M.scale_zeta(3), up_to_phase=True) == PauliElement(d, 0, P.p, P.q)
        # swapping two columns leaves a monomial matrix that no column map gives
        swapped = ExactMatrix(d, M.m, M.nums[:, [1, 0] + list(range(2, d * d))], M.den)
        assert recognize_pauli(swapped) is None
        assert recognize_pauli(swapped, up_to_phase=True) is None


def test_recognize_rejects_dft():
    assert recognize_pauli(dft(3).mat) is None
    assert recognize_pauli(dft(3).mat, up_to_phase=True) is None


def test_recognize_strips_foreign_phase():
    X = to_matrix(pauli_x(3, 1, 1))
    zX = X.promote(2).scale_zeta(1)  # zeta_9 X
    assert recognize_pauli(zX) is None
    got = recognize_pauli(zX, up_to_phase=True)
    assert got == PauliElement(3, 0, (0,), (1,))


def test_recognize_rejects_junk():
    assert recognize_pauli(ExactMatrix.zeros(3, 1, 3)) is None
    assert recognize_pauli(ExactMatrix.from_scalars(3, [[1, 1, 0], [0, 0, 0], [0, 0, 1]])) is None
    # wrong dim for a qutrit register
    assert recognize_pauli(ExactMatrix.identity(3, 4)) is None


@lru_cache(maxsize=None)
def _hand_zx(d):
    w = CycloScalar.omega(d)
    Z = ExactMatrix.diag(d, [w ** z for z in range(d)])
    X = ExactMatrix.from_scalars(d, [[int(r == (z + 1) % d) for z in range(d)] for r in range(d)])
    return Z, X


def hand_pauli(d, c, p, q):
    """omega^c Z^p X^q from Z = diag(omega^z) and the cyclic shift X, one kron per wire."""
    Z, X = _hand_zx(d)
    out = None
    for a, b in zip(p, q):
        wire = Z.pow_int(a) @ X.pow_int(b)
        out = wire if out is None else kron(out, wire)
    return out.scale(CycloScalar.omega(d) ** c)


def _labels(d, n):
    return [(c, tuple(pq[:n]), tuple(pq[n:])) for c, *pq in itertools.product(range(d), repeat=1 + 2 * n)]


@pytest.mark.parametrize("d,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_to_matrix_matches_hand_built_paulis(d, n):
    labels = _labels(d, n)
    if (d, n) != (3, 1):
        labels = random.Random(d * 10 + n).sample(labels, 12)
    for c, p, q in labels:
        assert to_matrix(PauliElement(d, c, p, q)) == hand_pauli(d, c, p, q)


@lru_cache(maxsize=None)
def _all_hand_paulis(d, n):
    return [(PauliElement(d, c, p, q), hand_pauli(d, c, p, q)) for c, p, q in _labels(d, n)]


def brute_force_pauli(M, up_to_phase):
    """The Pauli equal to M (to its canonical form, up to phase), by exact comparison with all."""
    if up_to_phase:
        M = M.canonical_rep()
    n = {M.d: 1, M.d ** 2: 2}.get(M.dim)
    if n is None:
        return None
    return next((P for P, H in _all_hand_paulis(M.d, n) if M == H), None)


def _variants(M, rng):
    """Pauli-shaped inputs and near misses: each kind of matrix recognize_pauli must sort."""
    d = M.d
    yield "plain", M
    yield "promoted", M.promote(2)
    # a zeta_(d*d) power that is no power of omega
    yield "zeta", M.promote(2).scale_zeta(d * rng.randrange(d) + rng.randrange(1, d))
    yield "omega", M.scale(CycloScalar.omega(d) ** rng.randrange(1, d))
    yield "rational", M.scale_q(Fraction(rng.choice([-3, 1, 5]), rng.choice([2, 7])))
    nums = M.nums.copy()
    i, j, k = (rng.randrange(s) for s in nums.shape)
    nums[i, j, k] += rng.choice([-1, 1, d])
    yield "perturbed", ExactMatrix(d, M.m, nums, M.den)
    i, j = rng.sample(range(M.dim), 2)
    nums = M.nums.copy()
    nums[:, [i, j]] = nums[:, [j, i]]
    yield "swapped", ExactMatrix(d, M.m, nums, M.den)
    yield "big", M.scale_q(2 ** 70)
    obj = ExactMatrix(d, M.m, M.nums, M.den)
    obj.nums = M.nums.astype(object)
    yield "object", obj


def test_recognize_matches_a_brute_force_oracle():
    rng = random.Random(11)
    found = {}
    for d, n, samples in ((3, 1, 27), (5, 1, 8), (7, 1, 6), (3, 2, 6)):
        for P, H in rng.sample(_all_hand_paulis(d, n), samples):
            for kind, M in _variants(H, rng):
                for up in (False, True):
                    got = recognize_pauli(M, up_to_phase=up)
                    assert got == brute_force_pauli(M, up), (kind, up, P)
                    found.setdefault((kind, up), set()).add(got is not None)
    # every kind landed on the side its construction puts it
    assert found[("plain", False)] == found[("promoted", False)] == {True}
    assert found[("object", False)] == {True}
    assert found[("zeta", False)] == found[("big", False)] == {False}
    assert found[("zeta", True)] == found[("big", True)] == found[("rational", True)] == {True}
    assert found[("rational", False)] == {False}
    assert found[("perturbed", True)] == found[("swapped", True)] == {False}


def test_pauli_mul_matches_matrices():
    rng = np.random.default_rng(5)
    for d in (3, 5):
        for _ in range(10):
            c1, c2 = (int(x) for x in rng.integers(0, d, 2))
            p1, q1, p2, q2 = (int(x) for x in rng.integers(0, d, 4))
            A = PauliElement(d, c1, (p1,), (q1,))
            B = PauliElement(d, c2, (p2,), (q2,))
            assert to_matrix(A * B) == to_matrix(A) @ to_matrix(B)
            assert to_matrix(A.inverse()) @ to_matrix(A) == ExactMatrix.identity(d, d)


# ---------------------------------------------------------------------------
# semibases

def test_semibases_single_qutrit():
    got = enumerate_semibases(3, 1)
    want = {(((0,), (1,)),), (((1,), (0,)),), (((1,), (1,)),), (((1,), (2,)),)}
    assert set(got) == want
    assert len(got) == 4
    # the Z direction leads, so diagonal gates witness at the first entry
    assert got[0] == (((1,), (0,)),)
    assert enumerate_semibases(3, 2)[0] == (((0, 1), (0, 0)), ((1, 0), (0, 0)))


def test_semibases_counts():
    assert len(enumerate_semibases(5, 1)) == 6
    assert len(enumerate_semibases(7, 1)) == 8
    assert len(enumerate_semibases(3, 2)) == 40


def test_semibases_are_valid_and_deterministic():
    sb = enumerate_semibases(3, 2)
    assert sb == enumerate_semibases(3, 2)
    for basis in sb:
        for u in basis:
            for v in basis:
                assert symplectic_form(u, v, 3) == 0
        vecs = [u[0] + u[1] for u in basis]
        # independence: rref keeps 2 rows
        from hierarchon.phasespace import _rref_mod

        rows, _ = _rref_mod(vecs, 3)
        assert len(rows) == 2


def test_extend_to_symplectic_basis():
    es, fs = extend_to_symplectic_basis([((1,), (0,))], 3)
    assert es == [((1,), (0,))] and fs == [((0,), (1,))]
    es, fs = extend_to_symplectic_basis([((1,), (1,))], 3)
    assert symplectic_form(es[0], fs[0], 3) == 1
    # full Gram check on a two-wire case
    for basis in enumerate_semibases(3, 2)[::7]:
        es, fs = extend_to_symplectic_basis(list(basis), 3)
        for i in range(2):
            for j in range(2):
                assert symplectic_form(es[i], es[j], 3) == 0
                assert symplectic_form(fs[i], fs[j], 3) == 0
                assert symplectic_form(es[i], fs[j], 3) == (1 if i == j else 0)


def two_branch_semibases(d, n):
    """The semibasis list as first written: one branch for n=1, one for n=2."""
    if n == 1:
        out = []
        for v in itertools.product(range(d), repeat=2):
            if any(v) and next(x for x in v if x) == 1:
                out.append((_vec_point(v, 1),))
        out.sort(key=_zfirst_key)
        return tuple(out)
    lead1 = [v for v in itertools.product(range(d), repeat=4)
             if any(v) and next(x for x in v if x) == 1]
    seen = set()
    out = []
    for i, v1 in enumerate(lead1):
        for v2 in lead1[i + 1:]:
            if symplectic_form(_vec_point(v1, 2), _vec_point(v2, 2), d):
                continue
            basis, _ = _rref_mod([v1, v2], d)
            if len(basis) != 2 or tuple(basis) in seen:
                continue
            seen.add(tuple(basis))
            out.append(tuple(sorted((_vec_point(v, 2) for v in basis),
                                    key=lambda pt: _zfirst_key([pt]))))
    out.sort(key=_zfirst_key)
    return tuple(out)


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_semibases_match_the_two_branch_routine(d, n):
    want = two_branch_semibases(d, n)
    assert enumerate_semibases(d, n) == list(want)
    for basis in want:
        assert extend_to_symplectic_basis(list(basis), d)[0] == list(basis)


def solve_by_reduction_and_check(A, b, d):
    """The solver as first written: read each row's lead, then verify A x = b."""
    rows = [list(r) + [bb] for r, bb in zip(A, b)]
    red, _ = _rref_mod(rows, d)
    ncols = len(A[0])
    x = [0] * ncols
    for row in red:
        lead = next((col for col in range(ncols) if row[col]), None)
        if lead is None:
            if row[ncols]:
                return None
            continue
        x[lead] = row[ncols]
    for r, bb in zip(A, b):
        if sum(a * xx for a, xx in zip(r, x)) % d != bb % d:
            return None
    return x


def test_solve_mod_matches_the_checked_solver_and_brute_force():
    rng = random.Random(15)
    outcomes = set()
    for d in (3, 5, 7):
        for _ in range(200):
            rows, cols = rng.randint(1, 4), rng.randint(1, 3)
            A = [[rng.randrange(d) for _ in range(cols)] for _ in range(rows)]
            b = [rng.randrange(d) for _ in range(rows)]
            got = _solve_mod(A, b, d)
            assert got == solve_by_reduction_and_check(A, b, d)
            xs = np.indices((d,) * cols).reshape(cols, -1)
            solvable = bool(np.all((np.array(A) @ xs) % d == np.array(b)[:, None], axis=0).any())
            assert (got is not None) == solvable
            if got is not None:
                assert all(sum(a * x for a, x in zip(r, got)) % d == bb for r, bb in zip(A, b))
            outcomes.add(solvable)
    assert outcomes == {True, False}


def test_times_pauli_is_the_product():
    rng = np.random.default_rng(5)
    for d, n, m in ((3, 1, 1), (3, 1, 3), (3, 2, 2), (5, 1, 2), (7, 1, 1)):
        phi = conductor(d, m).phi
        dim = d ** n
        for _ in range(10):
            P = PauliElement(d, rng.integers(d), rng.integers(0, d, n), rng.integers(0, d, n))
            nums = rng.integers(-40, 40, size=(dim, dim, phi))
            for arr in (nums, nums.astype(object) * 2 ** 70):
                M = ExactMatrix(d, m, arr, int(rng.integers(1, 6)))
                assert times_pauli(M, P) == M @ to_matrix(P)


# ---------------------------------------------------------------------------
# clifford synthesis

def test_synthesize_identity_for_z_targets():
    C = synthesize_clifford([pauli_z(3, 1, 1)])
    assert C.mat.canonical_rep() == ExactMatrix.identity(3, 3).canonical_rep()


def test_synthesize_single_targets():
    d = 3
    for target in (
        pauli_x(d, 1, 1),
        PauliElement(d, 1, (1,), (0,)),  # omega Z
        PauliElement(d, 2, (1,), (2,)),
        PauliElement(d, 0, (2,), (1,)),
    ):
        C = synthesize_clifford([target])
        C.verify()
        assert conjugate_action(C, to_matrix(pauli_z(d, 1, 1))) == to_matrix(target)
        # Clifford check: conjugates of both basic Paulis are Pauli
        for P in (pauli_z(d, 1, 1), pauli_x(d, 1, 1)):
            img = conjugate_action(C, to_matrix(P))
            assert recognize_pauli(img, up_to_phase=True) is not None


def test_synthesize_two_wires():
    d = 3
    targets = [PauliElement(d, 0, (1, 0), (0, 1)), PauliElement(d, 1, (0, 1), (1, 0))]
    assert symplectic_form(targets[0].phase_point(), targets[1].phase_point(), d) == 0
    C = synthesize_clifford(targets)
    C.verify()
    for i, t in enumerate(targets):
        assert conjugate_action(C, to_matrix(pauli_z(d, 2, i + 1))) == to_matrix(t)
    for i in range(1, 3):
        for P in (pauli_z(d, 2, i), pauli_x(d, 2, i)):
            img = conjugate_action(C, to_matrix(P))
            assert recognize_pauli(img, up_to_phase=True) is not None


def test_synthesize_rejects_bad_targets():
    d = 3
    with pytest.raises(ValueError, match="commute"):
        synthesize_clifford([pauli_z(d, 2, 1), pauli_x(d, 2, 1)])
    with pytest.raises(ValueError, match="independent"):
        synthesize_clifford(
            [pauli_z(d, 2, 1), PauliElement(d, 0, (2, 0), (0, 0))]
        )


def test_half_inverse():
    for d in (3, 5, 7):
        assert (2 * half(d)) % d == 1
