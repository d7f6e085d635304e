"""Semi-Clifford recognition and exact diagonalisation.

A gate is semi-Clifford when its conjugation action sends the Weyl words of
some Lagrangian semibasis to Pauli operators.  Such a gate factors as
C1 D C2 with both C's Clifford and D diagonal; the factors are built and
re-multiplied exactly, so a returned decomposition is a certificate.

Every step runs on a list of gates at once, as stacked products; the
single-gate functions are each the batch of one.
"""

import hashlib

import numpy as np

from .cyclo import conductor
from .exactmat import (
    ExactMatrix,
    ScaledUnitary,
    canonical_reps,
    equal_up_to_phase_stacked,
    frozen,
    stacked_product,
    to_interchange,
)
from .phasespace import (
    PauliElement,
    column_map,
    enumerate_semibases,
    recognize_pauli,
    shift_columns,
    synthesize_clifford,
    wire_count,
)


class SemiCliffordWitness:
    """A semibasis whose monomials all recognize as Paulis, with the images."""

    def __init__(self, semibasis, pauli_images):
        self.semibasis = tuple(semibasis)
        self.pauli_images = list(pauli_images)


class Diagonalisation:
    def __init__(self, c1, diag, c2):
        self.c1 = c1
        self.diag = diag
        self.c2 = c2


def sp_order(d):
    """Order of the symplectic group on one d-dimensional wire."""
    return d * (d * d - 1)


def find_witness(G):
    """First semibasis whose monomials are all Pauli, or None."""
    return find_witnesses([G])[0]


def find_witnesses(gates):
    """[find_witness(G) for G in gates], each point's images as one stacked product.

    Gates group by base prime, conductor and dimension.  Semibases arrive
    Z-first from enumerate_semibases, so diagonal gates always witness at
    the plain Z semibasis.  At each point of a semibasis, the gates that
    have no witness yet and whose images so far are all Pauli have their
    images G W G*/s formed together; a gate's image at a point is formed
    once.  A screen passes only images of a shape recognize_pauli
    requires, and recognize_pauli confirms each image that passes.
    """
    out = [None] * len(gates)
    groups = {}
    for idx, G in enumerate(gates):
        groups.setdefault((G.d, G.mat.m, G.dim), []).append(idx)
    for (d, _, dim), idxs in groups.items():
        group = [gates[i] for i in idxs]
        nums = np.stack([G.mat.nums for G in group])
        cond = group[0].mat.cond
        daggers = _daggers(nums, cond)
        images = [{} for _ in group]  # point -> its Pauli image, or None
        pending = list(range(len(group)))
        for basis in enumerate_semibases(d, wire_count(d, dim)):
            alive = pending
            for point in basis:
                need = [k for k in alive if point not in images[k]]
                if need:
                    found = _pauli_images(
                        [group[k] for k in need], nums[need], daggers[need], point
                    )
                    for k, P in zip(need, found):
                        images[k][point] = P
                alive = [k for k in alive if images[k][point] is not None]
            for k in alive:
                out[idxs[k]] = SemiCliffordWitness(basis, [images[k][pt] for pt in basis])
            pending = [k for k in pending if out[idxs[k]] is None]
            if not pending:
                break
    return out


def _pauli_images(gates, nums, daggers, point):
    """recognize_pauli(G W G*/s) for each gate, W = Z^p X^q of the point.

    nums and daggers stack the gates' numerators and those of their G*.
    """
    cond = gates[0].mat.cond
    raw = _conjugates(nums, daggers, point, cond)
    out = [None] * len(gates)
    for k in np.flatnonzero(_pauli_shaped(raw, cond)):
        G = gates[k]
        image = ExactMatrix(cond.d, cond.m, raw[k], G.mat.den * G.mat.den)
        out[k] = recognize_pauli(image.scale_q(1 / G.scale2))
    return out


def _conjugates(nums, daggers, point, cond):
    """Numerators of G W G* over den(G)**2, one stacked product for the stack.

    U^p V^q for a gate's conjugate tuple collapses to G (Z^p X^q) G*.  G W
    permutes and rephases the columns of G (see times_pauli); with the
    gates' rows set one above the next, one column map serves them all.
    """
    N, dim = nums.shape[:2]
    p, q = point
    tall = nums.reshape(N * dim, dim, cond.phi)
    words = shift_columns(tall, cond, *column_map(PauliElement(cond.d, 0, p, q)))
    return stacked_product(words.reshape(nums.shape), daggers, cond)


def _pauli_shaped(raw, cond):
    """The screen: whether each stacked matrix has the support of a Pauli.

    A Pauli has one nonzero entry per column, and each entry, a power of
    omega, has coefficients only at the exponents that are multiples of
    c/d.  recognize_pauli returns None for any matrix without that shape.
    """
    support = (raw != 0).any(axis=-1)
    off_omega = (raw[..., np.arange(cond.phi) % cond.step != 0] != 0).any(axis=(1, 2, 3))
    return (support.sum(axis=1) == 1).all(axis=1) & ~off_omega


def diagonalize(G, witness):
    """Split G as C1 D C2 along the witness, verifying every invariant."""
    return diagonalize_many([G], [witness])[0]


def diagonalize_many(gates, witnesses):
    """[diagonalize(G, w) for G, w in zip(gates, witnesses)], stacked.

    C2 is the inverse of the Clifford S2 sending Z_i to the semibasis word,
    so conjugating Z_i through C2* lands exactly on the word whose G-image
    the C1 synthesis targets; the middle factor C1* G S2 then commutes with
    every Z_i.  Gates group by base prime, common conductor and dimension;
    in each group the middle factors, their canonical division, the back
    products C1 D C2 and the check that those reproduce G up to phase each
    run as one batch.  A gate that fails the diagonal or the reproduction
    check raises the ValueError it raises on its own, the first such gate
    of the list.
    """
    s2s = [
        synthesize_clifford([PauliElement(G.d, 0, p, q) for p, q in w.semibasis])
        for G, w in zip(gates, witnesses)
    ]
    c1s = [synthesize_clifford(w.pauli_images) for w in witnesses]
    # the syntheses are memoised and shared, so each distinct S2 is inverted once
    c2s = {}
    for s2 in s2s:
        if id(s2) not in c2s:
            c2s[id(s2)] = ScaledUnitary(frozen(s2.mat.dagger()), s2.scale2)
    splits = [None] * len(gates)
    reproduced = [None] * len(gates)
    groups = {}
    for idx, (G, c1, s2) in enumerate(zip(gates, c1s, s2s)):
        m = max(G.mat.m, c1.mat.m, s2.mat.m)
        groups.setdefault((G.d, m, G.dim), []).append(idx)
    for (d, m, _), idxs in groups.items():
        cond = conductor(d, m)
        Gs = _stacked([gates[i].mat for i in idxs], m)
        C1 = _stacked([c1s[i].mat for i in idxs], m)
        S2 = _stacked([s2s[i].mat for i in idxs], m)
        middles = stacked_product(stacked_product(_daggers(C1, cond), Gs, cond), S2, cond)
        dens = [c1s[i].mat.den * gates[i].mat.den * s2s[i].mat.den for i in idxs]
        diags = [
            D.demote_min()
            for D in canonical_reps([ExactMatrix(d, m, M, den) for M, den in zip(middles, dens)])
        ]
        # C1 D C2 against G: a phase check needs no denominators
        backs = stacked_product(
            stacked_product(C1, _stacked(diags, m), cond), _daggers(S2, cond), cond
        )
        same = equal_up_to_phase_stacked(np.stack([backs, Gs], axis=1), cond)
        for i, D, ok in zip(idxs, diags, same):
            splits[i] = Diagonalisation(c1s[i], D, c2s[id(s2s[i])])
            reproduced[i] = ok
    for split, ok in zip(splits, reproduced):
        if not split.diag.is_diagonal():
            raise ValueError("witness does not diagonalise the gate")
        if not ok:
            raise ValueError("diagonalisation does not reproduce the gate")
    return splits


def _stacked(mats, m):
    """The matrices' numerators at conductor d**m, stacked."""
    return np.stack([M.promote(m).nums for M in mats])


def _daggers(nums, cond):
    """Numerators of M* for each stacked M, over M's own denominator."""
    return cond.conj(nums).transpose(0, 2, 1, 3)


def gate_hash(G):
    return gate_hashes([G])[0]


def gate_hashes(gates):
    """sha256 of each gate's canonical representative, as hex."""
    canon = canonical_reps([G.mat for G in gates])
    return [hashlib.sha256(M.to_key()).hexdigest() for M in canon]


def shared_interchange(su, n, documents):
    """to_interchange(su, n), built once per distinct key in the documents dict.

    The key is everything to_interchange reads: the conductor, the
    denominator, the coefficients as bytes with their shape and dtype,
    scale2 and n.  The conductor is the matrix's own, not the minimal one
    to_key demotes to, so two matrices equal in value but written at
    different conductors keep their different documents.  A report that
    repeats a factor holds one document object for it.
    """
    mat = su.mat
    nums = mat.nums
    body = repr(nums.tolist()).encode() if nums.dtype == object else nums.tobytes()
    key = (mat.cond.c, mat.den, nums.shape, nums.dtype.str, body, su.scale2, n)
    doc = documents.get(key)
    if doc is None:
        doc = documents[key] = to_interchange(su, n)
    return doc


def certify(gates, witnesses, documents):
    """(hash, witness, factors) for each gate and its witness, as find_witness returned it.

    factors holds the C1, C2 and D interchange documents, shared through the
    documents dict (see shared_interchange), or is None for a gate without a
    witness.  Every split is checked here, through diagonalize_many, so
    building the reports afterwards checks nothing.
    """
    witnessed = [k for k, w in enumerate(witnesses) if w is not None]
    splits = diagonalize_many([gates[k] for k in witnessed], [witnesses[k] for k in witnessed])
    split_of = dict(zip(witnessed, splits))
    out = []
    for k, (G, witness, digest) in enumerate(zip(gates, witnesses, gate_hashes(gates))):
        factors = None
        if witness is not None:
            n = wire_count(G.d, G.dim)
            split = split_of[k]
            factors = (
                shared_interchange(split.c1, n, documents),
                shared_interchange(split.c2, n, documents),
                shared_interchange(ScaledUnitary.exact(split.diag), n, documents),
            )
        out.append((digest, witness, factors))
    return out


def certificate_report(digest, witness, factors):
    """The JSON-able report of one entry of certify."""
    report = {"gate_hash": digest, "semi_clifford": witness is not None}
    if witness is None:
        report.update({"witness": None, "C1": None, "C2": None, "D": None})
        return report
    report["witness"] = {
        "semibasis": [[list(p), list(q)] for p, q in witness.semibasis],
        "images": [{"c": P.c, "p": list(P.p), "q": list(P.q)} for P in witness.pauli_images],
    }
    report["C1"], report["C2"], report["D"] = factors
    return report
