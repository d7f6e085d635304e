"""Semi-Clifford recognition and exact diagonalisation.

A gate is semi-Clifford when its conjugation action sends the Weyl words of
some Lagrangian semibasis to Pauli operators.  Such a gate factors as
C1 D C2 with both C's Clifford and D diagonal; the factors are built and
re-multiplied exactly, so a returned decomposition is a certificate.
"""

import hashlib

from .exactmat import ScaledUnitary, equal_up_to_phase, to_interchange
from .phasespace import (
    PauliElement,
    enumerate_semibases,
    recognize_pauli,
    synthesize_clifford,
    times_pauli,
    wire_count,
)


class SemiCliffordWitness:
    """A semibasis whose monomials all recognize as Paulis, with the images."""

    def __init__(self, semibasis, pauli_images):
        self.semibasis = tuple(semibasis)
        self.pauli_images = list(pauli_images)

    def __repr__(self):
        return "SemiCliffordWitness(%r)" % (self.semibasis,)


class Diagonalisation:
    def __init__(self, c1, diag, c2):
        self.c1 = c1
        self.diag = diag
        self.c2 = c2


def sp_order(d):
    """Order of the symplectic group on one d-dimensional wire."""
    return d * (d * d - 1)


def find_witness(G):
    """First semibasis whose monomials are all Pauli, or None.

    Semibases arrive Z-first from enumerate_semibases, so diagonal gates
    always witness at the plain Z semibasis.
    """
    n = wire_count(G.d, G.dim)
    Gd = G.mat.dagger()
    inv_scale = 1 / G.scale2
    for basis in enumerate_semibases(G.d, n):
        images = []
        for p, q in basis:
            # U^p V^q for the gate's conjugate tuple collapses to G (Z^p X^q) G*
            word = times_pauli(G.mat, PauliElement(G.d, 0, p, q))
            P = recognize_pauli((word @ Gd).scale_q(inv_scale))
            if P is None:
                break
            images.append(P)
        else:
            return SemiCliffordWitness(basis, images)
    return None


def diagonalize(G, witness):
    """Split G as C1 D C2 along the witness, verifying every invariant.

    C2 is the inverse of the Clifford sending Z_i to the semibasis word, so
    conjugating Z_i through C2* lands exactly on the word whose G-image the
    C1 synthesis targets; the middle factor then commutes with every Z_i.
    """
    d = G.d
    s2 = synthesize_clifford(
        [PauliElement(d, 0, p, q) for p, q in witness.semibasis]
    )
    c2 = ScaledUnitary(s2.mat.dagger(), s2.scale2)
    c1 = synthesize_clifford(witness.pauli_images)
    # c2.mat.dagger() is s2.mat
    middle = c1.mat.dagger() @ G.mat @ s2.mat
    diag = middle.canonical_rep().demote_min()
    if not diag.is_diagonal():
        raise ValueError("witness does not diagonalise the gate")
    if not equal_up_to_phase(c1.mat @ diag @ c2.mat, G.mat):
        raise ValueError("diagonalisation does not reproduce the gate")
    return Diagonalisation(c1, diag, c2)


def gate_hash(G):
    return hashlib.sha256(G.mat.canonical_rep().to_key()).hexdigest()


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


def gate_report(G, witness, documents=None):
    """G's witness, as find_witness returned it, and its decomposition as a JSON-able dict.

    With a documents dict, equal C1, C2 and D factors across the reports
    built with it share one interchange document (see shared_interchange).
    """
    n = wire_count(G.d, G.dim)
    report = {"gate_hash": gate_hash(G), "semi_clifford": witness is not None}
    if witness is None:
        report.update({"witness": None, "C1": None, "C2": None, "D": None})
        return report
    split = diagonalize(G, witness)
    report["witness"] = {
        "semibasis": [[list(p), list(q)] for p, q in witness.semibasis],
        "images": [
            {"c": P.c, "p": list(P.p), "q": list(P.q)} for P in witness.pauli_images
        ],
    }
    documents = {} if documents is None else documents
    report["C1"] = shared_interchange(split.c1, n, documents)
    report["C2"] = shared_interchange(split.c2, n, documents)
    report["D"] = shared_interchange(ScaledUnitary.exact(split.diag), n, documents)
    return report
