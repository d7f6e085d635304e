"""Exact matrices over Q(zeta_{d**m}), scaled unitaries, keys and interchange.

An ExactMatrix holds one integer coefficient tensor (rows, cols, phi) plus a
single positive denominator, all entries sharing the conductor d**m.  A
ScaledUnitary pairs a matrix M with a positive rational s such that
M M* = s I holds exactly; it stands in for the unitary M / sqrt(s) without
ever leaving the field.
"""

from fractions import Fraction
from functools import lru_cache
import math
import re

import numpy as np

from . import _kernels as K
from .cyclo import (
    CycloScalar,
    as_int64_if_safe,
    conductor,
    max_abs,
    monomial_log,
    norm_inverse,
    normalize,
    wide,
)


class ExactMatrix:
    __slots__ = ("d", "m", "nums", "den")

    def __init__(self, d, m, nums, den=1):
        cond = conductor(d, m)
        arr = np.asarray(nums)
        if arr.ndim != 3 or arr.shape[2] != cond.phi:
            raise ValueError("coefficient tensor must be (rows, cols, phi)")
        arr, den = normalize(arr, int(den))
        self.d = d
        self.m = m
        self.nums = as_int64_if_safe(arr)
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, d, m, rows, cols=None):
        cond = conductor(d, m)
        cols = rows if cols is None else cols
        return cls(d, m, np.zeros((rows, cols, cond.phi), dtype=np.int64), 1)

    @classmethod
    def identity(cls, d, dim, m=1):
        cond = conductor(d, m)
        nums = np.zeros((dim, dim, cond.phi), dtype=np.int64)
        nums[np.arange(dim), np.arange(dim), 0] = 1
        return cls(d, m, nums, 1)

    @classmethod
    def from_scalars(cls, d, grid):
        rows = [list(r) for r in grid]
        cells = [
            x if isinstance(x, CycloScalar) else CycloScalar.from_rational(d, x)
            for r in rows
            for x in r
        ]
        m = max(x.m for x in cells)
        cells = [x.promote(m) for x in cells]
        den = math.lcm(*[x.den for x in cells])
        phi = conductor(d, m).phi
        nums = np.zeros((len(rows), len(rows[0]), phi), dtype=object)
        it = iter(cells)
        for i in range(len(rows)):
            for j in range(len(rows[0])):
                x = next(it)
                f = den // x.den
                nums[i, j] = np.array([v * f for v in x.nums], dtype=object)
        return cls(d, m, nums, den)

    @classmethod
    def diag(cls, d, scalars):
        scalars = list(scalars)
        dim = len(scalars)
        grid = [
            [scalars[i] if i == j else 0 for j in range(dim)] for i in range(dim)
        ]
        return cls.from_scalars(d, grid)

    # -- structure --------------------------------------------------------

    @property
    def cond(self):
        return conductor(self.d, self.m)

    @property
    def shape(self):
        return self.nums.shape[:2]

    @property
    def dim(self):
        r, s = self.shape
        if r != s:
            raise ValueError("not square")
        return r

    def entry(self, i, j):
        return CycloScalar(
            self.d, self.m, np.asarray(self.nums[i, j], dtype=object), self.den
        )

    def promote(self, m_new):
        if m_new == self.m:
            return self
        vec = self.cond.promote_tensor(self.nums, m_new)
        return ExactMatrix(self.d, m_new, vec, self.den)

    def demote_min(self):
        m_new, nums = self.cond.demote_min(self.nums)
        return self if m_new == self.m else ExactMatrix(self.d, m_new, nums, self.den)

    def _common(self, other):
        if self.d != other.d:
            raise ValueError("mixed base primes")
        m = max(self.m, other.m)
        return self.promote(m), other.promote(m)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        a, b = self._common(other)
        an, bn = wide(max_abs(a.nums) * b.den + max_abs(b.nums) * a.den, a.nums, b.nums)
        return ExactMatrix(a.d, a.m, an * b.den + bn * a.den, a.den * b.den)

    def __neg__(self):
        return ExactMatrix(self.d, self.m, -self.nums, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        a, b = self._common(other)
        if a.shape[1] != b.shape[0]:
            raise ValueError("dim mismatch")
        cond = a.cond
        A, B = wide(_product_bound(a.nums, b.nums, cond), a.nums, b.nums)
        if A.dtype == object:
            raw = _gr_matmul_obj(A, B, cond)
        else:
            raw = cond.reduce(K.gr_matmul(A, B, cond.c))
        return ExactMatrix(a.d, a.m, raw, a.den * b.den)

    def scale_q(self, q):
        q = Fraction(q)
        (arr,) = wide(max_abs(self.nums) * abs(q.numerator), self.nums)
        return ExactMatrix(self.d, self.m, arr * q.numerator, self.den * q.denominator)

    def scale_vec(self, vec, vden=1):
        """Multiply every entry by the field element vec/vden (reduced coeffs)."""
        cond = self.cond
        vec = np.asarray(vec)
        nums, vec = wide(max_abs(self.nums) * max_abs(vec) * cond.phi * cond.c, self.nums, vec)
        raw = np.zeros(nums.shape[:2] + (cond.c,), dtype=nums.dtype)
        for e in np.flatnonzero(vec):
            idx = (int(e) + np.arange(cond.phi)) % cond.c
            raw[..., idx] += nums * vec[e]
        return ExactMatrix(self.d, self.m, cond.reduce(raw), self.den * vden)

    def scale_zeta(self, e):
        cond = self.cond
        return self.scale_vec(cond.zeta_vec(e % cond.c))

    def scale(self, s):
        """Every entry times the CycloScalar s; scale_q takes a rational."""
        if s.d != self.d:
            raise ValueError("mixed base primes")
        m = max(s.m, self.m)
        sv = s.promote(m)
        return self.promote(m).scale_vec(as_int64_if_safe(np.array(sv.nums, dtype=object)), sv.den)

    def dagger(self):
        conj = self.cond.conj(self.nums)
        return ExactMatrix(self.d, self.m, conj.transpose(1, 0, 2), self.den)

    def pow_int(self, k):
        if k < 0:
            raise ValueError("negative matrix powers are not needed here")
        if k == 0:
            return ExactMatrix.identity(self.d, self.dim, self.m)
        out = None
        base = self
        while True:
            if k & 1:
                out = base if out is None else out @ base
            k >>= 1
            if not k:
                return out
            base = base @ base

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not np.any(self.nums != 0)

    def is_identity(self):
        return self == ExactMatrix.identity(self.d, self.dim, 1)

    def is_diagonal(self):
        r, s = self.shape
        off = ~np.eye(r, s, dtype=bool)
        return not np.any(self.nums[off] != 0)

    def scalar_if_scalar(self):
        """The scalar s with self == s*I, or None."""
        r, s = self.shape
        if r != s or not self.is_diagonal():
            return None
        first = self.nums[0, 0]
        for i in range(1, r):
            if not np.array_equal(self.nums[i, i], first):
                return None
        return CycloScalar(self.d, self.m, np.asarray(first, dtype=object), self.den)

    # -- canonical form -------------------------------------------------------

    def canonical_rep(self):
        """Divide by the first nonzero entry, row-major.  Phase-invariant key."""
        return canonical_reps([self])[0]

    def to_key(self):
        """Stable bytes key for the exact value (minimal conductor, reduced)."""
        small = self.demote_min()
        arr = small.nums
        r, s = small.shape
        head = ("%d|%d|%d|%d|%d|" % (small.d, small.m, r, s, small.den)).encode()
        if arr.dtype == object:
            return head + b"O" + repr(arr.tolist()).encode()
        return head + b"I" + arr.tobytes()

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.d != other.d:
            return NotImplemented
        a, b = self._common(other)
        return a.den == b.den and np.array_equal(a.nums, b.nums)


def frozen(mat):
    """mat with a read-only coefficient array, for a matrix a memo shares."""
    mat.nums.setflags(write=False)
    return mat


def canonical_reps(mats):
    """[M divided by its first nonzero entry, row-major, for M in mats].

    Matrices group by conductor and shape, and each group divides by one
    batched product: M / (entry/den) = nums / entry, so the global
    denominator cancels.  Each distinct leading entry is inverted once.
    """
    out = [None] * len(mats)
    groups = {}
    for idx, M in enumerate(mats):
        groups.setdefault((M.d, M.m, M.shape), []).append(idx)
    for (d, m, (r, s)), idxs in groups.items():
        cond = conductor(d, m)
        N = len(idxs)
        rows = np.arange(N)
        nums = np.stack([mats[i].nums for i in idxs]).reshape(N, r * s, 1, cond.phi)
        nonzero = (nums != 0).any(axis=-1).reshape(N, r * s)
        slots = nonzero.argmax(axis=1)
        if not nonzero[rows, slots].all():
            raise ValueError("zero matrix")
        pairs = [_lead_inverse(d, m, tuple(lead.tolist())) for lead in nums[rows, slots, 0]]
        ivecs = np.stack([vec for vec, _ in pairs]).reshape(N, 1, 1, cond.phi)
        raw = stacked_product(nums, ivecs, cond)
        for row, i, (_, iden) in zip(raw, idxs, pairs):
            out[i] = ExactMatrix(d, m, row.reshape(r, s, cond.phi), iden)
    return out


def equal_up_to_phase(A, B):
    """A == z*B for some nonzero scalar z; the stack of one of equal_up_to_phase_stacked."""
    if A.shape != B.shape:
        return False
    a, b = A._common(B)
    return bool(equal_up_to_phase_stacked(np.stack([a.nums, b.nums])[None], a.cond)[0])


def equal_up_to_phase_stacked(pairs, cond):
    """Whether pairs[k, 0] == z * pairs[k, 1] for a nonzero z, per k.

    pairs is an (N, 2, r, s, phi) stack of numerators over the conductor
    cond.  A/A[slot] == B/B[slot] is tested as A*B[slot] == B*A[slot],
    slot the first nonzero entry of A, as one batched product; the
    denominators cancel, and no field inversion is ever needed.  A zero
    matrix is a multiple only of a zero matrix.
    """
    N = len(pairs)
    entries = pairs.reshape(N, 2, -1, 1, cond.phi)
    nonzero = (entries != 0).any(axis=-1)[..., 0]
    zero = ~nonzero.any(axis=-1)
    rows = np.arange(N)
    slots = nonzero[:, 0].argmax(axis=1)
    # row 0 is every entry of A times B[slot], row 1 every entry of B times A[slot]
    raw = stacked_product(entries, entries[rows, ::-1, slots][:, :, None], cond)
    same = (raw[:, 0] == raw[:, 1]).reshape(N, -1).all(axis=1)
    # a zero B fails at the slot; a zero A holds every product at zero
    return np.where(zero[:, 0], zero[:, 1], nonzero[rows, 1, slots] & same)


def kron(a, b):
    """Tensor product; wire order puts a's indices most significant."""
    if a.d != b.d:
        raise ValueError("mixed base primes")
    m = max(a.m, b.m)
    a = a.promote(m)
    b = b.promote(m)
    cond = a.cond
    r1, s1 = a.shape
    r2, s2 = b.shape
    # every entry of a, as a 1x1 batch item, times b as one row of entries
    A = a.nums.reshape(r1 * s1, 1, 1, cond.phi)
    B = b.nums.reshape(1, 1, r2 * s2, cond.phi)
    raw = stacked_product(A, B, cond)
    out = raw.reshape(r1, s1, r2, s2, cond.phi).transpose(0, 2, 1, 3, 4)
    return ExactMatrix(a.d, m, out.reshape(r1 * r2, s1 * s2, cond.phi), a.den * b.den)


def matmul_many(As, Bs):
    """[a @ b for a, b in zip(As, Bs)], one batched kernel call per group.

    Pairs group by conductor and shapes; each group runs in the one dtype
    its stacked bound allows.
    """
    out = [None] * len(As)
    groups = {}
    for idx, (a, b) in enumerate(zip(As, Bs)):
        if a.d != b.d:
            raise ValueError("mixed base primes")
        if a.shape[1] != b.shape[0]:
            raise ValueError("dim mismatch")
        groups.setdefault((max(a.m, b.m), a.shape, b.shape), []).append(idx)
    for (m, _, _), idxs in groups.items():
        A = np.stack([As[i].promote(m).nums for i in idxs])
        B = np.stack([Bs[i].promote(m).nums for i in idxs])
        cond = conductor(As[idxs[0]].d, m)
        raw = stacked_product(A, B, cond)
        for row, i in zip(raw, idxs):
            out[i] = ExactMatrix(cond.d, m, row, As[i].den * Bs[i].den)
    return out


def powers(mats, k):
    """[I, M, ..., M**(k-1)] for every M, one batched product per exponent; k >= 1."""
    cols = [[ExactMatrix.identity(M.d, M.dim, M.m) for M in mats], list(mats)]
    while len(cols) < k:
        cols.append(matmul_many(cols[-1], mats))
    return [list(p) for p in zip(*cols[:k])]


def orbit_sum(M, k):
    """I + M + ... + M**(k-1)."""
    pows = powers([M], k)[0]
    return sum(pows[1:], pows[0])


def _product_bound(A, B, cond):
    """Bound on the sums a group-ring product of A and B forms."""
    return max_abs(A) * max_abs(B) * A.shape[-2] * cond.phi * cond.c


def stacked_product(A, B, cond):
    """Reduced group-ring product over leading batch axes, in the dtype its bound allows."""
    A, B = wide(_product_bound(A, B, cond), A, B)
    if A.dtype == object:
        return _gr_matmul_obj(A, B, cond)
    return cond.reduce(K.gr_matmul_batch(A, B, cond.c))


def _gr_matmul_obj(A, B, cond):
    """The object lane's entry: the int64 kernel's body on Python ints."""
    return cond.reduce(K.gr_matmul_batch(A, B, cond.c))


# a catalog's gates share few leading entries (63 among the 3,888 divisions
# of the d=3 level-3 certificates), and a norm inverse is a product of
# Galois conjugates
@lru_cache(maxsize=4096)
def _lead_inverse(d, m, lead):
    """_entry_inverse of the coefficients lead, with a read-only vector."""
    vec, den = _entry_inverse(np.array(lead, dtype=object), conductor(d, m))
    vec.setflags(write=False)
    return vec, den


def _entry_inverse(vec, cond):
    """Inverse of a reduced integer coefficient vector, as (vec', den')."""
    hit = monomial_log(vec, cond)
    if hit is not None:
        t, v = hit
        return cond.zeta_vec(-t), v
    return norm_inverse(vec, 1, cond)


class ScaledUnitary:
    __slots__ = ("mat", "scale2")

    def __init__(self, mat, scale2):
        scale2 = Fraction(scale2)
        if scale2 <= 0:
            raise ValueError("scale2 must be positive")
        self.mat = mat
        self.scale2 = scale2

    @classmethod
    def exact(cls, mat):
        return cls(mat, Fraction(1))

    def verify(self):
        prod = self.mat @ self.mat.dagger()
        s = prod.scalar_if_scalar()
        if s is None or not s.is_rational() or s.as_fraction() != self.scale2:
            raise ValueError("mat*mat' is not scale2*I")
        return True

    @property
    def d(self):
        return self.mat.d

    @property
    def dim(self):
        return self.mat.dim


def conjugate_action(G, M):
    """G M G* as an ExactMatrix, computed scale-free as (mat M mat*)/scale2."""
    prod = G.mat @ M @ G.mat.dagger()
    return prod.scale_q(Fraction(1, 1) / G.scale2)


# ---------------------------------------------------------------------------
# interchange documents

INTERCHANGE_VERSION = 1
# conductor tables are dense c x phi(c) arrays, so no conductor passes this
_DENSE_TABLE_CAP = 1000


def max_conductor(d):
    """The largest conductor d**m a gate of base prime d may carry.

    m stays within the fingerprint headroom of d, the highest conductor
    the catalogs can key, and d**m within the cap on dense tables.
    """
    m = fingerprint_headroom(d)
    while m and d ** m > _DENSE_TABLE_CAP:
        m -= 1
    return d ** m


def to_interchange(su, n):
    mat = su.mat
    cond = mat.cond
    den = mat.den
    (nums,) = wide(den, mat.nums)
    # each coefficient as the reduced fraction num/den, denominator positive
    g = np.gcd(nums, den)
    pairs = np.stack([nums // g, den // g], axis=-1)
    entries = pairs.reshape(-1, cond.phi, 2).tolist()
    return {
        "version": INTERCHANGE_VERSION,
        "d": mat.d,
        "n": n,
        "conductor": cond.c,
        "scale2": "%d/%d" % (su.scale2.numerator, su.scale2.denominator),
        "entries": entries,
    }


def _is_int(x):
    # type() rather than isinstance, which would let JSON true and false through
    return type(x) is int


def _field(doc, name, check, what):
    if name not in doc:
        raise ValueError("interchange document has no %r field" % name)
    value = doc[name]
    if not check(value):
        raise ValueError("interchange field %r must be %s" % (name, what))
    return value


def from_interchange(doc):
    """The (ScaledUnitary, n) a document describes; ValueError when malformed.

    Every field is checked before use: the document type, the field types,
    an odd prime d, a conductor d**m with m >= 1 up to max_conductor(d),
    d**(2n) entries of phi(c) integer pairs each, nonzero denominators and
    a positive scale2 written p/q.
    """
    if not isinstance(doc, dict):
        raise ValueError("interchange document must be a JSON object")
    if doc.get("version") != INTERCHANGE_VERSION:
        raise ValueError("unknown interchange version")
    d = _field(doc, "d", lambda x: _is_int(x) and x > 2 and _is_prime(x), "an odd prime")
    n = _field(doc, "n", lambda x: _is_int(x) and x >= 1, "a positive integer")
    c = _field(doc, "conductor", _is_int, "an integer")
    scale2 = _field(doc, "scale2", lambda x: isinstance(x, str), "a string p/q")
    entries = _field(doc, "entries", lambda x: isinstance(x, list), "a list")
    if c > max_conductor(d):
        raise ValueError("conductor %d is past the supported %d" % (c, max_conductor(d)))
    m = 0
    cc = c
    while cc > 1 and cc % d == 0:
        cc //= d
        m += 1
    if cc != 1 or m < 1:
        raise ValueError("conductor is not a power of d")
    cond = conductor(d, m)
    dim = 1
    for _ in range(n):
        dim *= d
        if dim * dim > len(entries):
            raise ValueError("entry count does not match d^n")
    if dim * dim != len(entries):
        raise ValueError("entry count does not match d^n")
    if not re.fullmatch(r"[0-9]+(/0*[1-9][0-9]*)?", scale2) or Fraction(scale2) <= 0:
        raise ValueError("interchange field 'scale2' must be a positive fraction p/q")
    den = 1
    for cell in entries:
        if type(cell) is not list or len(cell) != cond.phi:
            raise ValueError("every entry must list phi(conductor) = %d coefficients" % cond.phi)
        for pq in cell:
            if type(pq) is not list or len(pq) != 2 or not (_is_int(pq[0]) and _is_int(pq[1])):
                raise ValueError("every coefficient must be an integer pair [num, den]")
            if pq[1] == 0:
                raise ValueError("a coefficient has a zero denominator")
            if pq[1] != 1:
                den = math.lcm(den, pq[1])
    flat = [p * (den // q) for cell in entries for p, q in cell]
    nums = np.array(flat, dtype=object).reshape(dim, dim, cond.phi)
    return ScaledUnitary(ExactMatrix(d, m, nums, den), Fraction(scale2)), n


# ---------------------------------------------------------------------------
# modular fingerprints: sound fast keys for canonical forms

# highest m whose conductor d**m the fingerprint tables serve, per base prime
_FP_HEADROOM = {3: 5, 5: 3, 7: 3}


def fingerprint_headroom(d):
    return _FP_HEADROOM.get(d, 3)


def _is_prime(nn):
    if nn < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if nn % sp == 0:
            return nn == sp
    dd = nn - 1
    r = 0
    while dd % 2 == 0:
        dd //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, dd, nn)
        if x in (1, nn - 1):
            continue
        for _ in range(r - 1):
            x = x * x % nn
            if x == nn - 1:
                break
        else:
            return False
    return True


def _find_fp_primes(modulus, count=2, below=2 ** 23):
    out = []
    k = (below - 2) // modulus
    while k > 0 and len(out) < count:
        p = k * modulus + 1
        if _is_prime(p):
            out.append(p)
        k -= 1
    if len(out) < count:
        raise RuntimeError("prime search failed")
    return out


class FingerprintContext:
    """Canonical-form keys modulo two primes with p = 1 (mod d**m_max).

    Matching exact values always produce matching keys (the evaluation
    zeta -> g_c is a ring map and the normalising slot is located exactly),
    so distinct keys prove distinct gates.  Key collisions are resolved by
    the caller with exact comparison.
    """

    def __init__(self, d, m_max):
        self.d = d
        self.m_max = m_max
        order = d ** m_max
        self.primes = _find_fp_primes(order)
        self._tables = {}
        self._gens = []
        for p in self.primes:
            h = 2
            while True:
                g = pow(h, (p - 1) // order, p)
                if pow(g, order // d, p) != 1:
                    break
                h += 1
            self._gens.append(g)

    def powvec(self, pi, m):
        key = (pi, m)
        if key not in self._tables:
            p = self.primes[pi]
            cond = conductor(self.d, m)
            g = pow(self._gens[pi], self.d ** (self.m_max - m), p)
            tab = np.empty(cond.phi, dtype=np.int64)
            v = 1
            for e in range(cond.phi):
                tab[e] = v
                v = v * g % p
            self._tables[key] = tab
        return self._tables[key]

    def key(self, mat):
        """Fingerprint of canonical_rep(mat), computed without the division."""
        return self.keys([mat])[0]

    def keys(self, mats):
        """key(mat) for every mat, evaluated as one batch per conductor."""
        out = [None] * len(mats)
        groups = {}
        for idx, mat in enumerate(mats):
            groups.setdefault((mat.m, mat.shape), []).append(idx)
        for (m, (r, s)), idxs in groups.items():
            nums = np.stack([mats[i].nums for i in idxs])
            N = len(idxs)
            rows = np.arange(N)
            # the first nonzero entry of each matrix, row-major, located exactly
            nonzero = nums.any(axis=-1).reshape(N, r * s)
            slots = nonzero.argmax(axis=1)
            if not nonzero[rows, slots].all():
                raise ValueError("zero matrix")
            parts = [[b"%d,%d,%d;" % (r, s, self.d)] for _ in idxs]
            for pi, p in enumerate(self.primes):
                powvec = self.powvec(pi, m)
                ev = K.fp_eval(nums, powvec, p).reshape(N, r * s)
                slot = ev[rows, slots]
                inv = np.array([pow(int(x), p - 2, p) for x in slot], dtype=np.int64)
                norm = (ev * inv[:, None] % p).astype(np.int32)
                for row, i in enumerate(idxs):
                    if slot[row]:
                        parts[row].append(norm[row].tobytes())
                    else:
                        parts[row].append(self._canonical_part(mats[i], pi))
            for row, i in enumerate(idxs):
                out[i] = b"".join(parts[row])
        return out

    def _canonical_part(self, mat, pi):
        """The key part of prime pi when the slot entry vanishes mod p."""
        p = self.primes[pi]
        canon = mat.canonical_rep()
        cev = K.fp_eval(canon.nums, self.powvec(pi, canon.m), p)
        norm = cev * pow(canon.den % p, p - 2, p) % p
        return norm.astype(np.int32).tobytes()
