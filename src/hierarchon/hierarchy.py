"""Hierarchy levels: exact membership and the recursive survey.

Level 1 is the Pauli group up to phase.  A gate sits at level k when
conjugating every generator Pauli lands it in level k-1.  The survey walks
the other way: rephase each level-(k-1) class to order d, keep the
omega-commuting ordered pairs, rebuild the gate that induces each pair,
and sweep its right Pauli factor.  Everything is exact; the mod-p screen
only ever discards pairs, never accepts them.
"""

import hashlib
import json
import os
import shutil
import tempfile
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import _kernels as K
from .cyclo import CycloScalar, monomial_log
from .exactmat import (
    ExactMatrix,
    FingerprintContext,
    ScaledUnitary,
    equal_up_to_phase,
    fingerprint_headroom,
    from_interchange,
    matmul_many,
    powers,
    to_interchange,
)
from .phasespace import (
    PauliElement,
    _right_paulis,
    recognize_pauli,
    shift_columns,
    to_matrix,
    wire_count,
)
from .svn import ConjugateTuple, _omega_commutes, reconstruct, tuple_of

CACHE_ENV = "HIERARCHON_CACHE"

# Published class counts the surveys are cross-checked against; the CLI
# reports MATCH/MISMATCH per level instead of assuming them.
REFERENCE_COUNTS = {
    (3, 1): {1: 9, 2: 216, 3: 1944, 4: 7128, 5: 22680, 6: 69336},
    (5, 1): {1: 25, 2: 3000, 3: 7500, 4: 435000, 5: 2235000},
    (7, 1): {1: 49, 2: 16464, 3: 806736, 4: 6338640},
}

@lru_cache(maxsize=None)
def fingerprint_context(d):
    return FingerprintContext(d, fingerprint_headroom(d))


# ---------------------------------------------------------------------------
# order-d rephasing


def _iroot(x, k):
    """floor(x ** (1/k)) for a nonnegative int, by integer Newton."""
    if x < 2:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


def _root_fraction(q, k):
    """The exact rational k-th root of a positive Fraction, or None."""
    a = _iroot(q.numerator, k)
    b = _iroot(q.denominator, k)
    if a ** k == q.numerator and b ** k == q.denominator:
        return Fraction(a, b)
    return None


@lru_cache(maxsize=None)
def _norm_witness(d, x):
    """A scalar tau with tau * conj(tau) == x, for a positive integer x.

    Quadratic Gauss sums give the ramified part: g = sum_t zeta_d**(t*t)
    has g * conj(g) == d.  That covers x == d**a * square, which is every
    norm the surveys produce; anything else returns None.
    """
    a = 0
    while x % d == 0:
        x //= d
        a += 1
    r = _iroot(x, 2)
    if r * r != x:
        return None
    g = sum(CycloScalar.omega(d, t * t) for t in range(d))
    return g ** a * CycloScalar.from_rational(d, r)


class PhasedGate:
    """A matrix plus a scalar phase chosen so (phase * base)**d == I."""

    __slots__ = ("base", "phase")

    def __init__(self, base, phase):
        self.base = base
        self.phase = phase

    def matrix(self):
        return self.base.scale(self.phase).demote_min()


def _corrections_reason(M, power=None):
    """order_d_corrections(M) and why it is None; power, when given, is M**d."""
    d = M.d
    lam = (M.pow_int(d) if power is None else power).scalar_if_scalar()
    if lam is None or lam.is_zero():
        return None, "power_not_scalar"
    lam = lam.demote_min()
    rho = lam.abs2()
    if not rho.is_rational():
        return None, "norm_not_dth_power"
    s = _root_fraction(rho.as_fraction(), d)
    if s is None:
        return None, "norm_not_dth_power"
    tau = _norm_witness(d, s.numerator * s.denominator)
    if tau is None:
        return None, "no_norm_witness"
    taubar = tau.conjugate() * CycloScalar.from_rational(d, Fraction(1, s.denominator))
    # unit = lam / tau_s**d with tau_s * conj(tau_s) == s, so |unit| == 1
    unit = lam * taubar ** d * CycloScalar.from_rational(d, 1 / rho.as_fraction())
    unit = unit.demote_min()
    # the quadratic Gauss sum squares to -d when d = 3 mod 4, so the witness
    # can be off by a sign: unit is then -zeta**t
    hit = monomial_log(unit.nums, unit.cond) if unit.den == 1 else None
    if hit is None or hit[1] not in (1, -1):
        return None, "unit_not_root"
    t, sign = hit
    c = unit.cond.c
    if t % d == 0:
        m_e = unit.m
        e = (-(t // d)) % c
    else:
        m_e = unit.m + 1
        e = (-t) % (c * d)
    # c0**d == sign * zeta**-t * taubar**d / s**d == sign * zeta**-t * unit / lam
    # and sign * zeta**-t * unit == sign**2 == 1, so c0**d == lam**-1 (d odd)
    c0 = CycloScalar.zeta(d, m_e, e) * taubar * CycloScalar.from_rational(d, Fraction(sign) / s)
    return [PhasedGate(M, c0 * CycloScalar.omega(d, j)) for j in range(d)], None


def order_d_corrections(M):
    """The d scalar rephasings of M with (phase * M)**d == I, or None.

    M**d must be a scalar whose conjugate-norm is the d-th power of a
    rational; the quotient by a norm witness must then be a root of unity.
    Both conditions hold for every representative the surveys emit.
    """
    out, _ = _corrections_reason(M)
    return out


# ---------------------------------------------------------------------------
# catalogs


class LevelCatalog:
    """The distinct phase classes of one level, fingerprint-indexed.

    Representatives are kept in fingerprint-digest order, so repeated runs
    produce identical catalogs.  A digest miss disproves membership
    outright; digest hits are confirmed by exact cross-multiplication, so
    collisions cost time, never correctness.
    """

    def __init__(self, d, n, k, fp):
        self.d = d
        self.n = n
        self.k = k
        self.fp = fp
        self.digests = []
        self._reps = []
        self._buckets = {}
        self.meta = {}

    def __len__(self):
        return len(self.digests)

    def _rep(self, idx):
        return self._reps[idx]

    def representatives(self):
        yield from self._reps

    def _digest(self, mat):
        return hashlib.sha256(self.fp.key(mat)).digest()

    def digests_of(self, mats):
        """_digest of every matrix, fingerprinted in one batch."""
        return [hashlib.sha256(key).digest() for key in self.fp.keys(mats)]

    def add(self, su, digest=None):
        """Insert a gate class; False when the class is already present.

        digest, when given, is the _digest of su.mat from a batched pass.
        """
        mat = su.mat.demote_min()
        su = ScaledUnitary(mat, su.scale2)
        dig = self._digest(mat) if digest is None else digest
        bucket = self._buckets.get(dig)
        if bucket is not None:
            for idx in bucket:
                if equal_up_to_phase(mat, self._reps[idx].mat):
                    return False
        self._buckets.setdefault(dig, []).append(len(self.digests))
        self.digests.append(dig)
        self._reps.append(su)
        return True

    def contains(self, gate, digest=None):
        """Exact membership of the phase class of gate in this catalog.

        digest, as for add, skips fingerprinting the gate again.
        """
        mat = gate.mat if isinstance(gate, ScaledUnitary) else gate
        mat = mat.demote_min()
        bucket = self._buckets.get(self._digest(mat) if digest is None else digest)
        if not bucket:
            return False
        return any(equal_up_to_phase(mat, self._reps[i].mat) for i in bucket)

    def sort(self):
        order = sorted(range(len(self.digests)), key=lambda i: (self.digests[i], i))
        self.digests = [self.digests[i] for i in order]
        self._reps = [self._reps[i] for i in order]
        self._buckets = {}
        for idx, dig in enumerate(self.digests):
            self._buckets.setdefault(dig, []).append(idx)


def _pauli_catalog(d, n, fp):
    cat = LevelCatalog(d, n, 1, fp)
    for pq in product(range(d), repeat=2 * n):
        P = PauliElement(d, 0, pq[:n], pq[n:])
        cat.add(ScaledUnitary.exact(to_matrix(P)))
    cat.sort()
    cat.meta = {"candidates": 0, "pairs": 0}
    return cat


# ---------------------------------------------------------------------------
# the lift from level k-1 to level k


def _omega_pairs(fp, mats, d):
    """Ordered pairs (a, b) with M_a M_b == omega M_b M_a, exactly.

    The relation is invariant under scaling either side, so raw class
    representatives are fine.  A few product entries are compared mod p
    first, which cuts the N*N grid to roughly the true pairs; each
    survivor is then verified exactly.
    """
    N = len(mats)
    if N == 0:
        return []
    p = fp.primes[0]
    dim = mats[0].dim
    ev = np.empty((N, dim, dim), dtype=np.int64)
    for i, mat in enumerate(mats):
        ev[i] = K.fp_eval(mat.nums, fp.powvec(0, mat.m), p)
    omega_p = int(fp.powvec(0, 1)[1])
    mask = np.ones((N, N), dtype=bool)
    for r, c in ((0, 0), (0, 1), (1, 0)):
        rows = np.ascontiguousarray(ev[:, r, :])
        cols = np.ascontiguousarray(ev[:, :, c])
        # prod[a, b] == (M_a M_b)[r, c] mod p, and prod.T gives (M_b M_a)[r, c]
        prod = rows @ cols.T % p
        mask &= (prod - omega_p * prod.T) % p == 0
        if not mask.any():
            return []
    out = []
    for a, b in np.argwhere(mask):
        if _omega_commutes(mats[a], mats[b], 1, d):
            out.append((int(a), int(b)))
    return out


def _monomials(pow_pairs, d):
    """Up[i] @ Vp[j] for every (Up, Vp) and (i, j), row-major.

    A monomial with i or j zero is a power itself, so only the (d-1)**2
    others per pair are formed, as one batched product.
    """
    ij = [(i, j) for i in range(1, d) for j in range(1, d)]
    products = iter(matmul_many(
        [Up[i] for Up, _ in pow_pairs for i, _ in ij],
        [Vp[j] for _, Vp in pow_pairs for _, j in ij],
    ))
    return [
        Vp[j] if i == 0 else Up[i] if j == 0 else next(products)
        for Up, Vp in pow_pairs
        for i in range(d)
        for j in range(d)
    ]


def _closure_gaps(monos, digests, catalog):
    """Exponents (i, j) = divmod(idx, d) of the monos[idx] that miss the catalog.

    For the d*d monomials of one pair in row-major (i, j) order these are
    the exponents whose U**i V**j misses.  digests holds the catalog digests
    of monos, and every digest hit is confirmed exactly by contains.
    """
    d = catalog.d
    return [
        divmod(idx, d)
        for idx, (M, dig) in enumerate(zip(monos, digests))
        if not catalog.contains(M, digest=dig)
    ]


def _exact_key(M, m):
    """Key of M's exact value at conductor level m >= M.m: equal keys, equal matrices.

    Normalised matrices promoted to one level are equal exactly when their
    shapes, denominators and coefficients are.  An object-lane matrix, past
    int64 and so equal to no int64 one, keys by its to_key bytes.
    """
    if M.nums.dtype == object:
        return M.to_key()
    nums = M.nums if M.m == m else M.cond.promote_tensor(M.nums, m)
    return (M.shape, M.den, nums.tobytes())


# matrices one batched pass of the lift holds at a time; a pass over a block
# of gates or pairs holds d, d*d or d**(2n) matrices for each
_BATCH = 512


def _blocks(items, per_item):
    step = max(1, _BATCH // per_item)
    return (items[lo:lo + step] for lo in range(0, len(items), step))


def _closure_failures(phased, pairs, prev):
    """The gaps of every pair, with each distinct monomial decided once.

    The powers of each phased representative are taken once, and the d*d
    monomials of a block of pairs form one batched product.  Pairs share
    most of their monomials (the d=3 level-4 lift forms 7,128, of which 597
    are distinct), so membership is memoised for the whole closure under
    each monomial's exact key, never under a digest, which two gates can
    share.  The monomials of a block that are new to the memo are
    fingerprinted in one pass and decided by _closure_gaps; each pair's
    gaps are then read from the memo.
    """
    d = prev.d
    dd = d * d
    involved = sorted({x for pair in pairs for x in pair})
    pows = dict(zip(involved, powers([phased[x] for x in involved], d)))
    # every monomial lies at or below the highest level among the powers
    top = max((P.m for ps in pows.values() for P in ps), default=1)
    member = {}  # exact key -> whether the monomial is in prev
    gaps = []
    for block in _blocks(pairs, dd):
        monos = _monomials([(pows[a], pows[b]) for a, b in block], d)
        keys = [_exact_key(M, top) for M in monos]
        fresh = {key: M for key, M in zip(keys, monos) if key not in member}
        if fresh:
            new = list(fresh.values())
            missing = {i * d + j for i, j in _closure_gaps(new, prev.digests_of(new), prev)}
            member.update((key, idx not in missing) for idx, key in enumerate(fresh))
        gaps.extend(
            [divmod(idx, d) for idx, key in enumerate(keys[t * dd:(t + 1) * dd]) if not member[key]]
            for t in range(len(block))
        )
    return gaps


def _right_pauli_sweep(gates, d, n):
    """G P for every gate G and right Pauli P, gate-major, without products.

    G P permutes the columns of G and multiplies each by a power of omega,
    which keeps both the minimal conductor and the content of G, so the
    images come out demoted and normalised.
    """
    src, exps = _right_paulis(d, n)
    out = []
    for G in gates:
        G = G.demote_min()
        images = shift_columns(G.nums, G.cond, src, exps)
        out.extend(ExactMatrix(d, G.m, img, G.den) for img in images)
    return out


def _rephase_all(mats, d):
    """(reps, phased, skipped) over a level, with M**d batched per block.

    Every gate goes through _corrections_reason with its precomputed power;
    reps keeps the gates that rephase, phased their first rephasing, and
    skipped counts the others by reason.
    """
    reps, phased, skipped = [], [], {}
    for block in _blocks(mats, d):
        for M, pows in zip(block, powers(block, d + 1)):
            corr, why = _corrections_reason(M, pows[d])
            if corr is None:
                skipped[why] = skipped.get(why, 0) + 1
                continue
            reps.append(M)
            phased.append(corr[0].matrix())
    return reps, phased, skipped


def _lift_level(prev):
    d, n, k = prev.d, prev.n, prev.k + 1
    fp = prev.fp
    reps, phased, skipped = _rephase_all([su.mat for su in prev.representatives()], d)
    pairs = _omega_pairs(fp, reps, d)

    # monomial closure is automatic up to level 3 and a real constraint after
    closure_failures = []
    if k >= 4:
        kept = []
        for (a, b), gaps in zip(pairs, _closure_failures(phased, pairs, prev)):
            if gaps:
                closure_failures.append({"pair": [a, b], "gaps": gaps})
            else:
                kept.append((a, b))
        pairs = kept

    # the reconstruction start depends on the first member alone, so the
    # memo computes it once per distinct a
    memo = {}
    cat = LevelCatalog(d, n, k, fp)
    for block in _blocks(pairs, d ** (2 * n)):
        gates = [
            reconstruct(ConjugateTuple(d, n, [(phased[a], phased[b])]), memo=memo)
            for a, b in block
        ]
        images = _right_pauli_sweep([G.mat for G in gates], d, n)
        for idx, (img, dig) in enumerate(zip(images, cat.digests_of(images))):
            G = gates[idx // d ** (2 * n)]
            if not cat.add(ScaledUnitary(img, G.scale2), digest=dig):
                raise AssertionError(
                    "right-Pauli sweep repeated a class; the pair list is inconsistent"
                )

    cat.meta = {
        "candidates": len(reps),
        "skipped": skipped,
        "pairs": len(pairs),
        "closure_failures": closure_failures[:20],
        "closure_failure_count": len(closure_failures),
    }
    cat.sort()
    return cat


# ---------------------------------------------------------------------------
# cache


def _cache_path(cache_dir, d, n, k):
    return os.path.join(cache_dir, "d%d_n%d" % (d, n), "level_%d.json" % k)


def _doc_bytes(su, n):
    return json.dumps(to_interchange(su, n), separators=(",", ":"), sort_keys=True).encode()


def _save_cache(cat, cache_dir):
    """Write cat to the cache and return the path.

    The content hash heads the file, so each gate is serialised once into a
    spool file beside the cache while it is hashed, and the spool is copied
    in behind the header.
    """
    path = _cache_path(cache_dir, cat.d, cat.n, cat.k)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    from . import __version__

    tmp = path + ".tmp"
    h = hashlib.sha256()
    with tempfile.TemporaryFile(dir=os.path.dirname(path)) as spool:
        for idx in range(len(cat)):
            doc = _doc_bytes(cat._rep(idx), cat.n)
            h.update(doc)
            if idx:
                spool.write(b",")
            spool.write(doc)
        spool.seek(0)
        head = {
            "version": 1,
            "library": __version__,
            "conductor": cat.fp.d ** cat.fp.m_max,
            "d": cat.d,
            "n": cat.n,
            "k": cat.k,
            "count": len(cat),
            "content_hash": h.hexdigest(),
            "meta": cat.meta,
        }
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(head, sort_keys=True)[:-1].encode())
            fh.write(b',"gates":[')
            shutil.copyfileobj(spool, fh)
            fh.write(b"]}")
    os.replace(tmp, path)
    return path


def _load_cache(d, n, k, cache_dir, fp):
    path = _cache_path(cache_dir, d, n, k)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("cache file %s is nested too deeply" % path) from None
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("gates"), list)
        and type(doc.get("count")) is int
        and "content_hash" in doc
    ):
        raise ValueError("cache file %s is malformed" % path)
    # type() too, since JSON true and 1.0 compare equal to 1
    for field, want in (("version", 1), ("d", d), ("n", n), ("k", k)):
        if type(doc.get(field)) is not int or doc[field] != want:
            raise ValueError("cache file %s does not describe level (%d,%d,%d)" % (path, d, n, k))
    # the header's meta is outside the content hash, so its shape is checked here
    meta = doc.get("meta", {})
    failures = meta.get("closure_failure_count", 0) if isinstance(meta, dict) else None
    if not (type(failures) is int and failures >= 0):
        raise ValueError("cache file %s is malformed" % path)
    gates = doc["gates"]
    if len(gates) != doc["count"]:
        raise ValueError("cache file %s is truncated" % path)
    h = hashlib.sha256()
    for g in gates:
        h.update(json.dumps(g, separators=(",", ":"), sort_keys=True).encode())
    if h.hexdigest() != doc["content_hash"]:
        raise ValueError("cache file %s fails its content hash" % path)
    cat = LevelCatalog(d, n, k, fp)
    for g in gates:
        su, gn = from_interchange(g)
        if gn != n:
            raise ValueError("cache file %s mixes wire counts" % path)
        if su.d != d:
            raise ValueError("cache file %s mixes base primes" % path)
        cat.add(su)
    cat.sort()
    cat.meta = dict(meta)
    cat.meta["from_cache"] = path
    return cat


# ---------------------------------------------------------------------------
# entry points


def _check_request(d, n, k):
    if k < 1:
        raise ValueError("levels start at 1")
    if n not in (1, 2):
        raise ValueError("n is capped at 2")
    if n == 2 and k >= 2:
        raise ValueError(
            "two-wire enumeration above level 1 is out of reach here "
            "(the Clifford quotient alone has millions of classes); "
            "use the dedicated two-qutrit survey instead"
        )


def _cache_root(cache_dir):
    """cache_dir, with None resolved through the HIERARCHON_CACHE variable."""
    if cache_dir is None:
        return os.environ.get(CACHE_ENV) or False
    return cache_dir


def _walk(d, n, first, k, cache_dir):
    """Levels first..k, each loaded from the cache or lifted from the last.

    Level first must be level 1 or cached.
    """
    fp = fingerprint_context(d)
    cat = None
    for level in range(first, k + 1):
        cached = _load_cache(d, n, level, cache_dir, fp) if cache_dir else None
        if cached is not None:
            cat = cached
        else:
            cat = _pauli_catalog(d, n, fp) if level == 1 else _lift_level(cat)
            if cache_dir:
                cat.meta["cache_path"] = _save_cache(cat, cache_dir)
        yield cat


def enumerate_levels(d, n, k, cache_dir=None):
    """The catalogs of levels 1..k on n wires of dimension d, in order.

    Each level is loaded from the cache when present and otherwise lifted
    from the level before it, which is already in memory, so no level is
    built twice.  cache_dir None picks up the HIERARCHON_CACHE environment
    variable; pass False to force a fresh run.  Lifted levels are written
    to the cache.
    """
    _check_request(d, n, k)
    return _walk(d, n, 1, k, _cache_root(cache_dir))


def enumerate_level(d, n, k, cache_dir=None):
    """The catalog of level-k phase classes on n wires of dimension d.

    Takes the arguments of enumerate_levels.  The walk starts from the
    highest cached level at or below k, so a cached level k is the only
    level read.
    """
    _check_request(d, n, k)
    cache_dir = _cache_root(cache_dir)
    first = k
    while first > 1 and not (cache_dir and os.path.exists(_cache_path(cache_dir, d, n, first))):
        first -= 1
    for cat in _walk(d, n, first, k, cache_dir):
        pass
    return cat


def membership(G, k, catalogs=None):
    """Exact level-k membership for a ScaledUnitary.

    Level 1 is monomial recognition; higher levels recurse through the
    conjugates of the generator Paulis.  catalogs, when given as
    {level: LevelCatalog}, replaces recursion at the levels it covers.
    """
    if k < 1:
        raise ValueError("levels start at 1")
    d = G.d
    n = wire_count(d, G.dim)
    if catalogs and k in catalogs:
        return catalogs[k].contains(G.mat)
    if k == 1:
        return recognize_pauli(G.mat, up_to_phase=True) is not None
    return all(
        membership(ScaledUnitary.exact(img), k - 1, catalogs)
        for img in tuple_of(G, n).members()
    )
