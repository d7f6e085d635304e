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
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, product

import numpy as np

from . import _kernels as K
from .cyclo import CycloScalar, monomial_log
from .exactmat import (
    ExactMatrix,
    FingerprintContext,
    ScaledUnitary,
    equal_up_to_phase,
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

# Published class counts the surveys are cross-checked against; the CLI
# reports MATCH/MISMATCH per level instead of assuming them.
REFERENCE_COUNTS = {
    (3, 1): {1: 9, 2: 216, 3: 1944, 4: 7128, 5: 22680, 6: 69336},
    (5, 1): {1: 25, 2: 3000, 3: 7500, 4: 435000, 5: 2235000},
    (7, 1): {1: 49, 2: 16464, 3: 806736, 4: 6338640},
}

# no walk reaches a level whose size passes this many classes
SIZE_CEILING = 1_000_000


def level_size(d, n, k):
    """The number of level-k classes on n wires that the size ceiling reads.

    Level 1 holds the d^(2n) Paulis.  Above it, for one wire, this is
    N(d, k) = d^2 * d(d^2 - 1) * ((d + 1) d^(k-2) - d).  N(d, 2) = d^3(d^2 - 1)
    is the count of one-qudit Cliffords up to phase; above level 2, N is a
    conjecture that every reference count but (5, 1, 3) and every lift run
    agree with.  It gates only the ceiling and is never a verdict.
    """
    if k == 1:
        return d ** (2 * n)
    return d ** 3 * (d * d - 1) * ((d + 1) * d ** (k - 2) - d)


@lru_cache(maxsize=None)
def fingerprint_context(d):
    return FingerprintContext(d)


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


def _corrections_reason(M, power=None):
    """(c0, None) with (c0 M)**d == I, or (None, why); power, when given, is M**d.

    c0 is the first of order_d_corrections(M); the others are c0 omega**j.
    """
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
    return c0, None


def order_d_corrections(M):
    """The d scalar phases c with (c M)**d == I, or None.

    M**d must be a scalar whose conjugate-norm is the d-th power of a
    rational; the quotient by a norm witness must then be a root of unity.
    Both conditions hold for every representative the surveys emit.
    """
    c0, _ = _corrections_reason(M)
    if c0 is None:
        return None
    return [c0 * CycloScalar.omega(M.d, j) for j in range(M.d)]


# ---------------------------------------------------------------------------
# catalogs


class LevelCatalog:
    """The distinct phase classes of one level on one wire, fingerprint-indexed.

    Representatives are kept in fingerprint-digest order, so repeated runs
    produce identical catalogs.  A digest miss disproves membership
    outright; digest hits are confirmed by exact cross-multiplication, so
    collisions cost time, never correctness.
    """

    def __init__(self, d, k):
        self.d = d
        self.k = k
        self.fp = fingerprint_context(d)
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
        if mat is not su.mat:
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


def _pauli_catalog(d):
    cat = LevelCatalog(d, 1)
    for p, q in product(range(d), repeat=2):
        cat.add(ScaledUnitary.exact(to_matrix(PauliElement(d, 0, [p], [q]))))
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
# of gates or pairs holds d or d*d matrices for each
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


def _right_pauli_sweep(gates, d):
    """G P for every gate G and right Pauli P, gate-major, without products.

    G P permutes the columns of G and multiplies each by a power of omega,
    which keeps both the minimal conductor and the content of G, so the
    images come out demoted and normalised.
    """
    src, exps = _right_paulis(d)
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
            c0, why = _corrections_reason(M, pows[d])
            if c0 is None:
                skipped[why] = skipped.get(why, 0) + 1
                continue
            reps.append(M)
            phased.append(M.scale(c0).demote_min())
    return reps, phased, skipped


def _lift_level(prev):
    d, k = prev.d, prev.k + 1
    reps, phased, skipped = _rephase_all([su.mat for su in prev.representatives()], d)
    pairs = _omega_pairs(prev.fp, reps, d)

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
    cat = LevelCatalog(d, k)
    for block in _blocks(pairs, d * d):
        gates = [
            reconstruct(ConjugateTuple(d, 1, [(phased[a], phased[b])]), memo=memo)
            for a, b in block
        ]
        images = _right_pauli_sweep([G.mat for G in gates], d)
        for idx, (img, dig) in enumerate(zip(images, cat.digests_of(images))):
            G = gates[idx // (d * d)]
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


def _cache_path(cache_dir, d, k):
    return os.path.join(cache_dir, "d%d_n1" % d, "level_%d.jsonl" % k)


# one gate's line of a level file; a gate document is a tree, so the check
# for cycles would only cost time
_CANONICAL = json.JSONEncoder(separators=(",", ":"), sort_keys=True, check_circular=False)


def _doc_bytes(su):
    return _CANONICAL.encode(to_interchange(su, 1)).encode()


def _save_cache(cat, cache_dir):
    """Write cat to the store and return the path.

    A level file holds one JSON value per line: the header, each gate in
    digest order, then the sha256 of every byte before that last line.
    """
    path = _cache_path(cache_dir, cat.d, cat.k)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    from . import __version__

    head = {
        "version": 2,
        "library": __version__,
        "conductor": cat.fp.d ** cat.fp.m_max,
        "d": cat.d,
        "n": 1,
        "k": cat.k,
        "count": len(cat),
        "meta": cat.meta,
    }
    h = hashlib.sha256()
    with open(path + ".tmp", "wb") as fh:
        gates = (_doc_bytes(cat._rep(idx)) for idx in range(len(cat)))
        for line in chain([json.dumps(head, sort_keys=True).encode()], gates):
            line += b"\n"
            h.update(line)
            fh.write(line)
        fh.write(json.dumps({"content_hash": h.hexdigest()}).encode() + b"\n")
    os.replace(path + ".tmp", path)
    return path


def _decode(line, path):
    """One line of a level file as JSON; a value nested too deeply is a ValueError."""
    try:
        return json.loads(line)
    except RecursionError:
        raise ValueError("cache file %s is nested too deeply" % path) from None


def _load_cache(d, k, cache_dir):
    """The catalog of level k at dimension d read from the store, or None if absent.

    A first pass checks the layout and the content hash.  The second decodes
    the header, then each gate, adding it before the next line is read, so no
    parsed level is ever held.
    """
    path = _cache_path(cache_dir, d, k)
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    lines, last = 0, b""
    with open(path, "rb") as fh:
        for line in fh:
            h.update(last)
            lines, last = lines + 1, line
    try:
        trailer = json.loads(last) if last.endswith(b"\n") else None
    except (ValueError, RecursionError):
        trailer = None
    if not (isinstance(trailer, dict) and list(trailer) == ["content_hash"]):
        raise ValueError("cache file %s is malformed" % path)
    if trailer["content_hash"] != h.hexdigest():
        raise ValueError("cache file %s fails its content hash" % path)
    with open(path, "rb") as fh:
        head = _decode(fh.readline(), path)
        # type() too, since JSON true and 1.0 compare equal to 1
        if not isinstance(head, dict) or any(
            type(head.get(field)) is not int or head[field] != want
            for field, want in (("version", 2), ("d", d), ("n", 1), ("k", k))
        ):
            raise ValueError("cache file %s does not describe level %d at d=%d" % (path, k, d))
        meta = head.get("meta", {})
        failures = meta.get("closure_failure_count", 0) if isinstance(meta, dict) else None
        count = head.get("count")
        if not (type(count) is int and count >= 0 and type(failures) is int and failures >= 0):
            raise ValueError("cache file %s is malformed" % path)
        if count != lines - 2:
            raise ValueError("cache file %s is truncated" % path)
        cat = LevelCatalog(d, k)
        for line in islice(fh, count):
            su, n = from_interchange(_decode(line, path))
            if n != 1:
                raise ValueError("cache file %s mixes wire counts" % path)
            if su.d != d:
                raise ValueError("cache file %s mixes base primes" % path)
            if not cat.add(su):
                raise ValueError("cache file %s repeats a class" % path)
    cat.sort()
    cat.meta = dict(meta)
    cat.meta["from_cache"] = path
    return cat


# ---------------------------------------------------------------------------
# entry points


def _check_request(d, n, k):
    # catalogs are one-wire; n > 1 is the wire count of a gate file
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
    past, size = _first_past_ceiling(d, n)
    if k >= past:
        raise ValueError(
            "estimated %s%d gates at level %d is past the ceiling of %d"
            % ("" if k == past else "at least ", size, k, SIZE_CEILING)
        )


def _first_past_ceiling(d, n):
    """The first level whose size passes the ceiling, and that size.

    No size past that level is formed.  Two wires stop at level 2 with no
    size, as the two-wire rule refuses every level above 1 first.
    """
    level, size = 1, level_size(d, n, 1)
    while size <= SIZE_CEILING:
        level += 1
        if n != 1:
            return level, None
        size = level_size(d, n, level)
    return level, size


def top_level(d, n):
    """The highest level a walk on n wires of dimension d may reach."""
    return _first_past_ceiling(d, n)[0] - 1


def _walk(d, first, k, cache_dir):
    """Levels first..k, each loaded from the cache or lifted from the last.

    Level first must be level 1 or cached.
    """
    cat = None
    for level in range(first, k + 1):
        cached = _load_cache(d, level, cache_dir) if cache_dir else None
        if cached is not None:
            cat = cached
        else:
            cat = _pauli_catalog(d) if level == 1 else _lift_level(cat)
            if cache_dir:
                cat.meta["cache_path"] = _save_cache(cat, cache_dir)
        yield cat


def enumerate_levels(d, k, cache_dir=None):
    """The catalogs of levels 1..k on one wire of dimension d, in order.

    Each level is loaded from the store at cache_dir when present and
    otherwise lifted from the level before it, which is already in memory,
    so no level is built twice.  Lifted levels are written to the store;
    cache_dir None keeps none.
    """
    _check_request(d, 1, k)
    return _walk(d, 1, k, cache_dir)


def enumerate_level(d, k, cache_dir=None):
    """The catalog of level-k phase classes on one wire of dimension d.

    Takes the arguments of enumerate_levels.  The walk starts from the
    highest cached level at or below k, so a cached level k is the only
    level read.
    """
    _check_request(d, 1, k)
    first = k
    while first > 1 and not (cache_dir and os.path.exists(_cache_path(cache_dir, d, first))):
        first -= 1
    for cat in _walk(d, first, k, cache_dir):
        pass
    return cat


def membership(G, k):
    """Exact level-k membership for a ScaledUnitary.

    Level 1 is monomial recognition; higher levels recurse through the
    conjugates of the generator Paulis.
    """
    if k < 1:
        raise ValueError("levels start at 1")
    d = G.d
    n = wire_count(d, G.dim)
    if k == 1:
        return recognize_pauli(G.mat, up_to_phase=True) is not None
    return all(
        membership(ScaledUnitary.exact(img), k - 1)
        for img in tuple_of(G, n).members()
    )
