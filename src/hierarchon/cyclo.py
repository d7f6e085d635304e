"""Exact arithmetic in Q(zeta_c) for prime-power conductors c = d**m, d odd.

Elements are integer coefficient vectors over the power basis
1, zeta, ..., zeta**(phi-1) with phi = phi(d**m) = d**m - d**(m-1), together
with a positive denominator.  The only relation ever needed is the minimal
polynomial of zeta: sum_j zeta**(j * d**(m-1)) = 0 for j = 0..d-1, which turns
any exponent e >= phi into d-1 basis terms with coefficient -1.
"""

from fractions import Fraction
from functools import lru_cache
import math

import numpy as np


@lru_cache(maxsize=None)
def conductor(d, m):
    return Conductor(d, m)


class Conductor:
    """Reduction, conjugation and promotion tables for one c = d**m."""

    def __init__(self, d, m):
        if d < 3 or d % 2 == 0 or m < 1:
            raise ValueError("conductor must be a power of an odd prime")
        self.d = d
        self.m = m
        self.c = d ** m
        self.step = d ** (m - 1)
        self.phi = self.c - self.step
        # E[e] = coefficients of zeta**e on the power basis, for all e < c
        self._E = self.reduce(np.eye(self.c, dtype=np.int64))

    def reduce(self, arr):
        """(..., c) raw exponent tensor -> (..., phi) reduced tensor.

        zeta**(phi + r) = -sum_{j < d-1} zeta**(j*step + r), so the tail of
        step entries comes off each of the d-1 blocks of the head.
        """
        lead = arr.shape[:-1]
        head = arr[..., : self.phi].reshape(lead + (self.d - 1, self.step))
        return (head - arr[..., None, self.phi:]).reshape(lead + (self.phi,))

    def mul(self, a, b):
        """Product of two reduced coefficient vectors, on Python ints."""
        raw = np.convolve(np.asarray(a, dtype=object), np.asarray(b, dtype=object))
        raw[: raw.size - self.c] += raw[self.c:]  # zeta**c == 1; 2*phi - 1 >= c
        return self.reduce(raw[: self.c])

    def zeta_vec(self, e, dtype=np.int64):
        return self._E[e % self.c].astype(dtype)

    def conj(self, arr):
        """Complex conjugation zeta -> zeta**-1 on a reduced (..., phi) tensor."""
        return self.galois(arr, -1)

    @lru_cache(maxsize=None)
    def _galois_table(self, u):
        if math.gcd(u, self.d) != 1:
            raise ValueError("galois map needs gcd(u, c) = 1")
        return np.ascontiguousarray(self._E[(u * np.arange(self.phi)) % self.c])

    def galois(self, arr, u):
        return np.asarray(arr) @ self._galois_table(u % self.c)

    def units(self):
        return [u for u in range(1, self.c) if u % self.d != 0]

    def promote_tensor(self, arr, m_new):
        """Reindex a reduced tensor into the conductor d**m_new >= d**m."""
        if m_new < self.m:
            raise ValueError("promotion cannot shrink the conductor")
        big = conductor(self.d, m_new)
        f = big.c // self.c
        out = np.zeros(arr.shape[:-1] + (big.phi,), dtype=arr.dtype)
        out[..., f * np.arange(self.phi)] = arr
        return out

    def demote_min(self, arr):
        """(m', arr') with arr' the reduced tensor arr at the smallest conductor d**m'.

        Demoting by a factor f = c / d**m' keeps the exponents that are
        multiples of f, so every other coefficient must vanish.
        """
        arr = np.asarray(arr)
        m_new, f = self.m, 1
        while m_new > 1 and not np.any(
            arr.reshape(arr.shape[:-1] + (self.phi // (f * self.d), f * self.d))[..., 1:]
        ):
            m_new, f = m_new - 1, f * self.d
        return m_new, np.ascontiguousarray(arr[..., ::f])


def normalize(nums, den):
    """Divide out gcd(content, den); den stays positive.  Works on any shape."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    arr = np.asarray(nums)
    if den == 1:
        return arr, den
    g = int(np.gcd.reduce(np.abs(arr), axis=None)) if arr.size else 0
    g = math.gcd(g, abs(den))
    if den < 0:
        g = -g
    if g != 1:
        arr = arr // g
        den = den // g
    return arr, den


def monomial_log(nums, cond):
    """(t, v) with nums == v * zeta**t for an integer v != 0 and t < c, else None.

    A reduced monomial has one of two shapes: v on a single basis vector
    (t < phi), or -v on each of the d-1 exponents of the coset r + step*Z
    (t = phi + r).
    """
    nums = np.asarray(nums)
    support = np.flatnonzero(nums)
    if support.size == 1:
        t = int(support[0])
        return t, int(nums[t])
    if support.size == cond.d - 1:
        r = int(support[0])
        coset = r + cond.step * np.arange(cond.d - 1)
        if np.array_equal(support, coset) and len(set(nums[coset].tolist())) == 1:
            return cond.phi + r, -int(nums[r])
    return None


def root_of_unity_log(nums, den, cond):
    """If nums/den == zeta_c**t exactly, return t; otherwise None.

    Unit-circle field elements that are not roots of unity map to None.
    """
    hit = monomial_log(nums, cond) if den == 1 else None
    if hit is None or hit[1] != 1:
        return None
    return hit[0]


def norm_inverse(nums, den, cond):
    """(nums/den)**-1 as (nums', den'), via the product of Galois conjugates.

    1/a = den * prod_{u != 1} sigma_u(nums) / N, where N = prod_u sigma_u(nums)
    is a plain integer.  Runs on Python ints; the conjugate product can exceed
    int64 long before the inputs do.
    """
    vec = np.asarray(nums).astype(object)
    if not any(vec):
        raise ZeroDivisionError("zero divisor")
    prod = cond.zeta_vec(0, dtype=object)
    for u in cond.units()[1:]:
        prod = cond.mul(prod, cond.galois(vec, u))
    full = cond.mul(prod, vec)
    if any(full[1:]):
        raise ArithmeticError("field norm is not rational; reduction is broken")
    out, N = normalize(den * prod, full[0])
    return as_int64_if_safe(out), N


# an int64 intermediate whose bound stays below this cannot overflow
INT64_SAFE = 2 ** 61


def wide(bound, *arrays):
    """The arrays in one coefficient dtype, chosen once for an operation.

    bound is an upper bound on every intermediate the operation forms.  The
    integer arrays come back as they are when none holds Python objects and
    the bound is below INT64_SAFE, and as Python objects otherwise; the
    kernels run the same body on either.  Every int64-or-object decision is
    made here.
    """
    if bound < INT64_SAFE and all(a.dtype != object for a in arrays):
        return arrays
    return tuple(a.astype(object) for a in arrays)


def as_int64_if_safe(arr):
    arr = np.asarray(arr)
    if arr.dtype != object:
        return arr
    lim = 2 ** 62
    if all(-lim < int(x) < lim for x in arr.flat):
        return arr.astype(np.int64)
    return arr


def max_abs(arr):
    arr = np.asarray(arr)
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return max(abs(int(x)) for x in arr.flat)
    return max(int(arr.max()), -int(arr.min()))


class CycloScalar:
    """A single element of Q(zeta_{d**m}), immutable.

    Mostly a convenience wrapper for tests and entry-level inspection; the
    matrix layer works on whole coefficient tensors and never builds these in
    bulk.
    """

    __slots__ = ("d", "m", "nums", "den")

    def __init__(self, d, m, nums, den=1):
        cond = conductor(d, m)
        arr = np.asarray(nums, dtype=object).reshape(-1)
        if arr.shape != (cond.phi,):
            raise ValueError("expected %d coefficients" % cond.phi)
        arr, den = normalize(arr, int(den))
        self.d = d
        self.m = m
        self.nums = tuple(int(x) for x in arr)
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, d, m=1):
        return cls.from_rational(d, Fraction(0), m)

    @classmethod
    def from_rational(cls, d, q, m=1):
        q = Fraction(q)
        cond = conductor(d, m)
        nums = [q.numerator] + [0] * (cond.phi - 1)
        return cls(d, m, nums, q.denominator)

    @classmethod
    def zeta(cls, d, m, e=1):
        cond = conductor(d, m)
        return cls(d, m, cond.zeta_vec(e, dtype=object), 1)

    @classmethod
    def omega(cls, d, e=1):
        return cls.zeta(d, 1, e)

    # -- structure ----------------------------------------------------

    @property
    def cond(self):
        return conductor(self.d, self.m)

    def promote(self, m_new):
        if m_new == self.m:
            return self
        vec = self.cond.promote_tensor(np.array(self.nums, dtype=object), m_new)
        return CycloScalar(self.d, m_new, vec, self.den)

    def demote_min(self):
        m_new, vec = self.cond.demote_min(np.array(self.nums, dtype=object))
        return self if m_new == self.m else CycloScalar(self.d, m_new, vec, self.den)

    def _pair(self, other):
        if isinstance(other, CycloScalar):
            if other.d != self.d:
                raise ValueError("mixed base primes")
            m = max(self.m, other.m)
            return self.promote(m), other.promote(m)
        return self._pair(CycloScalar.from_rational(self.d, Fraction(other), 1))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        nums = [x * b.den + y * a.den for x, y in zip(a.nums, b.nums)]
        return CycloScalar(a.d, a.m, nums, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return CycloScalar(self.d, self.m, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + (-self._pair(other)[1])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        return CycloScalar(a.d, a.m, a.cond.mul(a.nums, b.nums), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        nums, den = norm_inverse(
            np.array(self.nums, dtype=object), self.den, self.cond
        )
        return CycloScalar(self.d, self.m, np.asarray(nums, dtype=object), den)

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloScalar.from_rational(self.d, 1, self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        vec = self.cond.conj(np.array(self.nums, dtype=object))
        return CycloScalar(self.d, self.m, vec, self.den)

    def galois(self, u):
        vec = self.cond.galois(np.array(self.nums, dtype=object), u)
        return CycloScalar(self.d, self.m, vec, self.den)

    def abs2(self):
        return self * self.conjugate()

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("not rational")
        return Fraction(self.nums[0], self.den)

    def root_of_unity_log(self):
        """t with self == zeta_{d**m}**t at this conductor; raises otherwise."""
        t = root_of_unity_log(
            np.array(self.nums, dtype=object), self.den, self.cond
        )
        if t is None:
            raise ValueError("not a pure phase")
        return t

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloScalar.from_rational(self.d, Fraction(other), 1)
        if not isinstance(other, CycloScalar):
            return NotImplemented
        if self.d != other.d:
            return self.is_rational() and other.is_rational() \
                and self.as_fraction() == other.as_fraction()
        a, b = self._pair(other)
        return a.nums == b.nums and a.den == b.den
