"""Small exact number-theory helpers shared by the other modules."""

from __future__ import annotations

import math

import numpy as np

from .errors import TooLarge

HORNER_BOUND = 1 << 31  # m below this keeps (m - 1)^2 + m - 1 inside int64
RESIDUE_GUARD = 10**7  # m: residues [0, m) held in one array by a full scan
PRIME_GUARD = 10**7  # limit: the flags [0, limit] of one Eratosthenes sieve


def primes_up_to(limit: float) -> list[int]:
    """All primes p <= limit (sieve of Eratosthenes)."""
    prime_guard(limit)
    n = math.floor(limit)
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def values_mod(coeffs, s, m: int) -> np.ndarray:
    """g(s) mod m for g = sum coeffs[i] x^i and a 1-D integer array s.

    Horner's rule reduced mod m at every step: in int64 while m is below
    HORNER_BOUND, in Python integers (an object array) above it.  Pass s as
    an integer or object array: numpy reads a list that mixes values below
    2^63 with larger ones as float64.
    """
    dtype = np.int64 if m < HORNER_BOUND else object
    s = np.asarray(s).astype(dtype) % m
    acc = np.zeros(s.shape, dtype=dtype)
    for c in reversed(coeffs):
        acc = (acc * s + c % m) % m
    return acc


def prime_guard(limit: float) -> None:
    """TooLarge when a prime bound (inf included) would pass PRIME_GUARD."""
    if limit > PRIME_GUARD:
        raise TooLarge(f"prime bound {limit} exceeds the PRIME_GUARD of {PRIME_GUARD}")


def residue_guard(m: int) -> None:
    """TooLarge when a scan over all of [0, m) would pass RESIDUE_GUARD."""
    if m > RESIDUE_GUARD:
        raise TooLarge(f"modulus {m} exceeds the RESIDUE_GUARD of {RESIDUE_GUARD}")


def roots_mod(coeffs, m: int) -> list[int]:
    """Every s in [0, m) with g(s) = 0 (mod m), by evaluating all of them."""
    residue_guard(m)
    return np.flatnonzero(values_mod(coeffs, np.arange(m), m) == 0).tolist()


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (p, exponent) pairs, p ascending."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def crt(residues: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine congruences x = r_i (mod m_i) with pairwise coprime moduli.

    Returns (x, M) with 0 <= x < M = prod m_i.
    """
    x, M = 0, 1
    for r, m in residues:
        g, inv, _ = _egcd(M % m, m)
        if g != 1:
            raise ValueError("crt moduli must be pairwise coprime")
        t = ((r - x) * inv) % m
        x += M * t
        M *= m
    return x % M, M


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    return old_r, old_u, old_v


def int_nth_root(n: int, k: int) -> int:
    """floor(n**(1/k)) for n >= 0, k >= 1, exactly.

    Integer Newton iteration from 2^ceil(bits/k), which is above the root,
    so no float is formed and n may have any number of digits.
    """
    if n < 0 or k < 1:
        raise ValueError("int_nth_root expects n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def padic_valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0."""
    if n == 0:
        raise ValueError("v_p(0) is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v
