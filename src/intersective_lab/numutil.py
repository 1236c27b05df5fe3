"""Small exact number-theory helpers shared by the other modules."""

from __future__ import annotations

import math

import numpy as np


def primes_up_to(limit: float) -> list[int]:
    """All primes p <= limit (sieve of Eratosthenes)."""
    n = math.floor(limit)
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


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


def omega(n: int) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n))


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


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
    """floor(n**(1/k)) for n >= 0, k >= 1, exactly."""
    if n < 0 or k < 1:
        raise ValueError("int_nth_root expects n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


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
