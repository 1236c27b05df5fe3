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


def values_mod(coeffs, s, m) -> np.ndarray:
    """g(s) mod m for g = sum coeffs[i] x^i and an integer array s.

    Horner's rule reduced mod m at every step: in int64 while m is below
    HORNER_BOUND, in Python integers (an object array) above it.  Pass s as
    an integer or object array: numpy reads a list that mixes values below
    2^63 with larger ones as float64.  m may also be an int64 array (and the
    coefficients arrays) that broadcast against s, one modulus per entry.
    """
    top = m.max() if isinstance(m, np.ndarray) else m
    dtype = np.int64 if top < HORNER_BOUND else object
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


# ----------------------------------------------------------------------
# Roots modulo many primes at once (Cantor-Zassenhaus on int64 rows)
# ----------------------------------------------------------------------

# Up to this many evaluations (residues times coefficients) in a batch,
# scanning each prime with roots_mod costs less than the kernel's fixed cost
# of some thousand small array operations (1-20 ms on a 2-core Xeon); past
# it the kernel wins, by 3-5x at the primes up to 6400 for degree 2 to 8.
SCAN_WORK = 10**6
KERNEL_PRIME = 1 << 24  # p below this keeps every product of two residues below 2^48
_TABLE_ENTRIES = 1 << 22  # power-table entries held at once: longer batches run in row chunks
# A row's power table (about 2 deg^2 int64) must fit in _TABLE_ENTRIES; the
# int64 bound (2 deg products below 2^48 summed) would allow deg up to 2^14.
KERNEL_DEGREE = math.isqrt(_TABLE_ENTRIES // 2)
_SHIFTS = 8  # shifts delta screened per row in a splitting round


def roots_mod_primes(coeffs, primes) -> list[list[int]]:
    """Sorted roots of f = sum coeffs[i] x^i modulo each prime of `primes`.

    Each p must be below KERNEL_PRIME (PRIME_GUARD keeps it there) and must
    not divide the leading coefficient.  The result equals
    [roots_mod(coeffs, p) for p in primes], which is how batches up to
    SCAN_WORK and degrees past KERNEL_DEGREE are done.  Other batches go
    through Cantor-Zassenhaus with one int64 row per prime: x^p mod f by
    square-and-multiply, F = gcd(f, x^p - x) (its degree is the root count),
    then equal-degree splitting by gcd(F, (x + delta)^((p-1)/2) - 1) over a
    fixed sequence of shifts delta, so the result is deterministic.
    """
    p = np.array(primes, dtype=np.int64).reshape(-1)
    if not p.size:
        return []
    if len(coeffs) == 0:
        raise ValueError("roots_mod_primes needs a nonzero polynomial")
    if p.max() >= KERNEL_PRIME:
        raise ValueError(f"roots_mod_primes needs primes below {KERNEL_PRIME}")
    f = _rows_mod(coeffs, p)
    if not f[:, -1].all():
        raise ValueError("a prime divides the leading coefficient")
    width = f.shape[1]
    if width == 1:
        return [[] for _ in primes]
    if width > KERNEL_DEGREE + 1 or p.sum() * width <= SCAN_WORK:
        return [roots_mod(coeffs, q) for q in p.tolist()]
    step = max(1, _TABLE_ENTRIES // (2 * width * width))
    parts = [(i, *_cantor_zassenhaus(f[i : i + step], p[i : i + step])) for i in range(0, p.size, step)]
    rows = np.concatenate([i + r for i, r, _ in parts])
    roots = np.concatenate([s for _, _, s in parts])
    ends = np.cumsum(np.bincount(rows, minlength=p.size)).tolist()
    flat = roots.tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def _rows_mod(coeffs, p: np.ndarray) -> np.ndarray:
    """(len(p), len(coeffs)) int64: every coefficient reduced mod every p."""
    cols = [
        np.int64(c) % p if -(1 << 63) <= c < 1 << 63 else (c % p.astype(object)).astype(np.int64)
        for c in coeffs
    ]
    return np.stack(cols, axis=1)


def _all_residues(p: np.ndarray):
    """(row, s) for every residue s in [0, p[row]) of every row, in order."""
    row = np.repeat(np.arange(p.size), p)
    return row, np.arange(row.size) - np.repeat(np.cumsum(p) - p, p)


def _cantor_zassenhaus(f: np.ndarray, p: np.ndarray):
    """Sorted (row, root) pairs for rows f whose leading coefficient is a unit mod p."""
    pc = p[:, None]
    f = f * _pow_mod(f[:, -1], p - 2, p)[:, None] % pc
    X = _power_table(f, pc)
    xp = _pow_shift(np.zeros(p.size, np.int64), p, X, pc)
    F, j = _gcd(f, _pad((xp - X[:, 1]) % pc, f.shape[1]), pc)
    every = j == p  # f vanishes on all of F_p, which needs p <= deg f
    row, s = _all_residues(p[every])
    rows, roots = [np.flatnonzero(every)[row]], [s]
    idx = np.flatnonzero((j >= 1) & ~every)
    F, j, stuck = F[idx], j[idx], np.zeros(idx.size, bool)
    t = 0
    while idx.size:
        lin = j == 1
        rows.append(idx[lin])
        roots.append(-F[lin, 0] % p[idx[lin]])
        idx, F, j, stuck = idx[~lin], F[~lin], j[~lin], stuck[~lin]
        if idx.size:
            idx, F, j, stuck = _split_round(idx, F, j, stuck, p[idx], t)
            t += 1
    rows, roots = np.concatenate(rows), np.concatenate(roots)
    order = np.lexsort((roots, rows))
    return rows[order], roots[order]


def _split_round(idx, F, j, stuck, q, t: int):
    """Split each monic F (2 <= j = deg F < q, F | x^q - x) by
    G = gcd(F, (x + delta)^((q-1)/2) - 1); return the pieces G and F / G,
    and F itself, now stuck, where G is not a proper factor.

    G holds the roots r with chi(r + delta) = 1 (chi the Legendre symbol).
    Of the shifts delta = t*_SHIFTS, ..., t*_SHIFTS + _SHIFTS - 1 (mod q)
    each row takes the first with chi((-1)^j F(-delta)) = -1: an odd number
    of roots then has chi(r + delta) = -1, so G is proper whenever j is even
    and unless all roots are on that side when j is odd.  A stuck row, or
    one with no such shift, takes t*_SHIFTS, which runs through every
    residue as t grows, and some delta splits F for odd q: if none did, two
    roots r != s would have sum over delta of chi(r + delta) chi(s + delta)
    = q - 2, not -1.  So every F splits.
    """
    J, rows = int(j.max()), np.arange(idx.size)
    F = F[:, : J + 1]
    qc = q[:, None]
    cand = (t * _SHIFTS + np.arange(_SHIFTS)) % qc
    val = values_mod([F[:, [i]] for i in range(J + 1)], -cand, qc)
    chi = _pow_mod(np.where(j[:, None] % 2 == 1, -val, val) % qc, (qc - 1) // 2, qc)
    delta = cand[rows, np.where(stuck, 0, np.argmax(chi == qc - 1, axis=1))]
    # x^(J - j) F is monic of degree J in every row, and reducing modulo it
    # also reduces modulo F
    h = _pow_shift(delta, (q - 1) // 2, _power_table(_shift(F, J - j), qc), qc)
    h[:, 0] -= 1
    G, dG = _gcd(F, _pad(h % qc, J + 1), qc)
    hit = (dG > 0) & (dG < j)
    Q = _divide(F[hit], j[hit], G[hit], dG[hit], qc[hit])
    return (
        np.concatenate([idx[hit], idx[hit], idx[~hit]]),
        np.concatenate([G[hit], Q, F[~hit]]),
        np.concatenate([dG[hit], j[hit] - dG[hit], j[~hit]]),
        np.repeat([False, True], [2 * hit.sum(), (~hit).sum()]),
    )


def _pow_mod(a: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^e mod p elementwise (arrays broadcast), left-to-right over the bits of e."""
    r = np.ones_like(a)
    for b in reversed(range(int(np.max(e)).bit_length())):
        r = r * r % p
        r = np.where(((e >> b) & 1) == 1, r * a % p, r)
    return r


def _pad(a: np.ndarray, width: int) -> np.ndarray:
    return np.pad(a, ((0, 0), (0, width - a.shape[1])))


def _degree(a: np.ndarray) -> np.ndarray:
    """Degree of each row polynomial; -1 for the zero row."""
    return ((a != 0) * np.arange(1, a.shape[1] + 1)).max(axis=1) - 1


def _shift(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Each row times x^s[row] (s >= 0), cut to the width of a."""
    idx = np.arange(a.shape[1]) - s[:, None]
    return np.where(idx >= 0, np.take_along_axis(a, np.maximum(idx, 0), axis=1), 0)


def _power_table(m: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """x^k mod (m, p) for k < max(2D - 1, D + 1): shape (rows, k, D), m monic of degree D."""
    D = m.shape[1] - 1
    X = np.zeros((m.shape[0], max(2 * D - 1, D + 1), D), np.int64)
    X[:, :D] = np.eye(D, dtype=np.int64)
    for k in range(D, X.shape[1]):
        X[:, k, 1:] = X[:, k - 1, :-1]
        X[:, k] = (X[:, k] - X[:, k - 1, -1:] * m[:, :D]) % pc
    return X


def _mulmod(a: np.ndarray, b: np.ndarray, X: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """a b mod (m, p) rowwise, X the power table of m.

    Products are below p^2 < 2^48, so the D of them in a product coefficient
    and the 2D - 1 of them in the reduction sum are each reduced once.
    """
    D = a.shape[1]
    c = np.zeros((a.shape[0], 2 * D - 1), np.int64)
    for i in range(D):
        c[:, i : i + D] += a[:, i : i + 1] * b
    return np.einsum("rk,rkj->rj", c % pc, X[:, : 2 * D - 1]) % pc


def _pow_shift(delta: np.ndarray, e: np.ndarray, X: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """(x + delta)^e mod (m, p) rowwise, left-to-right over the bits of e."""
    D = X.shape[2]
    r = np.zeros((X.shape[0], D), np.int64)
    r[:, 0] = 1
    for b in reversed(range(int(e.max()).bit_length())):
        r = _mulmod(r, r, X, pc)
        t = delta[:, None] * r + r[:, -1:] * X[:, D]
        t[:, 1:] += r[:, :-1]
        r = np.where(((e >> b) & 1)[:, None] == 1, t % pc, r)
    return r


def _gcd(a: np.ndarray, b: np.ndarray, pc: np.ndarray):
    """Monic gcd mod p of each row pair of equal width, and its degree
    (-1 when both rows are 0).  Each step cancels the leading term of the
    higher row with a multiple of the lower, so no inverse is taken until
    the end."""
    rows = np.arange(a.shape[0])
    da, db = _degree(a), _degree(b)
    while True:
        flip = db > da
        a, b = np.where(flip[:, None], b, a), np.where(flip[:, None], a, b)
        da, db = np.where(flip, db, da), np.where(flip, da, db)
        live = db >= 0
        if not live.any():
            break
        la = np.where(live, a[rows, da], 0)
        lb = np.where(live, b[rows, db], 1)
        a = (lb[:, None] * a - la[:, None] * _shift(b, np.where(live, da - db, 0))) % pc
        da = _degree(a)
    lead = np.where(da >= 0, a[rows, da], 1)
    return a * _pow_mod(lead, pc[:, 0] - 2, pc[:, 0])[:, None] % pc, da


def _divide(f: np.ndarray, df: np.ndarray, g: np.ndarray, dg: np.ndarray, pc: np.ndarray):
    """f / g mod p rowwise, for monic g of degree dg dividing f of degree df."""
    rows, K = np.arange(f.shape[0]), f.shape[1]
    f, q = f.copy(), np.zeros_like(f)
    for t in reversed(range(K)):
        c = np.where(t <= df - dg, f[rows, np.minimum(t + dg, K - 1)], 0)
        q[:, t] = c
        f[:, t:] = (f[:, t:] - c[:, None] * g[:, : K - t]) % pc
    return q


def trial_divide(n: int, limit: int) -> tuple[list[tuple[int, int]], int]:
    """Split n >= 1 by the primes up to limit: the (p, exponent) pairs of
    those primes, p ascending, and the cofactor, which has none of them."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    d = 2
    while d <= limit and d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    # a cofactor in (1, limit] has no factor below d, and d * d > it: a prime
    if 1 < n <= limit:
        out.append((n, 1))
        n = 1
    return out, n


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (p, exponent) pairs, p ascending."""
    return trial_divide(n, n)[0]


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
