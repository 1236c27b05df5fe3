"""Torus points, Farey major/minor arcs, and Fourier mass of finite sets.

The major arc M_{a,q}(N, K) is the torus neighborhood ||gamma - a/q|| <= K/N;
the major arcs M(N, K, Q) take the union over reduced a/q with q <= Q, and
the minor arcs are the complement.  For A inside [1, N] with density sigma,
g = 1_A - sigma 1_[N] carries the balanced Fourier mass; by Parseval its
total L^2 mass is |A| (1 - sigma).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .errors import SetOutOfRange, TooLarge

_INT64_SAFE_Q = 3_037_000_500  # largest q with (q - 1)^2 < 2^63
ARC_GUARD = 10**6  # arc_list: the Q(Q-1)/2 + 1 fractions a/q it tests, a bound on the arcs


@dataclass(frozen=True)
class TorusPoint:
    """Point of R/Z: an exact reduced rational plus a float offset.

    frac is None for float-only points, in which case offset holds the whole
    value.  Keeping the rational part exact makes evaluation at arc centers
    drift-free.
    """

    frac: Optional[Fraction]
    offset: float = 0.0

    @classmethod
    def rational(cls, a: int, q: int, offset: float = 0.0) -> "TorusPoint":
        if q < 1:
            raise ValueError("denominator must be >= 1")
        return cls(Fraction(a % q, q), offset)

    @classmethod
    def from_float(cls, x: float) -> "TorusPoint":
        return cls(None, x - math.floor(x))

    def value(self) -> float:
        v = (float(self.frac) if self.frac is not None else 0.0) + self.offset
        return v - math.floor(v)

    def exact(self) -> Fraction:
        """Exact value in [0, 1); float offsets are binary rationals, so exact."""
        v = (self.frac if self.frac is not None else Fraction(0)) + Fraction(self.offset)
        return v - math.floor(v)

    def norm(self) -> float:
        """||gamma||: distance to the nearest integer."""
        v = self.value()
        return min(v, 1.0 - v)

    def is_rational(self) -> bool:
        return self.frac is not None and self.offset == 0.0


@dataclass(frozen=True)
class ArcSpec:
    N: int
    K: float
    Q: float

    def __post_init__(self):
        # negated comparisons, so that NaN fails them; Q = inf is allowed
        if self.N < 1 or not 1 <= self.K < math.inf or not self.Q >= 1:
            raise ValueError("ArcSpec needs N >= 1, a finite K >= 1 and Q >= 1")


def classify(gamma: TorusPoint, spec: ArcSpec) -> Optional[tuple[int, int]]:
    """(a, q) of the major arc containing gamma, or None on the minor arcs.

    Returns the reduced fraction of *smallest denominator* within K/N (ties
    cannot occur on a closed interval of positive length), found by
    Stern-Brocot descent on exact rationals; gamma = 0 classifies as (1, 1).
    """
    t = Fraction(spec.K) / spec.N
    v = gamma.exact()
    if min(v, 1 - v) <= t:
        return (1, 1)
    f = _simplest_in_interval(v - t, v + t)
    if f.denominator <= spec.Q:
        return (f.numerator, f.denominator)
    return None


def _simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator fraction in the closed interval [lo, hi], 0 <= lo <= hi."""
    n = math.ceil(lo)
    if n <= hi:
        return Fraction(n)
    f = math.floor(lo)
    return f + 1 / _simplest_in_interval(1 / (hi - f), 1 / (lo - f))


def arc_list(spec: ArcSpec) -> list[tuple[int, int]]:
    """All reduced (a, q) with 1 <= a <= q <= Q; (1, 1) stands for the 0 arc."""
    Q = math.floor(min(spec.Q, ARC_GUARD))
    if Q * (Q - 1) // 2 + 1 > ARC_GUARD:
        raise TooLarge(f"Q={spec.Q} gives more than the ARC_GUARD of {ARC_GUARD} fractions a/q to list")
    out = [(1, 1)]
    for q in range(2, Q + 1):
        out.extend((a, q) for a in range(1, q) if math.gcd(a, q) == 1)
    return out


def fourier_set(A: Iterable[int], gamma: TorusPoint) -> complex:
    """1_A-hat(gamma) = sum_{n in A} e(n gamma), compensated summation.

    Phases for the rational part a/q come from exact residues
    (n mod q) a mod q, in int64 while (q - 1)^2 fits and in Python
    integers beyond.  A is an iterable or array of int64-sized integers.
    """
    if isinstance(A, np.ndarray):
        n = A.astype(np.int64, copy=False)
    else:
        n = np.fromiter(A, dtype=np.int64)
    if gamma.frac is None:
        phases = n * gamma.offset
    else:
        a, q = gamma.frac.numerator, gamma.frac.denominator
        if q <= _INT64_SAFE_Q:
            res = (n % q) * a % q / q
        else:
            res = np.array([(x * a) % q / q for x in n.tolist()], dtype=np.float64)
        phases = res + n * gamma.offset
    turns = 2.0 * math.pi * phases
    return complex(math.fsum(np.cos(turns).tolist()), math.fsum(np.sin(turns).tolist()))


def interval_transform(N: int, gamma: TorusPoint) -> complex:
    """sum_{n=1}^{N} e(n gamma) in closed form (geometric / Dirichlet kernel)."""
    v = gamma.value()
    if v == 0.0:
        return complex(N)
    s = math.sin(math.pi * v)
    ratio = math.sin(math.pi * N * v) / s
    return cmath.exp(1j * math.pi * (N + 1) * v) * ratio


_NODE_BLOCK = 1 << 14  # nodes per block of interval_transform_nodes


def interval_transform_nodes(N: int, G: int, nodes: np.ndarray) -> np.ndarray:
    """sum_{n=1}^{N} e(-n j / G) at integer nodes 0 <= j < G, G a power of two.

    The conjugate of interval_transform(N, j / G), as
    (E(j) - E((2N + 1) j)) / (2i sin(pi j / G)) with E(k) = e^(-i pi k / G).
    Each k is reduced exactly mod 2G and E(k) read from a two-level table,
    t_hi[k >> s] * t_lo[k mod 2^s] with 2^s about sqrt(2G), so no node pays
    for a sine or an exponential.  A node j > G/2 is taken as the conjugate
    at G - j, where the small sine near j = G keeps its relative precision.
    """
    if G < 2 or G & (G - 1):
        raise ValueError(f"G must be a power of two >= 2, got {G}")
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= G):
        raise ValueError(f"nodes must lie in [0, {G})")
    mask = 2 * G - 1
    s = (mask.bit_length() + 1) // 2
    low = (1 << s) - 1
    # angles k / G taken exactly in [-1, 1) before the one float product by pi
    top = np.arange(0, 2 * G, 1 << s)
    t_hi = np.exp(-1j * np.pi * ((((top + G) & mask) - G) / G))
    t_lo = np.exp(-1j * np.pi * (np.arange(low + 1) / G))
    step = (2 * N + 1) & mask
    out = np.empty(nodes.size, dtype=np.complex128)
    for lo in range(0, nodes.size, _NODE_BLOCK):
        j = nodes[lo : lo + _NODE_BLOCK]
        upper = j > G // 2
        j = np.where(upper, G - j, j)
        k = (j * step) & mask
        e_j = t_hi[j >> s] * t_lo[j & low]
        diff = e_j - t_hi[k >> s] * t_lo[k & low]
        # e_j.imag = -sin(pi j / G), so diff / (2i sin) = (-diff.imag + i diff.real) * h;
        # j = 0, where sin vanishes, is set to N afterwards
        neg_sin = e_j.imag
        at_zero = j == 0
        neg_sin[at_zero] = 1.0
        h = 0.5 / neg_sin
        blk = out[lo : lo + j.size]
        blk.real = -diff.imag * h
        blk.imag = np.where(upper, -diff.real, diff.real) * h
        blk[at_zero] = N
    return out


def blocked_spectrum(head: np.ndarray, G: int) -> np.ndarray:
    """DFT X of the G-point grid x = head zero-padded, from M-point FFTs.

    head is real, of length M; M and G are powers of two with M <= G.  With
    P = G / M, row r <= P/2 of the result holds X[P u + r] =
    FFT_M(head e(-r n / G))[u], one batched FFT of rows that fit in cache;
    real x has X[G - j] = conj X[j], which gives the rows P/2 < r < P.  The
    twiddle angles r n < G/2 are exact integers, taken as the outer product
    t_hi[r, n >> s] t_lo[r, n mod 2^s] with 2^s about sqrt(M).
    """
    M = head.size
    if G < 1 or G & (G - 1) or M < 1 or M & (M - 1) or M > G:
        raise ValueError(f"need powers of two M <= G, got M = {M}, G = {G}")
    R, s = G // M // 2 + 1, M.bit_length() // 2
    r = np.arange(R)[:, None]
    t_hi = np.exp(-2j * np.pi / G * (r * np.arange(0, M, 1 << s)))
    t_lo = np.exp(-2j * np.pi / G * (r * np.arange(1 << s)))
    z = np.empty((R, M), dtype=np.complex128)
    np.multiply(t_hi[:, :, None], t_lo[:, None, :], out=z.reshape(R, -1, 1 << s))
    z *= head
    return np.fft.fft(z, axis=1)


def g_hat(A: Iterable[int], N: int, gamma: TorusPoint) -> complex:
    """Fourier transform of g = 1_A - sigma 1_[N] at gamma."""
    elems = sorted(set(A))
    if elems and (elems[0] < 1 or elems[-1] > N):
        raise SetOutOfRange(f"A must lie in [1, {N}]")
    sigma = len(elems) / N
    return fourier_set(elems, gamma) - sigma * interval_transform(N, gamma)


def _g_hat_grid(A: np.ndarray, N: int, nodes: np.ndarray) -> np.ndarray:
    """|g-hat| at an array of float torus points (vectorized, node-chunked)."""
    phase = np.empty(nodes.size, dtype=np.complex128)
    chunk = max(1, (1 << 22) // max(1, A.size))
    for lo in range(0, nodes.size, chunk):
        blk = nodes[lo : lo + chunk]
        phase[lo : lo + blk.size] = np.exp(2j * np.pi * np.outer(blk, A)).sum(axis=1)
    v = np.mod(nodes, 1.0)
    s = np.sin(np.pi * v)
    safe = np.where(s == 0.0, 1.0, s)
    ratio = np.sin(np.pi * N * v) / safe
    interval = np.exp(1j * np.pi * (N + 1) * v) * ratio
    interval = np.where(v == 0.0, complex(N), interval)
    sigma = len(A) / N
    return np.abs(phase - sigma * interval)


def arc_l2_mass(
    A: Iterable[int], N: int, a: int, q: int, K: float, oversample: int = 32
) -> float:
    """Trapezoid quadrature of |g-hat|^2 over [a/q - K/N, a/q + K/N].

    oversample * ceil(2K) + 1 uniform nodes; g-hat is a trigonometric
    polynomial of degree <= N, so node spacing <= 1/(oversample*N) controls
    the error.
    """
    if math.gcd(a, q) != 1:
        raise ValueError("a/q must be reduced")
    elems = np.array(sorted(set(A)), dtype=np.int64)
    if elems.size and (elems[0] < 1 or elems[-1] > N):
        raise SetOutOfRange(f"A must lie in [1, {N}]")
    n_nodes = oversample * math.ceil(2 * K) + 1
    c = a / q
    nodes = np.linspace(c - K / N, c + K / N, n_nodes)
    vals = _g_hat_grid(elems, N, nodes) ** 2
    step = (nodes[-1] - nodes[0]) / (n_nodes - 1)
    return float((vals.sum() - 0.5 * (vals[0] + vals[-1])) * step)


def fft_grid_size(N: int, oversample: float) -> int:
    """The circle grid: the power of two >= oversample * N, at least 16.

    A power of two keeps the FFT on its fast radix path; a grid of G >= N
    points already samples a degree-< N trigonometric polynomial without
    aliasing, so rounding oversample * N up only refines the spacing.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 1 <= oversample < math.inf:
        raise ValueError(f"oversample must be >= 1 and finite, got {oversample}")
    return max(16, 1 << (math.ceil(oversample * N) - 1).bit_length())


def circle_l2_mass(A: Iterable[int], N: int, oversample: int = 32) -> float:
    """Whole-circle quadrature of |g-hat|^2 on the fft_grid_size grid.

    The periodic rectangle rule on G >= N nodes integrates |g-hat|^2, a
    trigonometric polynomial of degree < N, exactly, recovering
    Parseval's |A|(1 - sigma) up to roundoff; evaluated with blocked_spectrum.
    """
    G = fft_grid_size(N, oversample)
    elems = np.array(sorted(set(A)), dtype=np.int64)
    if elems.size and (elems[0] < 1 or elems[-1] > N):
        raise SetOutOfRange(f"A must lie in [1, {N}]")
    # g shifted down by one (n -> n - 1) onto [0, N), which leaves |g-hat| unchanged
    x = np.zeros(min(G, 1 << (N - 1).bit_length()), dtype=np.float64)
    x[:N] = -elems.size / N
    x[elems - 1] += 1.0  # distinct indices
    s = (np.abs(blocked_spectrum(x, G)) ** 2).sum(axis=1)
    # rows 0 and P/2 hold their own mirrors; each row between stands for two
    return float((s.sum() + s[1:-1].sum()) / G)


def parseval_total(A: Iterable[int], N: int) -> float:
    """Exact Parseval value |A| (1 - sigma) for g = 1_A - sigma 1_[N]."""
    size = len(set(A))
    return size * (1 - size / N)
