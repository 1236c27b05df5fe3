"""Constructive density increment and the desk-scale iteration driver.

One step: measure the L^2 mass of g-hat = (1_A - sigma 1_[N])-hat on the
major arcs, keep the arcs where it is large (the Omega filter), bucket
dyadically in mass and denominator, and either find a progression of
modulus lambda(q) on which A is strictly denser (pass to the h_{qd}-free
pullback A*) or certify that every denominator q carries few large arcs
(small fibers), which is what feeds the additive-energy contradiction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np

from .arcs_fourier import blocked_spectrum, fft_grid_size, interval_transform_nodes
from .errors import InvariantViolation, SetOutOfRange, TooLarge
from .hfree import HFreeInstance, is_h_free
from .intersective import AuxFamily
from .numutil import factorize

GRID_GUARD = 1 << 23  # FFT grid points G of one arc survey
PEAK_POINTS = 64  # grid nodes per arc over which its |1_A-hat| peak is taken
ENTRY_DTYPE = np.dtype(
    [("a", np.int64), ("q", np.int64), ("peak", np.float64), ("mass", np.float64)]
)


@dataclass
class IncrementState:
    """One step of the iteration: A_i inside [1, N_i] is h_{d_i}-free."""

    step: int
    N: int
    d: int
    A: tuple[int, ...]
    sigma: Fraction
    q_used: Optional[int] = None


def _entries(a, q, peak, mass) -> np.recarray:
    """Arc columns a, q, peak, mass as one record array (ENTRY_DTYPE)."""
    return np.rec.fromarrays([a, q, peak, mass], dtype=ENTRY_DTYPE)


@dataclass(frozen=True)
class GammaSelection:
    """Winning dyadic bucket: entries have q in [Q, 2Q) and sqrt(mass) in
    [sigma sqrt(N)/B, 2 sigma sqrt(N)/B), one record per arc a/q in
    ascending (q, a) order."""

    B: float
    Q: float
    entries: np.recarray
    sigma: Fraction
    size_A: int


@dataclass(frozen=True)
class Increment:
    q: int


@dataclass(frozen=True)
class SmallFibers:
    max_fiber: int


Dichotomy = Union[Increment, SmallFibers]


@dataclass(frozen=True)
class IncrementResult:
    N_star: int
    offset: int
    A_star: tuple[int, ...]
    sigma_star: Fraction


def find_increment(
    A: Iterable[int],
    N: int,
    fam: AuxFamily,
    d: int,
    q: int,
    K: float,
    c0: float = 0.25,
    check_pre: bool = True,
) -> Optional[IncrementResult]:
    """Densest progression {lambda(q) n + r : 1 <= n <= N*} inside [1, N].

    N* = floor(c0 sigma N / (K lambda(q))).  All residues r mod lambda(q)
    and all window shifts are exhausted (two-pointer per residue class), and
    the best window must be strictly denser than A, else None.  The pullback
    A* = {n : lambda(q) n + r in A} is verified h_{qd}-free; a failure would
    contradict the nesting property and raises InvariantViolation.
    """
    elems = sorted(set(A))
    size = len(elems)
    if size == 0:
        return None
    lam = fam.lambda_of(q)
    if check_pre:
        v = is_h_free(elems, HFreeInstance.build(fam.aux_poly(d), N))
        if v is not None:
            raise ValueError(f"A is not h_d-free: {v}")
    sigma = Fraction(size, N)
    n_star = math.floor(c0 * float(sigma) * N / (K * lam))
    if n_star < 1:
        return None
    best = None  # (count, c, s, positions-slice)
    by_class: dict[int, list[int]] = {}
    for mvalue in elems:
        by_class.setdefault(mvalue % lam, []).append(mvalue)
    for c in sorted(by_class):
        pos = [(mv - c) // lam for mv in by_class[c]]
        n_min = 0 if c >= 1 else 1
        lo = 0
        for hi in range(len(pos)):
            while pos[hi] - pos[lo] > n_star - 1:
                lo += 1
            cnt = hi - lo + 1
            s = max(pos[hi] - n_star, n_min - 1)
            if best is None or cnt > best[0]:
                best = (cnt, c, s, (lo, hi))
    if best is None:
        return None
    cnt, c, s, (lo, hi) = best
    if Fraction(cnt, n_star) <= sigma:
        return None
    offset = lam * s + c
    pos = [(mv - c) // lam for mv in by_class[c]]
    a_star = tuple(p - s for p in pos if s + 1 <= p <= s + n_star)
    viol = is_h_free(a_star, HFreeInstance.build(fam.aux_poly(q * d), n_star))
    if viol is not None:
        raise InvariantViolation(
            f"pullback not h_(qd)-free at q={q}, d={d}: {viol}"
        )
    return IncrementResult(n_star, offset, a_star, Fraction(len(a_star), n_star))


def _unfold(buf: np.ndarray, G: int, M: int) -> None:
    """Fill buf[:G], viewed as b[u, r] at node P u + r, from its columns r <= P/2
    by the mirror b[u, r] = b[M - 1 - u, P - r] of an even grid (node G - j
    equals node j), then pad it with its first len(buf) - G <= G entries.
    """
    P = G // M
    R = P // 2 + 1
    b = buf[:G].reshape(M, P)
    b[:, R:] = b[::-1, R - 2 : 0 : -1]
    buf[G:] = buf[: buf.size - G]


def _set_magnitude(
    yhat: np.ndarray, sigma: float, N: int, G: int, nodes: np.ndarray
) -> np.ndarray:
    """|1_A-hat(-j / G)| at nodes 0 <= j < G, from yhat = Y[nodes], the DFT
    of y = 1_A - sigma 1_[1, N] on the G-point grid: by linearity it is
    Y[j] + sigma I(j), I the closed-form interval transform sum_{n<=N} e(-n j / G).
    """
    return np.abs(interval_transform_nodes(N, G, nodes) * sigma + yhat)


def select_gamma(
    A: Iterable[int],
    N: int,
    fam: AuxFamily,
    d: int,
    kappa: float = 1.0,
    oversample: int = 32,
    q_cap: int = 4096,
) -> GammaSelection:
    """Arc survey: peaks of |1_A-hat| and arc masses of |g-hat|^2.

    Arcs M_{a,q}(N, kappa/sigma) for q <= kappa/sigma^(k+1) (clamped at
    q_cap; sparse sets make the nominal range astronomically large).  g
    lives on the first M nodes of a power-of-two grid with spacing
    <= 1/(oversample N), so blocked_spectrum gives g-hat at every node from
    FFTs of length M; each arc takes its mass by trapezoid of |g-hat|^2 over
    all in-arc nodes (an arc wider than the circle wraps around it).  Arcs
    below the sigma^(3k+5) N / log N mass threshold are dropped, and each
    survivor takes its peak over PEAK_POINTS grid nodes, where
    1_A-hat = g-hat + sigma 1_[N]-hat is read from the same spectrum and the
    closed-form interval transform.  Survivors are bucketed
    dyadically in sqrt(mass) and q, and the bucket with the largest
    q^(-1/2) peak sqrt(mass) total wins; ties go to the smaller sqrt(mass)
    exponent, then the smaller q.
    """
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    elems = np.array(sorted(set(A)), dtype=np.int64)
    size = int(elems.size)
    if size and (elems[0] < 1 or elems[-1] > N):
        raise SetOutOfRange(f"A must lie in [1, {N}]")
    sigma = Fraction(size, N)
    if size == 0 or sigma == 1:
        # g = 1_A - sigma 1_[N] vanishes for A = [1, N] (the only choice at
        # N = 1, where the log N threshold is undefined): no arc has mass
        return GammaSelection(0.0, 0.0, _entries([], [], [], []), sigma, size)
    sf = float(sigma)
    k = fam.k
    K = kappa / sf
    q_max = min(q_cap, max(1, math.floor(kappa / sf ** (k + 1))))
    G = fft_grid_size(N, oversample)
    if G > GRID_GUARD:
        raise TooLarge(f"FFT grid of {G} points exceeds the GRID_GUARD of {GRID_GUARD}")
    # g lives on [0, M), the first of the P = G / M blocks of the grid; n = N
    # sits on node 0 when N = G
    M = min(G, 1 << N.bit_length())
    P = G // M
    R = P // 2 + 1
    x = np.zeros(M, dtype=np.float64)
    x[elems % M] = 1.0  # distinct: A lies in [1, N] and N < M or N = M = G
    x[np.arange(1, N + 1) % M] -= sf
    rows = blocked_spectrum(x, G)  # rows[r, u] = g-hat(-(P u + r) / G), r <= P/2
    halfwidth = K / N
    threshold = sf ** (3 * k + 5) * N / math.log(N)

    # reduced fractions a/q, q <= q_max, as flat arrays
    a_parts = [np.array([1], dtype=np.int64)]
    for q in range(2, q_max + 1):
        aa = np.arange(1, q, dtype=np.int64)
        a_parts.append(aa[np.gcd(aa, q) == 1])
    q_arr = np.repeat(np.arange(1, q_max + 1, dtype=np.int64), [p.size for p in a_parts])
    a_arr = np.concatenate(a_parts)
    del a_parts
    centers = a_arr / q_arr
    j_lo = np.ceil((centers - halfwidth) * G - 1e-12).astype(np.int64)
    count = np.floor((centers + halfwidth) * G + 1e-12).astype(np.int64) - j_lo + 1
    del centers
    ok = count >= 2
    wrap = G - 1  # G is a power of two: i & wrap == i mod G
    j_lo &= wrap

    # |g-hat(j / G)|^2 on one shared grid; windows wrap around the circle,
    # and a window longer than the circle counts each full turn once more
    magg2 = np.empty(G + min(int(count.max(initial=2)), G), dtype=np.float64)
    cols = magg2[:G].reshape(M, P)[:, :R]  # node P u + r at cols[u, r]
    np.abs(rows.T, out=cols)
    cols **= 2
    _unfold(magg2, G, M)
    csum = np.empty(magg2.size + 1, dtype=np.float64)
    csum[0] = 0.0
    np.cumsum(magg2, out=csum[1:])
    # trapezoid over the window: whole turns, the rest, minus half the ends
    mass_arr = (count >> (G.bit_length() - 1)) * csum[G]
    mass_arr += csum[j_lo + (count & wrap)] - csum[j_lo]
    mass_arr -= 0.5 * (magg2[j_lo] + magg2[(j_lo + count - 1) & wrap])
    mass_arr /= G

    keep = np.flatnonzero(ok & (mass_arr > threshold) & (mass_arr > 0.0))
    if keep.size == 0:
        return GammaSelection(0.0, 0.0, _entries([], [], [], []), sigma, size)
    a_arr, q_arr, mass, j_lo, count = (v[keep] for v in (a_arr, q_arr, mass_arr, j_lo, count))
    del mass_arr, ok
    # PEAK_POINTS sampled nodes per arc, at offsets that depend on its node
    # count alone: one row of offsets per distinct count
    counts, row = np.unique(count, return_inverse=True)
    frac = np.linspace(0.0, 1.0, PEAK_POINTS)
    rel = np.round(frac[None, :] * (counts[:, None] - 1)).astype(np.int64)

    def sampled(part: slice) -> np.ndarray:
        return (j_lo[part, None] + rel[row[part]]) & wrap

    # |1_A-hat| on the grid, in the buffer that held |g-hat|^2; it is even
    # (node G - j mirrors node j), so rows, which hold the nodes P u + r
    # with r <= P/2 at position r M + u, cover it
    flat = rows.ravel()
    if PEAK_POINTS * keep.size < G // 2:
        # few sampled nodes: evaluate those alone, each as j or G - j,
        # whichever rows holds
        marked = np.zeros(G, dtype=bool)
        marked[sampled(slice(None))] = True
        j = np.flatnonzero(marked)
        f = np.where(j % P > P // 2, G - j, j)
        magg2[j] = _set_magnitude(flat[(f % P) * M + f // P], sf, N, G, f)
    else:
        # every node, at about the cost of one more FFT, unfolded
        nodes = (np.arange(M) * P + np.arange(R)[:, None]).ravel()
        cols[...] = _set_magnitude(flat, sf, N, G, nodes).reshape(R, M).T
        _unfold(magg2, G, M)
    peak = np.empty(keep.size, dtype=np.float64)
    chunk = (1 << 21) // PEAK_POINTS
    for lo in range(0, keep.size, chunk):
        part = slice(lo, lo + chunk)
        peak[part] = magg2[sampled(part)].max(axis=1)
    del j_lo, count, row, keep
    bexp = np.ceil(np.log2(sf * math.sqrt(N) / np.sqrt(mass))).astype(np.int64)
    qexp = np.frexp(q_arr.astype(np.float64))[1] - 1  # floor(log2 q), exact
    b_min, n_q = int(bexp.min()), int(qexp.max()) + 1
    code = (bexp - b_min) * n_q + qexp  # ascending in (bexp, qexp)
    del bexp, qexp
    # partial sum of q^(-1/2) * peak * sqrt(mass): each bucket's
    # contribution to the Cauchy-Schwarz'd arc inequality
    totals = np.bincount(code, weights=peak * np.sqrt(mass / q_arr))
    totals[np.bincount(code) == 0] = -np.inf
    win = int(np.argmax(totals))  # first maximum: smallest bexp, then qexp
    chosen = np.flatnonzero(code == win)  # ascending index = ascending (q, a)
    entries = _entries(a_arr[chosen], q_arr[chosen], peak[chosen], mass[chosen])
    return GammaSelection(2.0 ** (win // n_q + b_min), 2.0 ** (win % n_q), entries, sigma, size)


def cor0_dichotomy(sel: GammaSelection, nu: float) -> Dichotomy:
    """Increment(q) when some fiber {a : (a,q) in Gamma} exceeds nu B^2,
    else SmallFibers(max fiber size)."""
    fibers = np.bincount(sel.entries.q)
    if fibers.size == 0:
        return SmallFibers(0)
    q = int(np.argmax(fibers))  # first maximum: the smallest q
    max_fiber = int(fibers[q])
    if max_fiber <= nu * sel.B**2:
        return SmallFibers(max_fiber)
    return Increment(q)


def measured_nu(sel: GammaSelection) -> float:
    """Desk-scale nu: mean selected-arc mass over sigma |A|, clamped below 1.

    With the bucket invariant mass in [sigma^2 N / B^2, 4 sigma^2 N / B^2)
    this puts nu B^2 in [1, 4), so the dichotomy asks whether some
    denominator carries more than O(1) large arcs.
    """
    n = len(sel.entries)
    if n == 0 or sel.size_A == 0:
        return 0.0
    # left to right as a Python sum: a pairwise numpy mean can round
    # differently and flip a nu comparison
    mean = sum(sel.entries.mass.tolist()) / n
    return min(0.999, mean / (float(sel.sigma) * sel.size_A))


def formula_nu(N: int, sigma: float, c: float = 1.0) -> float:
    """Asymptotic-shape nu = (log N)^(-1/2) exp(-c log(1/sigma)/loglog(1/sigma)).

    Degenerate for sigma > 1/e (loglog undefined); the exponential factor is
    then taken as 1.  Desk-scale values are typically useless; kept behind a
    flag for trajectory bookkeeping.
    """
    base = 1.0 / math.sqrt(math.log(N))
    L = math.log(1.0 / sigma) if sigma < 1 else 0.0
    if L > 1.0:
        base *= math.exp(-c * L / math.log(L))
    return min(0.999, base)


def run_iteration(
    fam: AuxFamily,
    A0: Iterable[int],
    N0: int,
    max_steps: int = 8,
    kappa: float = 1.0,
    nu_formula: bool = False,
    nu_c: float = 1.0,
    c0: float = 0.25,
    oversample: int = 32,
) -> list[IncrementState]:
    """Iterate select_gamma -> cor0_dichotomy -> find_increment.

    Stops on SmallFibers, a failed increment, max_steps, N_i < sqrt(N0), or
    d_i escaping the family's prime bound.  Every pushed state is verified
    h_{d_i}-free; sigma is strictly increasing along the trajectory and
    d_{i+1} = q_used * d_i.
    """
    elems = tuple(sorted(set(A0)))
    v = is_h_free(elems, HFreeInstance.build(fam.aux_poly(1), N0))
    if v is not None:
        raise ValueError(f"A0 is not h-free: {v}")
    states = [IncrementState(0, N0, 1, elems, Fraction(len(elems), N0))]
    while len(states) - 1 < max_steps:
        cur = states[-1]
        if cur.N < math.isqrt(N0) or not cur.A:
            break
        sel = select_gamma(cur.A, cur.N, fam, cur.d, kappa=kappa, oversample=oversample)
        if len(sel.entries) == 0:
            break
        nu = (
            formula_nu(cur.N, float(cur.sigma), nu_c)
            if nu_formula
            else measured_nu(sel)
        )
        verdict = cor0_dichotomy(sel, nu)
        if isinstance(verdict, SmallFibers):
            break
        q = verdict.q
        if any(p > fam.bound for p, _ in factorize(q * cur.d)):
            break
        res = find_increment(
            cur.A, cur.N, fam, cur.d, q, K=kappa / float(cur.sigma), c0=c0,
            check_pre=False,
        )
        if res is None:
            break
        cur.q_used = q
        states.append(
            IncrementState(
                cur.step + 1, res.N_star, q * cur.d, res.A_star, res.sigma_star
            )
        )
    return states
