"""Additive energy of frequency sets on the torus, counted exactly.

E_{2m}(S; delta) counts ordered 2m-tuples whose alternating m-vs-m sum has
torus norm at most delta.  For rational frequencies the count is exact
integer arithmetic (delta = 0 equality on a common denominator; rational
delta by exact comparison); float frequencies fall back to float windows.
The histogram of m-fold sums turns the 2m-fold loop into a
meet-in-the-middle pairing.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .arcs_fourier import TorusPoint, fourier_set
from .errors import PreconditionViolated, TooLarge

WORK_GUARD = 10**9  # |S|^(2m): the ordered 2m-tuples E counts
FOLD_GUARD = 10**6  # m * |S|: the m passes over S that build the histogram

Freq = Union[TorusPoint, Fraction, int, float]


def _as_torus(x: Freq) -> TorusPoint:
    if isinstance(x, TorusPoint):
        return x
    if isinstance(x, (Fraction, int)):
        f = Fraction(x)
        return TorusPoint.rational(f.numerator % f.denominator, f.denominator)
    return TorusPoint.from_float(x)


@dataclass(frozen=True)
class FreqSet:
    """Distinct torus frequencies with the tuple order m and tolerance delta."""

    elems: tuple[TorusPoint, ...]
    m: int
    delta: Union[Fraction, float]

    @classmethod
    def build(cls, elems: Iterable[Freq], m: int, delta: Union[Fraction, float] = 0) -> "FreqSet":
        pts = tuple(_as_torus(x) for x in elems)
        if len({p.exact() for p in pts}) != len(pts):
            raise ValueError("frequencies must be distinct as torus points")
        if m < 1:
            raise ValueError("m must be >= 1")
        if not delta >= 0:
            raise ValueError("delta must be >= 0")
        return cls(pts, m, delta)

    def rational_values(self) -> list[Fraction] | None:
        if all(p.is_rational() for p in self.elems):
            return [p.exact() for p in self.elems]
        return None


def _fold_sums(values: Sequence, m: int, period) -> dict:
    """Histogram of m-fold sums mod period over ordered tuples."""
    hist = {0: 1}
    for _ in range(m):
        new: dict = {}
        for v, c in hist.items():
            for x in values:
                key = (v + x) % period
                new[key] = new.get(key, 0) + c
        hist = new
    return hist


def _window_pair_count(hist: dict, w, period) -> int:
    """sum over (u, v) pairs within w of each other mod period of hist[u] * hist[v]."""
    if not w:
        return sum(c * c for c in hist.values())
    keys = sorted(hist)
    counts = [hist[k] for k in keys]
    prefix = [0]
    for c in counts:
        prefix.append(prefix[-1] + c)
    total = prefix[-1]

    def count_in(lo, hi) -> int:  # closed [lo, hi] within one period
        return prefix[bisect_right(keys, hi)] - prefix[bisect_left(keys, lo)]

    if w * 2 >= period:
        return total * total
    out = 0
    for u, cu in zip(keys, counts):
        lo, hi = u - w, u + w
        if lo < 0:
            inside = count_in(0, hi) + count_in(lo + period, keys[-1])
        elif hi >= period:
            inside = count_in(lo, keys[-1]) + count_in(0, hi - period)
        else:
            inside = count_in(lo, hi)
        out += cu * inside
    return out


def _check_work(n: int, m: int) -> None:
    """TooLarge unless |S|^(2m) <= WORK_GUARD and m |S| <= FOLD_GUARD.

    The power is compared through its exponent first, so it is never built
    for a large m.
    """
    if m * n > FOLD_GUARD:
        raise TooLarge(
            f"m*|S| = {m}*{n} fold steps exceed the FOLD_GUARD of {FOLD_GUARD}"
        )
    if n > 1 and (2 * m >= WORK_GUARD.bit_length() or n ** (2 * m) > WORK_GUARD):
        raise TooLarge(
            f"|S|^(2m) = {n}^{2 * m} tuples exceed the WORK_GUARD of {WORK_GUARD}"
        )


def additive_energy(fs: FreqSet) -> int:
    """E_{2m}(S; delta), exact for rational S.

    Meet in the middle: histogram the m-fold sums once, then pair the two
    halves; the condition b_1+..+b_m - b_{m+1}-..-b_{2m} = 0 (mod 1, up to
    delta) becomes a window count between equal histograms.  Rational S is
    put on its common denominator D and folded as integer numerators mod D;
    ||t/D|| <= delta holds exactly when min(t, D - t) <= floor(delta D).
    """
    n = len(fs.elems)
    if n == 0:
        return 0
    _check_work(n, fs.m)
    vals = fs.rational_values()
    if vals is None:
        hist = _fold_sums([p.value() for p in fs.elems], fs.m, 1.0)
        return _window_pair_count(hist, float(fs.delta), 1.0)
    D = math.lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (D // v.denominator) for v in vals]
    w = math.floor(Fraction(min(fs.delta, 1)) * D)
    return _window_pair_count(_fold_sums(nums, fs.m, D), w, D)


def _arc_cover_length(vals: list[Fraction]) -> Fraction:
    """Length of the shortest closed arc containing all points (exact)."""
    if len(vals) <= 1:
        return Fraction(0)
    pts = sorted(vals)
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    gaps.append(1 - pts[-1] + pts[0])
    return 1 - max(gaps)


def newbm_check(
    T: FreqSet, Q: float, n: int, m: int | None = None
) -> tuple[int, float]:
    """(E_{2m}(T; 0), (Qn)^m): the rational-energy bound's two sides.

    Preconditions checked exactly: rational frequencies with denominator <=
    Q, at most n per denominator, all inside an arc of length 1/(8m).  The
    polylog factor is the caller's to fit as lhs / (Qn)^m.
    """
    m = T.m if m is None else m
    if m < 2:
        raise PreconditionViolated("m must be >= 2")
    vals = T.rational_values()
    if vals is None:
        raise PreconditionViolated("frequencies must be exact rationals")
    per_den: dict[int, int] = {}
    for v in vals:
        if v.denominator > Q:
            raise PreconditionViolated(f"denominator {v.denominator} exceeds Q={Q}")
        per_den[v.denominator] = per_den.get(v.denominator, 0) + 1
    worst = max(per_den.values(), default=0)
    if worst > n:
        raise PreconditionViolated(f"{worst} frequencies share a denominator; n={n}")
    if _arc_cover_length(vals) > Fraction(1, 8 * m):
        raise PreconditionViolated(f"frequencies not inside an arc of length 1/(8m)=1/{8*m}")
    lhs = additive_energy(FreqSet.build(T.elems, m, 0))
    return lhs, float((Q * n) ** m)


@dataclass(frozen=True)
class ChCheck:
    lhs: float
    rhs: float
    ratio: float


def ch_check(A: Iterable[int], N: int, S: FreqSet) -> ChCheck:
    """Large-values inequality, measured:

    lhs = sum_{gamma in S} |1_A-hat(gamma)|,
    rhs = |A| sigma^(-1/2m) E_{2m}(S; 1/2N)^(1/2m).
    """
    elems = np.unique(np.fromiter(A, dtype=np.int64))
    if not elems.size:
        raise ValueError("A must be nonempty")
    sigma = elems.size / N
    lhs = math.fsum(abs(fourier_set(elems, g)) for g in S.elems)
    E = additive_energy(FreqSet.build(S.elems, S.m, Fraction(1, 2 * N)))
    rhs = elems.size * sigma ** (-1.0 / (2 * S.m)) * E ** (1.0 / (2 * S.m))
    ratio = lhs / rhs
    return ChCheck(lhs, rhs, ratio)
