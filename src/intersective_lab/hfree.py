"""h-free sets: forbidden differences, checking, greedy and exact extrema.

A set A is h-free when no two distinct elements differ by h(n) for a
positive integer n.  Within [1, N] only the positive values h(n) <= N - 1
matter; they are enumerated once and the rest is combinatorics on the
difference graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import SetOutOfRange, TooLarge
from .intpoly import IntPoly

EXACT_LIMIT = 60
GREEDY_GUARD = 10**6  # N: the positions one greedy scan visits


def greedy_guard(N: int) -> None:
    """TooLarge when a greedy scan of [1, N] would pass GREEDY_GUARD."""
    if N > GREEDY_GUARD:
        raise TooLarge(f"N={N} exceeds the greedy scan's GREEDY_GUARD of {GREEDY_GUARD}")


@dataclass(frozen=True)
class HFreeInstance:
    """h, the ambient N, and the forbidden differences h(N) cap [1, N-1].

    witness maps each forbidden value to the smallest n producing it.
    """

    h: IntPoly
    N: int
    forbidden: tuple[int, ...]
    witness: dict[int, int] = field(compare=False)

    @classmethod
    def build(cls, h: IntPoly, N: int) -> "HFreeInstance":
        if h.is_zero():
            raise ValueError("h must be nonzero")
        witness: dict[int, int] = {}
        if h.degree() == 0:
            v = h.coeffs[0]
            if 1 <= v <= N - 1:
                witness[v] = 1
        else:
            lead_pos = h.leading() > 0
            guard = h.derivative().root_bound()
            n = 1
            while True:
                v = h.evaluate(n)
                if 1 <= v <= N - 1 and v not in witness:
                    witness[v] = n
                if n > guard and ((lead_pos and v > N - 1) or (not lead_pos and v < 1)):
                    break
                n += 1
        return cls(h, N, tuple(sorted(witness)), witness)


@dataclass(frozen=True)
class Violation:
    a: int
    b: int
    n: int


def _check_range(A: list[int], N: int) -> None:
    if A and (A[0] < 1 or A[-1] > N):
        raise SetOutOfRange(f"set must lie in [1, {N}]")


def is_h_free(A: Iterable[int], inst: HFreeInstance) -> Optional[Violation]:
    """None if A is h-free, else the lexicographically smallest violating
    (a, b) with a > b and a - b = h(n), n being the smallest such witness."""
    elems = sorted(set(A))
    _check_range(elems, inst.N)
    aset = set(elems)
    for a in elems:
        best_b = None
        for f in inst.forbidden:
            if f >= a:
                break
            b = a - f
            if b in aset and (best_b is None or b < best_b):
                best_b = b
        if best_b is not None:
            return Violation(a, best_b, inst.witness[a - best_b])
    return None


def greedy_h_free(inst: HFreeInstance) -> list[int]:
    """Scan 1..N, keeping n when it conflicts with nothing already chosen.

    Forward blocking: each kept n marks n + f for every forbidden f, so the
    scan reads one flag per n.
    """
    N = inst.N
    greedy_guard(N)
    forb = np.array(inst.forbidden, dtype=np.int64)
    blocked = np.zeros(N + 1 + int(forb.max(initial=0)), dtype=bool)
    out = []
    for n in range(1, N + 1):
        if not blocked[n]:
            out.append(n)
            blocked[n + forb] = True
    return out


def max_h_free_exact(
    inst: HFreeInstance, limit: int = EXACT_LIMIT
) -> tuple[int, list[int]]:
    """Maximum h-free subset of [1, N] as a maximum independent set.

    Branch and bound over bitsets (Python ints), vertices ordered by degree,
    greedy solution as the initial bound.  Guarded by `limit` since the
    worst case is exponential.
    """
    N = inst.N
    if N > limit:
        raise TooLarge(f"N={N} exceeds the exact-solver limit {limit}")
    forb = set(inst.forbidden)
    adj = [0] * (N + 1)  # adj[v]: bitmask of neighbors, bit u-1 <-> vertex u
    for v in range(1, N + 1):
        m = 0
        for u in range(1, N + 1):
            if u != v and abs(u - v) in forb:
                m |= 1 << (u - 1)
        adj[v] = m
    order = sorted(range(1, N + 1), key=lambda v: (-adj[v].bit_count(), v))
    pos = {v: i for i, v in enumerate(order)}
    padj = [0] * N
    for v in range(1, N + 1):
        m = 0
        u_mask = adj[v]
        while u_mask:
            low = u_mask & -u_mask
            u = low.bit_length()
            m |= 1 << pos[u]
            u_mask ^= low
        padj[pos[v]] = m

    greedy = greedy_h_free(inst)
    best_size = len(greedy)
    best_mask = 0
    for v in greedy:
        best_mask |= 1 << pos[v]

    full = (1 << N) - 1

    def expand(cur: int, size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        if size + cand.bit_count() <= best_size:
            return
        if cand == 0:
            best_size, best_mask = size, cur
            return
        low = cand & -cand
        i = low.bit_length() - 1
        expand(cur | low, size + 1, cand & ~(padj[i] | low))
        expand(cur, size, cand & ~low)

    expand(0, 0, full)
    witness = sorted(order[i] for i in range(N) if best_mask >> i & 1)
    return best_size, witness
