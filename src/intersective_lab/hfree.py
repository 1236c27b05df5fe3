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

EXACT_LIMIT = 80  # N: maxset --exact takes about a second at N = 80
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
    """Exact maximum h-free subset of [1, N]: its size and the
    lexicographically least maximum set.

    A maximum independent set of the difference graph, bit v - 1 of a Python
    int standing for v.  alpha(cand), the independence number of the vertex
    mask cand, is a memoized branch and reduce: take each vertex of degree
    <= 1 (dropping its neighbour), split off the lowest vertex's connected
    component, else branch on a vertex v of maximum degree, without v or
    with v and without its neighbours.  The witness walks v = 1..N and takes
    v when a maximum set of what remains still contains it.  Guarded by
    `limit` since the worst case is exponential.
    """
    N = inst.N
    if N > limit:
        raise TooLarge(f"N={N} exceeds the exact-solver limit {limit}")
    # the neighbours of v are v - f and v + f inside [1, N], f forbidden
    adj = [0] * N
    for f in inst.forbidden:
        for i in range(N - f):
            adj[i] |= 1 << (i + f)
            adj[i + f] |= 1 << i
    memo = {0: 0}

    def alpha(cand: int) -> int:
        got = memo.get(cand)
        if got is not None:
            return got
        key, taken, todo = cand, 0, cand
        while todo:
            low = todo & -todo
            todo ^= low
            if not cand & low:
                continue
            nb = adj[low.bit_length() - 1] & cand
            if not nb & (nb - 1):
                taken += 1
                cand ^= low | nb
                if nb:  # only the neighbours of the dropped vertex lose degree
                    todo |= adj[nb.bit_length() - 1] & cand
        if cand == 0:
            memo[key] = taken
            return taken
        low = cand & -cand
        comp = frontier = low
        while frontier:
            grow = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                grow |= adj[b.bit_length() - 1]
            frontier = grow & cand & ~comp
            comp |= frontier
        if comp != cand:
            rest = alpha(comp) + alpha(cand ^ comp)
        else:
            best_deg, v, scan = -1, 0, cand
            while scan:
                b = scan & -scan
                scan ^= b
                d = (adj[b.bit_length() - 1] & cand).bit_count()
                if d > best_deg:
                    best_deg, v = d, b
            i = v.bit_length() - 1
            rest = max(alpha(cand ^ v), 1 + alpha(cand & ~(adj[i] | v)))
        memo[key] = taken + rest
        return taken + rest

    rem = (1 << N) - 1
    target = alpha(rem)
    witness = []
    for i in range(N):
        b = 1 << i
        if not rem & b:
            continue
        without = rem & ~(adj[i] | b)
        if 1 + alpha(without) == target:
            witness.append(i + 1)
            target -= 1
            rem = without
        else:
            rem ^= b
    return len(witness), witness
