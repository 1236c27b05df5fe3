import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersective_lab.errors import SetOutOfRange, TooLarge
from intersective_lab.hfree import (
    GREEDY_GUARD,
    HFreeInstance,
    Violation,
    greedy_h_free,
    is_h_free,
    max_h_free_exact,
)
from intersective_lab.intpoly import IntPoly

X2 = IntPoly([0, 0, 1])
X2M1 = IntPoly([-1, 0, 1])
X3 = IntPoly([0, 0, 0, 1])
X2PX = IntPoly([0, 1, 1])
X3X2M2X = IntPoly([0, -2, 1, 1])
FAMILIES = (X2, X2M1, X3, X3X2M2X)


def brute_max(inst):
    """2^N enumeration oracle via incremental independence DP."""
    N = inst.N
    forb = set(inst.forbidden)
    adj = [0] * (N + 1)
    for v in range(1, N + 1):
        for u in range(1, N + 1):
            if u != v and abs(u - v) in forb:
                adj[v] |= 1 << (u - 1)
    indep = bytearray(1 << N)
    indep[0] = 1
    best = 0
    for mask in range(1, 1 << N):
        low = mask & -mask
        v = low.bit_length()
        rest = mask ^ low
        if indep[rest] and not (adj[v] & rest):
            indep[mask] = 1
            pc = mask.bit_count()
            if pc > best:
                best = pc
    return best


def branch_and_bound_max(inst):
    """Size oracle: branch and bound over vertices ordered by degree, then
    value, pruned only by size + |candidates| against the best set so far
    (the greedy set first)."""
    N = inst.N
    nbrs = [[u for f in inst.forbidden for u in (v - f, v + f) if 1 <= u <= N] for v in range(N + 1)]
    order = sorted(range(1, N + 1), key=lambda v: (-len(nbrs[v]), v))
    pos = {v: i for i, v in enumerate(order)}
    adj = [sum(1 << pos[u] for u in nbrs[v]) for v in order]
    best = len(greedy_h_free(inst))

    def expand(size, cand):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = size
            return
        low = cand & -cand
        expand(size + 1, cand & ~(adj[low.bit_length() - 1] | low))
        expand(size, cand & ~low)

    expand(0, (1 << N) - 1)
    return best


def lex_least_max(inst):
    """The first h-free set, in lexicographic order, of the brute-force size."""
    forb = set(inst.forbidden)
    for combo in itertools.combinations(range(1, inst.N + 1), brute_max(inst)):
        if all(b - a not in forb for a, b in itertools.combinations(combo, 2)):
            return list(combo)


# the branch-and-bound oracle's maximum sizes at N = 1..60, one row per family
# of FAMILIES; test_exact_sizes_match_oracle recomputes the rows up to N = 40
ORACLE_SIZES = (
    (1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6, 6, 7, 7, 8, 8, 8, 9, 9, 10, 10, 10, 10, 10, 10, 10, 10,
     10, 10, 10, 10, 11, 11, 11, 12, 12, 12, 12, 12, 13, 13, 13, 13, 13, 14, 14, 14, 14, 14, 15, 15, 15, 15, 15, 16, 16, 16),
    (1, 2, 3, 3, 3, 3, 4, 5, 5, 5, 5, 6, 7, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 10, 10, 10, 10, 11, 11, 11,
     11, 12, 12, 12, 12, 12, 13, 13, 14, 14, 15, 15, 15, 15, 15, 16, 16, 17, 17, 18, 18, 18, 18, 18, 19, 19, 20, 20, 21, 21),
    (1, 1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 12, 12, 13, 13,
     14, 14, 15, 15, 15, 16, 16, 17, 17, 18, 18, 18, 19, 19, 20, 20, 21, 21, 21, 22, 22, 23, 23, 24, 24, 24, 25, 25, 26, 26),
    (1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 9, 10, 11, 12, 13, 14, 15, 16, 16, 16, 16, 16, 16, 16,
     16, 16, 17, 18, 18, 18, 18, 18, 19, 20, 21, 22, 22, 22, 23, 24, 24, 24, 25, 26, 26, 26, 26, 26, 27, 28, 29, 30, 30, 30),
)


def test_forbidden_enumeration():
    inst = HFreeInstance.build(X2, 10)
    assert inst.forbidden == (1, 4, 9)
    assert inst.witness == {1: 1, 4: 2, 9: 3}
    # x^2 - 1: h(1) = 0 is skipped; values start at 3
    inst2 = HFreeInstance.build(X2M1, 30)
    assert inst2.forbidden == (3, 8, 15, 24)
    # constant-free instance: h(n) > N - 1 always
    inst3 = HFreeInstance.build(IntPoly([100, 0, 1]), 50)
    assert inst3.forbidden == ()


def test_is_h_free_examples():
    inst = HFreeInstance.build(X2, 10)
    assert is_h_free([1, 2], inst) == Violation(2, 1, 1)
    assert is_h_free([1, 3, 8], inst) is None
    assert is_h_free([], inst) is None
    assert is_h_free([7], inst) is None


def test_is_h_free_lexicographic_witness():
    inst = HFreeInstance.build(X2, 20)
    # both (5,1) and (5,4) violate via 4 and 1; smallest a first, then smallest b
    v = is_h_free([1, 4, 5], inst)
    assert v == Violation(5, 1, 2)


def test_is_h_free_range_check():
    inst = HFreeInstance.build(X2, 10)
    with pytest.raises(SetOutOfRange):
        is_h_free([0, 5], inst)
    with pytest.raises(SetOutOfRange):
        is_h_free([11], inst)


def test_greedy_examples():
    inst = HFreeInstance.build(X2, 10)
    g = greedy_h_free(inst)
    assert g[:3] == [1, 3, 6]
    assert is_h_free(g, inst) is None
    assert greedy_h_free(HFreeInstance.build(IntPoly([100, 0, 1]), 50)) == list(range(1, 51))
    assert greedy_h_free(HFreeInstance.build(X2, 3)) == [1, 3]


def greedy_by_probes(inst):
    """Greedy by definition: keep n when no kept m has n - m forbidden."""
    chosen: set[int] = set()
    out = []
    for n in range(1, inst.N + 1):
        if all(n - f not in chosen for f in inst.forbidden):
            chosen.add(n)
            out.append(n)
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=4).filter(lambda cs: any(cs)),
    st.integers(0, 400),
)
def test_greedy_matches_probe_definition(coeffs, N):
    inst = HFreeInstance.build(IntPoly(coeffs), N)
    assert greedy_h_free(inst) == greedy_by_probes(inst)


def test_exact_examples():
    size, witness = max_h_free_exact(HFreeInstance.build(X2, 5))
    assert size == 2
    assert is_h_free(witness, HFreeInstance.build(X2, 5)) is None
    assert max_h_free_exact(HFreeInstance.build(X2, 1))[0] == 1


def test_exact_against_brute_force_small():
    for h in (X2, X2M1, X3, X2PX):
        for N in range(1, 17):
            inst = HFreeInstance.build(h, N)
            size, witness = max_h_free_exact(inst)
            assert size == brute_max(inst), (h, N)
            assert len(set(witness)) == size
            assert is_h_free(witness, inst) is None


def test_exact_witness_is_lex_least():
    for h in FAMILIES + (IntPoly([-3, 2]), IntPoly([5])):
        for N in range(1, 17):
            inst = HFreeInstance.build(h, N)
            assert max_h_free_exact(inst)[1] == lex_least_max(inst), (h, N)


def test_exact_sizes_match_oracle():
    for h, sizes in zip(FAMILIES, ORACLE_SIZES):
        for N in range(1, 61):
            inst = HFreeInstance.build(h, N)
            size, witness = max_h_free_exact(inst)
            assert size == sizes[N - 1], (h, N)
            assert len(witness) == size and is_h_free(witness, inst) is None
            if N <= 40:
                assert branch_and_bound_max(inst) == size, (h, N)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=4).filter(lambda cs: any(cs)),
    st.integers(1, 40),
)
def test_exact_size_matches_branch_and_bound(coeffs, N):
    inst = HFreeInstance.build(IntPoly(coeffs), N)
    size, witness = max_h_free_exact(inst)
    assert size == branch_and_bound_max(inst)
    assert len(witness) == size and is_h_free(witness, inst) is None


@pytest.mark.parametrize(
    "coeffs, witness",
    [
        ((0, 0, 1), [1, 3, 6, 8, 11, 13, 16, 18, 21, 23, 35, 40]),
        ((-1, 0, 1), [1, 2, 3, 7, 8, 12, 14, 19, 21, 28, 30, 35, 39, 40]),
        ((0, 0, 0, 1), [1, 3, 5, 8, 10, 12, 15, 17, 19, 22, 24, 26, 29, 31, 33, 36, 38, 40]),
        ((0, -2, 1, 1), [1, 2, 3, 4, 7, 8, 13, 14, 17, 18, 19, 20, 23, 24, 29, 30, 35, 36, 39, 40]),
    ],
)
def test_exact_witness_is_pinned(coeffs, witness):
    # the lexicographically least maximum sets at N = 40
    assert max_h_free_exact(HFreeInstance.build(IntPoly(coeffs), 40)) == (len(witness), witness)


def test_greedy_at_most_exact():
    for h in (X2, X2M1, X2PX):
        for N in (8, 14, 20):
            inst = HFreeInstance.build(h, N)
            assert len(greedy_h_free(inst)) <= max_h_free_exact(inst)[0]


def test_exact_monotone_in_N():
    prev = 0
    for N in range(1, 26):
        size, _ = max_h_free_exact(HFreeInstance.build(X2, N))
        assert size >= prev
        prev = size


def test_translation_invariance():
    rng = random.Random(20)
    inst = HFreeInstance.build(X2, 60)
    for _ in range(50):
        A = sorted(rng.sample(range(1, 31), 8))
        t = rng.randint(0, 29)
        shifted = [a + t for a in A]
        assert (is_h_free(A, inst) is None) == (is_h_free(shifted, inst) is None)


def test_too_large_guard():
    with pytest.raises(TooLarge):
        max_h_free_exact(HFreeInstance.build(X2, 100), limit=60)


def test_negative_leading_coefficient():
    # h = 9 - x^2 takes positive values only at n = 1, 2 (8, 5); then negative
    h = IntPoly([9, 0, -1])
    inst = HFreeInstance.build(h, 20)
    assert inst.forbidden == (5, 8)


def test_greedy_guard():
    # survey sets reach N = 2^16 and the kernel row N = 1e5
    assert GREEDY_GUARD >= 10**5
    with pytest.raises(TooLarge, match="GREEDY_GUARD"):
        greedy_h_free(HFreeInstance.build(X2, GREEDY_GUARD + 1))
