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


@pytest.mark.parametrize(
    "coeffs, witness",
    [
        ((0, 0, 1), [1, 3, 6, 8, 11, 13, 16, 18, 21, 23, 35, 40]),
        ((-1, 0, 1), [2, 4, 9, 11, 13, 15, 20, 22, 27, 29, 31, 36, 38, 40]),
        ((0, 0, 0, 1), [1, 3, 5, 8, 10, 12, 15, 17, 19, 22, 24, 26, 29, 31, 33, 36, 38, 40]),
        ((0, -2, 1, 1), [1, 2, 3, 4, 7, 8, 13, 14, 17, 18, 19, 20, 23, 24, 29, 30, 35, 36, 39, 40]),
    ],
)
def test_exact_witness_is_pinned(coeffs, witness):
    # the vertex order (degree, then value) and the branch order fix which
    # maximum set is returned; these are the sets at N = 40
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
