"""Tests of the benchmark itself: job generation, span accounting, checks.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from jobs import WORKLOADS, Job, _strata, make_round, render, sextic  # noqa: E402
from run import Runner, hd_quantile  # noqa: E402


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return Runner(tmp_path_factory.mktemp("bench") / "job.json")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs(workload):
    for r in (0, 1):
        assert make_round(workload, 7, r) == make_round(workload, 7, r)
    assert make_round(workload, 7, 0) != make_round(workload, 8, 0)
    assert make_round(workload, 7, 0) != make_round(workload, 7, 1)


def test_strata_one_point_per_stratum_and_balanced():
    for u in (0.0, 0.37, 0.99):
        pts = _strata(u, 8, step=3)
        assert sorted(int(x * 8) for x in pts) == list(range(8))
        # the in-stratum offsets of one round are spread evenly
        offsets = sorted(x * 8 % 1 for x in pts)
        assert offsets == pytest.approx(sorted((u + i / 8) % 1 for i in range(8)))


def test_hd_quantile():
    assert hd_quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    xs = [float(i) for i in range(101)]
    assert hd_quantile(xs, 0.5) == pytest.approx(50.0)
    assert 88 < hd_quantile(xs, 0.9) < 92


def test_self_time_of_nested_spans():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has two overlapping children (two threads) d [6, 8] and e [7, 8.5];
    # e has child c [8, 8.25].
    tree = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("d", 6.0, 8.0, 3),
        ("e", 7.0, 8.5, 3),
        ("c", 8.0, 8.25, 5),
    ]
    got = spans.self_times(tree)
    assert got == {
        "root": (1, 10.0 - 3.0 - 4.0),
        "a": (1, 2.0),
        "c": (2, 1.0 + 0.25),
        "b": (1, 4.0 - 2.5),
        "d": (1, 2.0),
        "e": (1, 1.25),
    }


def test_tracer_records_parents_and_restores(runner):
    import intersective_lab.cli as cli
    import intersective_lab.hfree as hfree

    before = (cli.main, cli.greedy_h_free, hfree.HFreeInstance.__dict__["build"])
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            dt, res, err = runner.run(Job("maxset", ("maxset", "--poly", "x^2", "--N", "30", "--exact")))
        assert err is None
        names = [s[0] for s in tracer.spans]
        assert names[0] == "cli.main" and "hfree.max_h_free_exact" in names
        assert all(s[3] == 0 for s in tracer.spans[1:] if s[0] == "hfree.HFreeInstance.build")
        counts.append((dict(tracer.counts), {k: v[0] for k, v in spans.self_times(tracer.spans).items()}))
    assert counts[0] == counts[1] and counts[0][0]["hfree.forbidden"] == 5
    assert (cli.main, cli.greedy_h_free, hfree.HFreeInstance.__dict__["build"]) == before


def _checked(runner, job):
    dt, res, err = runner.run(job)
    assert err is None
    checks.check(job, res)
    return res


def test_energy_check_rejects_off_by_one(runner):
    D, nums = 12, (0, 1, 3, 7, 8)
    for m, den in ((2, 0), (2, 40), (3, 0)):
        elems = ",".join(f"{a}/{D}" for a in nums)
        argv = ("energy", "--elems", elems, "--m", str(m), "--delta", f"1/{den}" if den else "0")
        job = Job("energy", argv, {"D": D, "nums": nums, "m": m, "delta_den": den})
        res = _checked(runner, job)
        with pytest.raises(checks.CheckFailed):
            checks.check(job, dict(res, E=res["E"] + 1))


def test_maxset_check_rejects_non_h_free_witness(runner):
    job = Job("maxset", ("maxset", "--poly", "x^2-1", "--N", "24", "--exact"), {"h": (-1, 0, 1), "N": 24})
    res = _checked(runner, job)
    bad = sorted(res["witness"] + [res["witness"][0] + 3])  # 3 = h(2)
    with pytest.raises(checks.CheckFailed, match="not h-free"):
        checks.check(job, dict(res, witness=bad, size=len(bad)))


def test_sieve_check_rejects_wrong_count(runner):
    h = sextic(13, 17)
    assert render(h) == "x^6-251x^4+6851x^2-48841"
    job = Job("sieve", ("sieve", "--poly", render(h), "--Y", "60", "--X", "5000"), {"h": h, "Y": 60, "X": 5000})
    res = _checked(runner, job)
    with pytest.raises(checks.CheckFailed, match="count"):
        checks.check(job, dict(res, count=res["count"] - 1))


def test_closed_form_roots_match_residue_scan():
    h = sextic(13, 17)
    for p in checks.primes_up_to(400):
        assert checks.bad_classes_sextic(h, p) == checks.bad_classes_scan(h, p)
