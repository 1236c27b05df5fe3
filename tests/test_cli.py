import csv
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import intersective_lab
from intersective_lab import cli
from intersective_lab.cli import main, parse_poly, render_poly
from intersective_lab.errors import PolyParseError
from intersective_lab.expsum import ScanRow, cancellation_scan, fitted_C
from intersective_lab.hfree import EXACT_LIMIT
from intersective_lab.intpoly import IntPoly
from intersective_lab.residue_sieve import SieveProfile


def run_cli(tmp_path, *args):
    out = tmp_path / "report.json"
    code = main([*args, "--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_parse_examples():
    assert parse_poly("x^2").coeffs == (0, 0, 1)
    assert parse_poly("x^2 - 1").coeffs == (-1, 0, 1)
    assert parse_poly("3x^3+x").coeffs == (0, 1, 0, 3)
    assert parse_poly("-2*x^4 + x^2 - 7").coeffs == (-7, 0, 1, 0, -2)
    assert parse_poly("42").coeffs == (42,)
    assert parse_poly("x").coeffs == (0, 1)
    assert parse_poly("  - x ").coeffs == (0, -1)
    assert parse_poly("x^2+x^2").coeffs == (0, 0, 2)


def test_parse_errors_carry_position():
    for text in ("", "x^", "3*", "x**2", "+", "x^2 1", "a+1"):
        with pytest.raises(PolyParseError) as ei:
            parse_poly(text)
        assert ei.value.position >= 0


def test_render_round_trip():
    rng = random.Random(26)
    for _ in range(200):
        coeffs = [rng.randint(-99, 99) for _ in range(rng.randint(1, 6))]
        p = IntPoly(coeffs)
        assert parse_poly(render_poly(p)) == p or p.is_zero()
    assert render_poly(IntPoly([4, -10, 6])) == "6x^2-10x+4"
    assert render_poly(IntPoly([])) == "0"


def test_check_intersective_cli(tmp_path):
    code, doc = run_cli(
        tmp_path, "check-intersective", "--poly", "x^2+1", "--bound", "100"
    )
    assert code == 0
    assert doc["result"] == {"verdict": "not_intersective", "witness": 3}
    assert doc["manifest"]["subcommand"] == "check-intersective"
    assert doc["schema"] == "intersective-lab/1"


def test_aux_cli(tmp_path):
    code, doc = run_cli(tmp_path, "aux", "--poly", "x^2-1", "--d", "6")
    assert code == 0
    res = doc["result"]
    assert res["r_d"] == -5 and res["lambda"] == 6 and res["h_d"] == "6x^2-10x+4"


def test_maxset_cli(tmp_path):
    code, doc = run_cli(tmp_path, "maxset", "--poly", "x^2", "--N", "5", "--exact")
    assert code == 0
    assert doc["result"]["size"] == 2


@pytest.mark.parametrize(
    "poly, size", [("x^2", 20), ("x^2-1", 26), ("x^3", 35), ("x^3+x^2-2x", 38)]
)
def test_maxset_exact_at_the_limit(tmp_path, poly, size):
    # the --limit default is EXACT_LIMIT, and N = EXACT_LIMIT stays a
    # seconds-scale solve for each acceptance family
    assert EXACT_LIMIT == 80
    t0 = time.perf_counter()
    code, doc = run_cli(tmp_path, "maxset", "--poly", poly, "--N", "80", "--exact")
    assert time.perf_counter() - t0 < 10
    assert code == 0 and doc["result"]["size"] == size
    assert main(["maxset", "--poly", poly, "--N", "81", "--exact"]) == 1


def test_nesting_cli(tmp_path):
    code, doc = run_cli(
        tmp_path, "nesting", "--poly", "x^2-1", "--d", "1", "--q", "6", "--n-max", "50"
    )
    assert code == 0
    assert doc["result"]["s"] == -5


def test_arcs_cli(tmp_path):
    code, doc = run_cli(tmp_path, "arcs", "--N", "1000", "--K", "2", "--Q", "4")
    assert code == 0
    assert doc["result"]["count"] == 6
    code, doc = run_cli(
        tmp_path, "arcs", "--N", "1000", "--K", "2", "--Q", "10", "--gamma", "1/3"
    )
    assert doc["result"] == {"classification": "major", "a": 1, "q": 3}


def test_arcs_csv(tmp_path):
    csv_path = tmp_path / "arcs.csv"
    code, doc = run_cli(tmp_path, "arcs", "--N", "1000", "--K", "2", "--Q", "4", "--csv", str(csv_path))
    assert code == 0 and doc["result"] == {"count": 6}
    assert csv_path.read_text().splitlines() == ["a,q", "1,1", "1,2", "1,3", "2,3", "1,4", "3,4"]


def test_arcs_count_without_csv(tmp_path):
    # the count alone, with no per-arc CSV rows built or written
    code, doc = run_cli(tmp_path, "arcs", "--N", "10", "--K", "1", "--Q", "300")
    assert code == 0
    assert doc["result"] == {"count": 1 + sum(math.gcd(a, q) == 1 for q in range(2, 301) for a in range(1, q))}
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_energy_cli(tmp_path):
    code, doc = run_cli(
        tmp_path, "energy", "--elems", "1/5,2/5,3/5,4/5", "--m", "2", "--delta", "0"
    )
    assert code == 0
    assert doc["result"]["E"] == 52


def test_sieve_cli_with_csv(tmp_path):
    csv_path = tmp_path / "rows.csv"
    out = tmp_path / "r.json"
    code = main(
        [
            "sieve", "--poly", "x^2", "--Y", "3", "--X", "12",
            "--out", str(out), "--csv", str(csv_path),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["count"] == 4
    header = csv_path.read_text().splitlines()[0]
    assert header == "p,gamma,modulus,j"


def test_usage_error_exit_codes(tmp_path, capsys):
    assert main(["aux", "--poly", "x^%", "--d", "2"]) == 2
    err = capsys.readouterr().err
    assert "grammar" in err
    # domain error: nesting with prime out of range
    assert main(["aux", "--poly", "x^2", "--d", "101", "--bound", "50"]) == 1
    # a malformed cutoff is a usage error; 'inf' reaches the prime guard
    with pytest.raises(SystemExit) as ei:
        main(["expsum-scan", "--poly", "x^3", "--q-max", "10", "--Y", "abc"])
    assert ei.value.code == 2
    assert "invalid cutoff: 'abc'" in capsys.readouterr().err
    # the sieve method is decided from the period, not by an option
    with pytest.raises(SystemExit) as ei:
        main(["sieve", "--poly", "x^2", "--Y", "10", "--X", "100", "--method", "mark"])
    assert ei.value.code == 2


def test_threads_env_fallback(tmp_path, monkeypatch):
    # the parser is built once, so the environment is read on every call
    argv = ["arcs", "--N", "100", "--K", "1", "--Q", "3"]
    monkeypatch.setenv("INTERSECTIVE_LAB_THREADS", "4")
    assert run_cli(tmp_path, *argv)[1]["manifest"]["threads"] == 4
    monkeypatch.delenv("INTERSECTIVE_LAB_THREADS")
    _, doc = run_cli(tmp_path, *argv)
    assert doc["manifest"]["threads"] == 1 == doc["manifest"]["params"]["threads"]


def test_parser_reuse_leaves_no_flags_behind(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_build_parser", None)  # main parses with the parser built at import
    csv_path = tmp_path / "t.csv"
    argv = ["expsum-scan", "--poly", "x^3", "--q-max", "12"]
    code, doc = run_cli(tmp_path, *argv, "--csv", str(csv_path), "--squarefree")
    assert code == 0 and doc["manifest"]["params"]["squarefree"] is True
    assert [r["q"] for r in doc["result"]["rows"]] == [1, 2, 3, 5, 6, 7, 10, 11]
    csv_path.unlink()
    code, doc = run_cli(tmp_path, *argv)
    assert code == 0 and doc["manifest"]["params"]["squarefree"] is False
    assert [r["q"] for r in doc["result"]["rows"]] == list(range(1, 13))
    assert not csv_path.exists()


def test_result_determinism(tmp_path):
    docs = []
    for i, threads in enumerate(("1", "8")):
        out = tmp_path / f"scan{i}.json"
        main(
            [
                "expsum-scan", "--poly", "x^3", "--q-max", "60", "--Y", "60",
                "--squarefree", "--threads", threads, "--out", str(out),
            ]
        )
        docs.append(json.loads(out.read_text()))
    r1, r2 = (json.dumps(d["result"], sort_keys=True) for d in docs)
    assert r1 == r2


@pytest.mark.parametrize("poly", ["x^2", "x^2-1", "x^3", "x^3+x^2-2x"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_increment_tiny_N(tmp_path, poly, N):
    # N = 1 has log N = 0; N = 2 has arcs wider than the whole circle
    code, doc = run_cli(tmp_path, "increment", "--poly", poly, "--N", str(N))
    assert code in (0, 1, 2)
    if code == 0:
        assert doc["result"]["trajectory"][0]["N_i"] == N


def test_sieve_report_keeps_period_beyond_digit_limit(tmp_path, capsys):
    # at Y = 10500 the period prod p^gamma has more than 4300 decimal digits
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    out = tmp_path / "r.json"
    code = main(["sieve", "--poly", "x^2+1", "--Y", "10500", "--X", "1000", "--out", str(out)])
    assert code == 0
    # the small-X warning is one line on stderr, not a raw Python warning
    assert capsys.readouterr().err == (
        "warning: X=1000 is small for Y=10500.0: log X < log Y log log Y; "
        "the main-term approximation may be poor\n"
    )
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(out.read_text())
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    prof = SieveProfile.build(parse_poly("x^2+1"), 10500.0)
    period = math.prod(pd.modulus for pd in prof.per_prime.values())
    assert period.bit_length() > 4300 * math.log2(10)
    assert doc["result"]["period"] == period


@pytest.mark.parametrize(
    "argv",
    [
        ["arcs", "--N", "100", "--K", "1", "--Q", "3", "--threads", "0"],
        ["arcs", "--N", "100", "--K", "1", "--Q", "3", "--threads", "-3"],
        ["expsum-scan", "--poly", "x^2", "--q-max", "0"],
        ["expsum-scan", "--poly", "x^2", "--q-max", "-1"],
        ["main-term", "--poly", "x^2", "--a", "1", "--q", "3", "--Y", "10", "--N", "0"],
        ["increment", "--poly", "x^2", "--N", "0"],
        ["sieve", "--poly", "x^2", "--Y", "10", "--X", "0"],
        ["maxset", "--poly", "x^2", "--N", "-3"],
        ["arcs", "--N", "0", "--K", "1", "--Q", "3"],
        ["increment", "--poly", "x^2", "--N", "20", "--max-steps", "-1"],
    ],
)
def test_nonpositive_counts_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as ei:
        main([*argv, "--out", str(tmp_path / "r.json")])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    # a step limit may be 0; every other count must be positive
    kind = "non-negative" if "--max-steps" in argv else "positive"
    assert f"must be a {kind} integer" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_increment_zero_max_steps(tmp_path):
    code, doc = run_cli(tmp_path, "increment", "--poly", "x^2", "--N", "20", "--max-steps", "0")
    assert code == 0
    assert doc["result"]["steps"] == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--elems", "1/0", "--m", "2"],
        ["--elems", "1/3,2/0", "--m", "2"],
        ["--elems", "1/3,x", "--m", "2"],
        ["--elems", "1/3", "--m", "2", "--delta=1/0"],
        ["--elems", "1/3", "--m", "2", "--delta", "half"],
    ],
)
def test_bad_rationals_are_usage_errors(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as ei:
        main(["energy", *flags, "--out", str(tmp_path / "r.json")])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert "invalid rational" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_energy_cli_rational_delta(tmp_path):
    # pair sums of {1, 2, 3, 4} mod 5 hit 0 four times and each other residue
    # three times, so the difference of two pair sums is 0 in 52 quadruples
    # and each t != 0 in 51; delta = 1/4 admits t = 0, +-1, delta = 1/6 only 0
    elems = "1/5,2/5,3/5,4/5"
    code, doc = run_cli(tmp_path, "energy", "--elems", elems, "--m", "2", "--delta", "0.25")
    assert code == 0
    assert doc["result"]["E"] == 52 + 2 * 51
    code, doc = run_cli(tmp_path, "energy", "--elems", elems, "--m", "2", "--delta", "1/6")
    assert code == 0
    assert doc["result"]["E"] == 52


@pytest.mark.parametrize(
    "flags, bound",
    [
        (["--elems", "0", "--m", "30000000"], "FOLD_GUARD"),
        (["--elems", "1/3,2/3", "--m", "100000000"], "FOLD_GUARD"),
        (["--elems", "1/3,2/3", "--m", "400000"], "WORK_GUARD"),
        (["--elems", ",".join(f"{a}/97" for a in range(1, 9)), "--m", "6"], "WORK_GUARD"),
    ],
)
def test_energy_work_guard_is_quick(tmp_path, capsys, flags, bound):
    t0 = time.perf_counter()
    code, doc = run_cli(tmp_path, "energy", *flags)
    assert time.perf_counter() - t0 < 5
    assert code == 1 and doc is None
    err = capsys.readouterr().err
    assert bound in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, guard",
    [
        (["main-term", "--poly", "x^2", "--a", "1", "--q", "3", "--Y", "10", "--N", "1" + "0" * 400],
         "PHASE_GUARD"),
        (["main-term", "--poly", "x^3", "--a", "1", "--q", "3", "--Y", "10", "--N", "1" + "0" * 400],
         "PHASE_GUARD"),
        (["expsum-scan", "--poly", "x^3", "--q-max", "100000000"], "SCAN_GUARD"),
        (["maxset", "--poly", "x^2", "--N", "100000000"], "GREEDY_GUARD"),
        (["increment", "--poly", "x^2", "--N", "30000000"], "GREEDY_GUARD"),
        # g' = 2^34 x: gamma(g; 2) = 35, so the bad residues live mod 2^35
        (["sieve", "--poly", "8589934592x^2", "--Y", "3", "--X", "10"], "RESIDUE_GUARD"),
        (["main-term", "--poly", "x^2", "--a", "1", "--q", "3000000001", "--Y", "3", "--N", "100"],
         "RESIDUE_GUARD"),
        # the period is above the wheel cap, so mark would hold X + 1 flags
        (["sieve", "--poly", "x^3+x^2-2x", "--Y", "30", "--X", "1000000000000"], "MARK_GUARD"),
        (["check-intersective", "--poly", "x^2+x+1", "--bound", "1000000000000"], "PRIME_GUARD"),
        (["sieve", "--poly", "x^2", "--Y", "inf", "--X", "100"], "PRIME_GUARD"),
        (["expsum-scan", "--poly", "x^3", "--q-max", "10", "--Y", "inf"], "PRIME_GUARD"),
        (["arcs", "--N", "10", "--K", "1", "--Q", "inf"], "ARC_GUARD"),
        # h = x: building the forbidden differences alone would visit [1, N]
        (["maxset", "--poly", "x", "--N", "3000000"], "GREEDY_GUARD"),
        (["increment", "--poly", "x^2", "--N", "100000000", "--set", "mod:5:1"], "GREEDY_GUARD"),
        # arc_list would test Q(Q-1)/2 fractions a/q
        (["arcs", "--N", "10", "--K", "1", "--Q", "3000"], "ARC_GUARD"),
        (["arcs", "--N", "10", "--K", "1", "--Q", "1e300"], "ARC_GUARD"),
        (["arcs", "--N", "10", "--K", "inf", "--Q", "3", "--gamma", "1/3"], "a finite K"),
        (["arcs", "--N", "10", "--K", "nan", "--Q", "3"], "a finite K"),
    ],
)
def test_work_guards_give_one_line_and_exit_1(tmp_path, capsys, argv, guard):
    t0 = time.perf_counter()
    assert main([*argv, "--out", str(tmp_path / "r.json")]) == 1
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert guard in err
    assert not (tmp_path / "r.json").exists()


def test_check_intersective_with_a_huge_constant_term(tmp_path):
    # the rational-root test would trial-divide up to sqrt(2e20) = 1.4e10
    out = tmp_path / "r.json"
    t0 = time.perf_counter()
    assert main(["check-intersective", "--poly", "x^2-200000000000000000000", "--bound", "100", "--out", str(out)]) == 0
    assert time.perf_counter() - t0 < 2
    assert json.loads(out.read_text())["result"] == {"verdict": "not_intersective", "witness": 3}


def test_aux_refuses_a_large_prime_d_without_factoring_it(tmp_path, capsys):
    # trial division of the prime d = 1e15 + 37 would run to 3.2e7
    t0 = time.perf_counter()
    assert main(["aux", "--poly", "x^2", "--d", "1000000000000037", "--out", str(tmp_path / "r.json")]) == 1
    assert time.perf_counter() - t0 < 2
    err = capsys.readouterr().err
    assert err == "error: every prime factor of 1000000000000037 exceeds the family bound 1000\n"
    assert not (tmp_path / "r.json").exists()


def test_check_intersective_with_a_squared_factor(tmp_path):
    # 8 (29x^2+14x-27)^2 (13x^2+14x-11): the root tree of h mod 2^j branches
    # at every other level, those of its squarefree factors do not
    poly = "87464x^6+178640x^5-125544x^4-303520x^3+111704x^2+148176x-64152"
    code, doc = run_cli(tmp_path, "check-intersective", "--poly", poly, "--bound", "2")
    assert code == 0
    assert doc["result"] == {"verdict": "not_intersective", "witness": 134217728}


@pytest.mark.parametrize(
    "spec, message",
    [("odd", "unknown set spec 'odd'"), ("mod:0:1", "needs a modulus M >= 1")],
)
def test_bad_set_specs_give_one_line_and_exit_1(tmp_path, capsys, spec, message):
    argv = ["increment", "--poly", "x^2", "--N", "100", "--set", spec]
    assert main([*argv, "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "r.json").exists()


def test_phase_values_past_float_range_give_one_line(tmp_path, capsys):
    poly = f"x^2+{10**400 + 1}x"
    argv = ["main-term", "--poly", poly, "--a", "1", "--q", "3", "--Y", "3", "--N", "100000"]
    assert main([*argv, "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "float range" in err
    assert not (tmp_path / "r.json").exists()


def test_increment_csv_leaves_missing_q_used_empty(tmp_path):
    csv_path = tmp_path / "t.csv"
    out = tmp_path / "r.json"
    argv = ["increment", "--poly", "x^2", "--N", "22695", "--set", "greedy", "--kappa", "0.00171272"]
    assert main([*argv, "--out", str(out), "--csv", str(csv_path)]) == 0
    traj = json.loads(out.read_text())["result"]["trajectory"]
    assert [st["q_used"] for st in traj] == [5, None]
    assert csv_path.read_text().splitlines() == [
        "i,N_i,d_i,size_A,sigma_i,q_used",
        "0,22695,1,987,0.0434897554527,5",
        "1,250,5,43,0.172,",
    ]


def legacy_jsonable(obj):
    """The report path's JSON conversion before results were built JSON-native."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, complex):
        return [float(f"{obj.real:.12g}"), float(f"{obj.imag:.12g}")]
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): legacy_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [legacy_jsonable(v) for v in obj]
    return str(obj)


def legacy_scan(args):
    """expsum-scan's result and CSV rows as the report path built them from the raw ScanRows."""
    rows = cancellation_scan(parse_poly(args.poly), args.q_max, None if args.Y == "all" else args.Y,
                             squarefree_only=args.squarefree)
    table = [dict(vars(r)) for r in rows]
    return {"rows": table, "fitted_C": fitted_C(rows), "q_max": args.q_max}, table


@pytest.mark.parametrize(
    "argv",
    [
        ["check-intersective", "--poly", "x^2-1", "--bound", "30"],
        ["aux", "--poly", "x^2-1", "--d", "6"],
        ["nesting", "--poly", "x^2-1", "--d", "1", "--q", "6"],
        ["sieve", "--poly", "x^3+x^2-2x", "--Y", "30", "--X", "100000"],
        ["expsum-scan", "--poly", "x^3+x", "--q-max", "300", "--Y", "50"],
        ["main-term", "--poly", "x^2", "--a", "1", "--q", "4", "--Y", "10", "--N", "10000"],
        ["arcs", "--N", "1000", "--K", "2", "--Q", "4", "--gamma", "0.3333"],
        ["maxset", "--poly", "x^2", "--N", "30"],
        ["increment", "--poly", "x^2", "--N", "22695", "--kappa", "0.00171272"],
        ["energy", "--elems", "1/50,1/49,1/48", "--m", "2", "--delta", "1/4000",
         "--newbm-Q", "60", "--newbm-n", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_report_matches_the_indented_legacy_report(tmp_path, monkeypatch, argv):
    # one line of JSON from the C encoder; it parses to the document that
    # legacy_jsonable and the pure-Python json.dumps(indent=2) gave
    captured = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda *a: captured.append(a) or emit(*a))
    out, csv_path = tmp_path / "r.json", tmp_path / "t.csv"
    assert main([*argv, "--out", str(out), "--csv", str(csv_path)]) == 0
    text = out.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    ((args, subcommand, params, report, _),) = captured
    result, rows = legacy_scan(args) if subcommand == "expsum-scan" else (report.result, report.csv_rows)
    manifest = {
        "subcommand": subcommand, "params": legacy_jsonable(params), "version": intersective_lab.__version__,
        "wall_time_s": 0.0, "seed": None, "threads": args.threads,
    }
    legacy = json.dumps({"schema": cli.SCHEMA, "manifest": manifest, "result": legacy_jsonable(result)},
                        sort_keys=True, indent=2)
    doc, want = json.loads(text), json.loads(legacy)
    doc["manifest"]["wall_time_s"] = 0.0
    assert doc == want
    if rows:
        fh = io.StringIO(newline="")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({k: f"{v:.12g}" if isinstance(v, float) else v for k, v in r.items()} for r in rows)
        assert csv_path.read_bytes().decode() == fh.getvalue()
    else:
        assert not csv_path.exists()


@example([math.inf, -math.inf, math.nan])
@example([-0.0, 0.0, 5e-324])
@example([1.7976931348623157e308, 0.1 + 0.2, 123456789012.5])
@given(st.lists(st.floats(), min_size=3, max_size=3))
def test_scan_rows_round_to_12_digits_bit_for_bit(xs):
    (row,) = cli._scan_table([ScanRow(6, 2, *xs, 4)])
    assert list(row) == ["q", "omega", "max_abs", "ratio_sqrt", "ratio_weyl", "admissible"]
    assert (row["q"], row["omega"], row["admissible"]) == (6, 2, 4)
    for x, y in zip(xs, [row["max_abs"], row["ratio_sqrt"], row["ratio_weyl"]]):
        assert struct.pack("<d", y) == struct.pack("<d", float(f"{x:.12g}"))


def test_closed_stdout_pipe_exits_1_without_traceback():
    # about 250 kB of report, more than a pipe holds, so the writer is still
    # writing when its reader leaves after one byte
    src = str(Path(intersective_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "intersective_lab.cli", "expsum-scan", "--poly", "x^3", "--q-max", "2000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""
