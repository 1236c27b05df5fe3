"""Command-line front end: polynomial parsing, dispatch, JSON/CSV reports.

Every report is one line of JSON, keys sorted: {"schema": ..., "manifest":
{...}, "result": {...}}; the manifest carries the subcommand, all parameters,
the library version and wall time.  Results are fully determined by the
parameters (floats printed to 12 significant digits), so identical parameters
give byte-identical result sections regardless of --threads.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from . import __version__
from .arcs_fourier import ArcSpec, TorusPoint, arc_list, classify
from .energy import FreqSet, additive_energy, newbm_check
from .errors import PolyParseError
from .expsum import cancellation_scan, fitted_C, main_term_check
from .hfree import EXACT_LIMIT, HFreeInstance, greedy_guard, greedy_h_free, is_h_free, max_h_free_exact
from .increment import run_iteration
from .intersective import AuxFamily, IntersectiveUpTo, NotIntersective, check_intersective
from .intpoly import IntPoly
from .residue_sieve import SieveProfile, sieve_count

SCHEMA = "intersective-lab/1"

GRAMMAR_HELP = """polynomial grammar:
  expr  := [sign] term (sign term)*
  term  := INT | INT '*'? 'x' ['^' INT] | 'x' ['^' INT]
  sign  := '+' | '-'
whitespace is ignored; examples: "x^2", "x^2 - 1", "3x^3+x", "-2*x^4+x^2-7"
"""


# ----------------------------------------------------------------------
# Polynomial expression parsing / rendering
# ----------------------------------------------------------------------

def parse_poly(s: str) -> IntPoly:
    """Parse the expression grammar above into a canonical IntPoly."""
    pos = 0
    coeffs: dict[int, int] = {}
    sign = 1
    expect_term = True
    n = len(s)

    def skip_ws(i: int) -> int:
        while i < n and s[i].isspace():
            i += 1
        return i

    pos = skip_ws(pos)
    if pos < n and s[pos] in "+-":
        if s[pos] == "-":
            sign = -1
        pos += 1
    while True:
        pos = skip_ws(pos)
        if pos >= n:
            if expect_term:
                raise PolyParseError(pos, "a term")
            break
        ch = s[pos]
        if expect_term:
            coeff = None
            if ch.isdigit():
                m = re.match(r"\d+", s[pos:])
                coeff = int(m.group())
                pos += m.end()
                pos = skip_ws(pos)
                if pos < n and s[pos] == "*":
                    pos += 1
                    pos = skip_ws(pos)
                    if pos >= n or s[pos] != "x":
                        raise PolyParseError(pos, "'x' after '*'")
            if pos < n and s[pos] == "x":
                pos += 1
                exp = 1
                pos2 = skip_ws(pos)
                if pos2 < n and s[pos2] == "^":
                    pos = skip_ws(pos2 + 1)
                    m = re.match(r"\d+", s[pos:])
                    if not m:
                        raise PolyParseError(pos, "an exponent")
                    exp = int(m.group())
                    pos += m.end()
                c = coeff if coeff is not None else 1
                coeffs[exp] = coeffs.get(exp, 0) + sign * c
            elif coeff is not None:
                coeffs[0] = coeffs.get(0, 0) + sign * coeff
            else:
                raise PolyParseError(pos, "an integer or 'x'")
            expect_term = False
        else:
            if ch == "+":
                sign = 1
            elif ch == "-":
                sign = -1
            else:
                raise PolyParseError(pos, "'+' or '-'")
            pos += 1
            expect_term = True
    if not coeffs:
        raise PolyParseError(0, "a nonempty expression")
    deg = max(coeffs)
    return IntPoly([coeffs.get(i, 0) for i in range(deg + 1)])


def render_poly(p: IntPoly) -> str:
    """Canonical rendering; parse(render(p)) reproduces the coefficients."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree(), -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "x" if mag == 1 else f"{mag}x"
        else:
            body = f"x^{i}" if mag == 1 else f"{mag}x^{i}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------

def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, complex):
        return [_round12(obj.real), _round12(obj.imag)]
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


@dataclass
class Report:
    result: dict
    csv_rows: Optional[list[dict]] = None
    native: bool = False  # result is already JSON-native, floats rounded by _round12


def _emit(args, subcommand: str, params: dict, report: Report, t0: float) -> int:
    manifest = {
        "subcommand": subcommand,
        "params": _jsonable(params),
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "seed": None,
        "threads": args.threads,
    }
    result = report.result if report.native else _jsonable(report.result)
    doc = {"schema": SCHEMA, "manifest": manifest, "result": result}
    # exact integers such as the sieve period L = prod p^gamma pass the
    # interpreter's int-to-str digit limit (4300 by default) once Y >~ 1e4
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(doc, sort_keys=True)  # no indent: the C encoder
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader left: send the interpreter's last flush to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    if args.csv and report.csv_rows is not None:
        with open(args.csv, "w", newline="") as fh:
            if report.csv_rows:
                writer = csv.DictWriter(fh, fieldnames=list(report.csv_rows[0]))
                writer.writeheader()
                for row in report.csv_rows:
                    writer.writerow({k: _fmt_cell(v) for k, v in row.items()})
    return 0


def _fmt_cell(v: Any) -> Any:
    if isinstance(v, float):
        return f"{v:.12g}"
    return v


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer >= 1."""
    return _int_at_least(text, 1, "positive")


def _nonnegative_int(text: str) -> int:
    """argparse type for limits that may be 0: an integer >= 0."""
    return _int_at_least(text, 0, "non-negative")


def _rational(text: str) -> Fraction:
    """argparse type for an exact rational such as 3/7, 0.25 or 2."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational: {text!r}") from None


def _rational_list(text: str) -> list[Fraction]:
    """argparse type for comma-separated rationals; empty items are skipped."""
    return [_rational(tok) for tok in text.split(",") if tok.strip()]


def _cutoff(text: str) -> str | float:
    """argparse type for expsum-scan --Y: 'all' or a float ('inf' included)."""
    if text == "all":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid cutoff: {text!r} (use a number or 'all')") from None


def _threads_default() -> int:
    env = os.environ.get("INTERSECTIVE_LAB_THREADS")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------

def _cmd_check_intersective(args) -> Report:
    h = parse_poly(args.poly)
    verdict = check_intersective(h, args.bound)
    if isinstance(verdict, NotIntersective):
        return Report({"verdict": "not_intersective", "witness": verdict.witness_q})
    assert isinstance(verdict, IntersectiveUpTo)
    result = {
        "verdict": "intersective_up_to",
        "bound": verdict.bound,
        "integer_root": verdict.integer_root,
        "roots": {
            str(p): {"residue": rd.residue, "prec": rd.prec, "multiplicity": rd.multiplicity}
            for p, rd in sorted(verdict.roots.items())
        },
    }
    return Report(result)


def _family(args) -> AuxFamily:
    return AuxFamily(parse_poly(args.poly), bound=args.bound)


def _cmd_aux(args) -> Report:
    fam = _family(args)
    rec = fam.aux_record(args.d)
    return Report(
        {
            "d": args.d,
            "r_d": rec.r,
            "lambda": rec.lam,
            "h_d": render_poly(rec.poly),
            "h_d_coeffs": list(rec.poly.coeffs),
            "b_d": rec.b,
            "J_d": rec.J,
        }
    )


def _cmd_nesting(args) -> Report:
    fam = _family(args)
    s = fam.verify_nesting(args.d, args.q, args.n_max)
    return Report({"d": args.d, "q": args.q, "s": s, "verified_n": args.n_max})


def _cmd_sieve(args) -> Report:
    fam = _family(args)
    g = fam.aux_poly(args.d)
    prof = SieveProfile.build(g, args.Y)
    sc = sieve_count(prof, args.X)
    rows = [
        {"p": p, "gamma": pd.gamma, "modulus": pd.modulus, "j": pd.j}
        for p, pd in sorted(prof.per_prime.items())
    ] if args.csv else None
    return Report(
        {
            "g": render_poly(g),
            "d": args.d,
            "Y": args.Y,
            "X": args.X,
            "count": sc.count,
            "main_term": sc.main_term,
            "rel_error": sc.rel_error,
            "method": sc.method,
            "period": sc.period,
            "density": sc.density,
        },
        csv_rows=rows,
    )


def _cmd_expsum_scan(args) -> Report:
    g = parse_poly(args.poly)
    Y = None if args.Y == "all" else args.Y
    rows = cancellation_scan(g, args.q_max, Y, squarefree_only=args.squarefree)
    table = _scan_table(rows)
    return Report(
        {"rows": table, "fitted_C": _round12(fitted_C(rows)), "q_max": args.q_max},
        csv_rows=table, native=True,
    )


def _scan_table(rows) -> list[dict]:
    """JSON-native scan rows: each float field of a ScanRow rounded here, once, by _round12."""
    return [{k: _round12(v) if isinstance(v, float) else v for k, v in vars(r).items()} for r in rows]


def _cmd_main_term(args) -> Report:
    fam = _family(args)
    res = main_term_check(fam, args.d, args.a, args.q, args.Y, args.N)
    return Report(
        {
            "direct": res.direct,
            "predicted": res.predicted,
            "rel_error": res.rel_error,
        }
    )


def _parse_gamma(text: str) -> TorusPoint:
    if "/" in text:
        a, q = text.split("/", 1)
        return TorusPoint.rational(int(a), int(q))
    return TorusPoint.from_float(float(text))


def _cmd_arcs(args) -> Report:
    spec = ArcSpec(args.N, args.K, args.Q)
    if args.gamma is not None:
        gamma = _parse_gamma(args.gamma)
        cls = classify(gamma, spec)
        if cls is None:
            return Report({"classification": "minor"})
        return Report({"classification": "major", "a": cls[0], "q": cls[1]})
    arcs = arc_list(spec)
    rows = [{"a": a, "q": q} for a, q in arcs] if args.csv else None
    return Report({"count": len(arcs)}, csv_rows=rows)


def _cmd_maxset(args) -> Report:
    h = parse_poly(args.poly)
    greedy_guard(args.N)  # both modes scan greedily; refuse before building
    inst = HFreeInstance.build(h, args.N)
    if args.exact:
        size, witness = max_h_free_exact(inst, limit=args.limit)
    else:
        witness = greedy_h_free(inst)
        size = len(witness)
    assert is_h_free(witness, inst) is None
    return Report({"size": size, "witness": witness, "mode": "exact" if args.exact else "greedy"})


def _build_set(spec: str, h: IntPoly, N: int) -> list[int]:
    greedy_guard(N)  # either spec lists [1, N]
    if spec == "greedy":
        return greedy_h_free(HFreeInstance.build(h, N))
    m = re.fullmatch(r"mod:(\d+):(\d+)", spec)
    if m:
        mod, r = int(m.group(1)), int(m.group(2))
        if mod < 1:
            raise ValueError(f"set spec {spec!r} needs a modulus M >= 1")
        return [n for n in range(1, N + 1) if n % mod == r % mod]
    raise ValueError(f"unknown set spec {spec!r} (use 'greedy' or 'mod:M:R')")


def _cmd_increment(args) -> Report:
    fam = _family(args)
    A0 = _build_set(args.set, fam.h, args.N)
    states = run_iteration(
        fam, A0, args.N, max_steps=args.max_steps, kappa=args.kappa,
        nu_formula=args.nu_formula,
    )
    trajectory = [
        {
            "i": st.step,
            "N_i": st.N,
            "d_i": st.d,
            "size_A": len(st.A),
            "sigma_i": float(st.sigma),
            "q_used": st.q_used,
        }
        for st in states
    ]
    # the csv module writes None (no q_used) as an empty cell
    return Report({"steps": len(states) - 1, "trajectory": trajectory}, csv_rows=trajectory)


def _cmd_energy(args) -> Report:
    fs = FreqSet.build(args.elems, args.m, args.delta)
    E = additive_energy(fs)
    result: dict[str, Any] = {"E": E, "m": args.m, "size": len(args.elems)}
    if args.newbm_Q is not None and args.newbm_n is not None:
        lhs, rhs_shape = newbm_check(fs, args.newbm_Q, args.newbm_n, args.m)
        result["newbm"] = {"lhs": lhs, "rhs_shape": rhs_shape, "ratio": lhs / rhs_shape}
    return Report(result)


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="intersective-lab",
        description="Exact-arithmetic toolkit for intersective polynomials, "
        "sieved exponential sums, arcs and density increments.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, poly=True, bound=False):
        if poly:
            p.add_argument("--poly", required=True, help="polynomial expression")
        if bound:
            p.add_argument("--bound", type=int, default=1000, help="prime bound B")
        p.add_argument("--out", help="write the JSON report here (default stdout)")
        p.add_argument("--csv", help="write the CSV table here")
        p.add_argument(
            "--threads", type=_positive_int, default=None,
            help="recorded in the manifest; changes neither the work nor the result",
        )

    p = sub.add_parser("check-intersective", help="p-adic solvability up to a bound")
    common(p)
    p.add_argument("--bound", type=int, default=100)
    p.set_defaults(handler=_cmd_check_intersective)

    p = sub.add_parser("aux", help="auxiliary polynomial h_d with r_d, lambda(d)")
    common(p, bound=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_aux)

    p = sub.add_parser("nesting", help="verify lambda(q) h_dq(n) = h_d(s + qn)")
    common(p, bound=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-max", type=int, default=50)
    p.set_defaults(handler=_cmd_nesting)

    p = sub.add_parser("sieve", help="count [1,X] in W(h_d; Y) vs the main term")
    common(p, bound=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--Y", type=float, required=True)
    p.add_argument("--X", type=_positive_int, required=True)
    p.set_defaults(handler=_cmd_sieve)

    p = sub.add_parser("expsum-scan", help="max_a |S(a,q)| cancellation table")
    common(p)
    p.add_argument("--q-max", type=_positive_int, required=True)
    p.add_argument("--Y", type=_cutoff, default="all", help="sieve cutoff, or 'all' for all p <= q")
    p.add_argument("--squarefree", action="store_true")
    p.set_defaults(handler=_cmd_expsum_scan)

    p = sub.add_parser("main-term", help="direct vs predicted phase sum at a/q")
    common(p, bound=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--Y", type=float, required=True)
    p.add_argument("--N", type=_positive_int, required=True)
    p.set_defaults(handler=_cmd_main_term)

    p = sub.add_parser("arcs", help="arc listing / torus point classification")
    common(p, poly=False)
    p.add_argument("--N", type=_positive_int, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--Q", type=float, required=True)
    p.add_argument("--gamma", help="torus point 'a/q' or float")
    p.set_defaults(handler=_cmd_arcs)

    p = sub.add_parser("maxset", help="maximum (or greedy) h-free subset of [1,N]")
    common(p)
    p.add_argument("--N", type=_positive_int, required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--limit", type=int, default=EXACT_LIMIT)
    p.set_defaults(handler=_cmd_maxset)

    p = sub.add_parser("increment", help="run the density-increment iteration")
    common(p, bound=True)
    p.add_argument("--N", type=_positive_int, required=True)
    p.add_argument("--set", default="greedy", help="'greedy' or 'mod:M:R'")
    p.add_argument("--max-steps", type=_nonnegative_int, default=8)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--nu-formula", action="store_true")
    p.set_defaults(handler=_cmd_increment)

    p = sub.add_parser("energy", help="additive energy of rational frequencies")
    common(p, poly=False)
    p.add_argument(
        "--elems", type=_rational_list, required=True,
        help="comma-separated rationals, e.g. 1/5,2/5",
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=_rational, default="0", help="tolerance, rational")
    p.add_argument("--newbm-Q", type=float, default=None)
    p.add_argument("--newbm-n", type=int, default=None)
    p.set_defaults(handler=_cmd_energy)

    return ap


PARSER = _build_parser()  # built once per process; main reads the environment per call


def main(argv: Optional[list[str]] = None) -> int:
    args = PARSER.parse_args(argv)
    args.threads = args.threads or _threads_default()  # None unless --threads was given
    t0 = time.perf_counter()
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("handler", "out", "csv") and not callable(v)
    }
    with warnings.catch_warnings(record=True) as caught:  # the caller's filters still apply
        try:
            report = args.handler(args)
        except PolyParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(GRAMMAR_HELP, file=sys.stderr)
            return 2
        except (ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    return _emit(args, args.subcommand, params, report, t0)


if __name__ == "__main__":
    sys.exit(main())
