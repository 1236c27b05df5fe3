"""intersective-lab benchmark: seeded, closed-loop CLI job streams.

    python3 bench/run.py --workload survey|arith|extremal|all --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is imported from the src/ directory next to
this one.  One client runs one job at a time and starts the next only when
the previous one has returned.  A job is one CLI invocation, run in-process
through intersective_lab.cli.main(argv) with --out to a scratch file, or one
call into the public API.  Each job's library caches are cleared first, as a
fresh CLI process would have them.

setup_s is the median wall time of fresh interpreters that import
intersective_lab.cli, which every CLI run pays; SETUP_REPS of them are
timed between rounds, spread over the run.  Jobs run in whole rounds (see
jobs.py) until the timed wall time reaches --seconds.  jobs_per_s,
job_s.p50 and job_s.p90 are computed per round (the quantiles as
Harrell-Davis estimates) and reported as their medians over the rounds,
so that a slow spell of the shared host moves only the rounds it hits.
After each job its output is checked outside the timed region (checks.py);
a job that exits non-zero, raises or fails its check counts as failed.

--trace 1 runs the first TRACE_ROUNDS[workload] rounds, each job once with
spans around each public function (spans.py) and once without, alternating
which goes first, and prints the per-layer metrics and trace.overhead_frac
instead of the end-to-end ones.  Its job list does not depend on time, so
its counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 9
TRACE_ROUNDS = {"survey": 2, "arith": 2, "extremal": 4}  # 40 to 80 jobs each

sys.path.insert(0, str(HERE))

from checks import CheckFailed, check  # noqa: E402
from jobs import WORKLOADS, Job, make_round  # noqa: E402
from spans import COUNTER_NAMES, SPAN_NAMES, Tracer, instrument, self_times  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "peak_rss_mb": "MB",
}


def machine_info() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(caches.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


class SetupProbe:
    """Times fresh interpreters importing intersective_lab.cli.

    They are spread over the run, so setup_s, their median, samples the
    host across the whole run instead of in one burst.
    """

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.cmd = [sys.executable, "-c", "import intersective_lab.cli"]
        self.times: list[float] = []
        subprocess.run(self.cmd, env=env, cwd=ROOT, check=True)  # writes the bytecode caches

    def sample(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        self.times.append(time.perf_counter() - t0)


class Runner:
    """Runs one job at a time in this process."""

    def __init__(self, out_path: Path):
        from intersective_lab import arcs_fourier, cli, energy

        self.cli, self.arcs, self.energy = cli, arcs_fourier, energy
        self.out_path = str(out_path)
        self.caches = [
            obj
            for name, mod in sys.modules.items()
            if name.startswith("intersective_lab")
            for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None))
        ]

    def run(self, job: Job) -> tuple[float, dict | None, str | None]:
        """(timed seconds, result section or None, error or None)."""
        for fn in self.caches:
            fn.cache_clear()
        gc.collect()  # a fresh process would not collect the last job's garbage
        if job.is_cli:
            return self._run_cli(job.argv)
        p = job.params
        if job.kind == "ch_check":
            elems = [Fraction(a, p["D"]) for a in p["nums"]]
            A = list(p["A"])
            t0 = time.perf_counter()
            S = self.energy.FreqSet.build(elems, p["m"], 0)
            c = self.energy.ch_check(A, p["N"], S)
            dt = time.perf_counter() - t0
            return dt, {"lhs": c.lhs, "rhs": c.rhs, "ratio": c.ratio}, None
        if job.kind == "circle":
            A = list(p["A"])
            t0 = time.perf_counter()
            mass = self.arcs.circle_l2_mass(A, p["N"])
            total = self.arcs.parseval_total(A, p["N"])
            dt = time.perf_counter() - t0
            return dt, {"mass": mass, "parseval": total}, None
        raise ValueError(f"unknown job kind {job.kind!r}")

    def _run_cli(self, argv) -> tuple[float, dict | None, str | None]:
        err = None
        t0 = time.perf_counter()
        try:
            rc = self.cli.main([*argv, "--out", self.out_path])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # a traceback in a real CLI run
            rc, err = None, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if err is None and rc != 0:
            err = f"exit code {rc}"
        if err is not None:
            return dt, None, err
        with open(self.out_path) as fh:
            return dt, json.load(fh)["result"], None

    def rerun(self, argv) -> dict:
        _, res, err = self.run(Job("rerun", tuple(argv)))
        if err is not None:
            raise CheckFailed(f"re-run failed: {err}")
        return res


def hd_quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of xs.

    A mean of all order statistics, weighted by the Beta(p(n+1), (1-p)(n+1))
    mass of each rank's interval, so it does not jump when one job moves
    across the quantile as a single order statistic does.
    """
    import numpy as np

    x = np.sort(np.asarray(xs, dtype=float))
    n, grid = len(x), 64
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = (np.arange(n * grid) + 0.5) / (n * grid)
    logpdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.exp(logpdf - logpdf.max()).reshape(n, grid).sum(axis=1)
    return float(w @ x / w.sum())


def _verify(runner: Runner, job: Job, res, err) -> str | None:
    if err is not None:
        return err
    try:
        check(job, res, runner.rerun)
    except CheckFailed as exc:
        return f"check failed: {exc}"
    return None


def _canonical(res) -> bytes:
    return json.dumps(res, sort_keys=True, separators=(",", ":")).encode()


def _report_failure(job: Job, msg: str) -> None:
    what = " ".join(job.argv) if job.is_cli else f"{job.kind} N={job.params.get('N')}"
    print(f"FAILED {what[:200]}: {msg}", file=sys.stderr)


def run_untraced(runner: Runner, probe: SetupProbe, workload: str, seed: int, seconds: float) -> dict:
    rounds: list[list[float]] = []
    kinds: dict[str, list[float]] = {}
    failed = 0
    digest = hashlib.sha256()
    timed = 0.0
    while not rounds or timed < seconds:
        while len(probe.times) < 1 + (SETUP_REPS - 1) * min(1.0, timed / seconds):
            probe.sample()
        lat = []
        for job in make_round(workload, seed, len(rounds)):
            dt, res, err = runner.run(job)
            lat.append(dt)
            kinds.setdefault(job.kind, []).append(dt)
            err = _verify(runner, job, res, err)
            if err is not None:
                failed += 1
                _report_failure(job, err)
            if not rounds:
                digest.update(_canonical(res))
        rounds.append(lat)
        timed += sum(lat)
    while len(probe.times) < SETUP_REPS:
        probe.sample()
    return {"rounds": rounds, "kinds": kinds, "failed": failed, "digest": digest.hexdigest()}


def run_traced(runner: Runner, workload: str, seed: int) -> dict:
    tracer = Tracer()
    traced_s = plain_s = 0.0
    failed = attempted = 0
    digest = hashlib.sha256()
    jobs = [job for r in range(TRACE_ROUNDS[workload]) for job in make_round(workload, seed, r)]
    for i, job in enumerate(jobs):
        outs = {}
        for traced in ((False, True) if i % 2 else (True, False)):
            if traced:
                with instrument(tracer):
                    outs[traced] = runner.run(job)
            else:
                outs[traced] = runner.run(job)
        traced_s += outs[True][0]
        plain_s += outs[False][0]
        attempted += 2
        _, res, err = outs[True]
        err = _verify(runner, job, res, err)
        if err is None and outs[False][1] != res:
            err = "results differ with and without tracing"
        if err is not None:
            failed += 2
            _report_failure(job, err)
        digest.update(_canonical(res))
    return {
        "tracer": tracer, "traced_s": traced_s, "plain_s": plain_s,
        "attempted": attempted, "failed": failed, "digest": digest.hexdigest(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def workload_main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "intersective_lab" / "cli.py").is_file():
        print(f"error: {SRC / 'intersective_lab'} not found; run from a checkout", file=sys.stderr)
        return 2
    print("machine:", json.dumps(machine_info(), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"job-{os.getpid()}.json"
    try:
        if not trace:
            probe = SetupProbe()
        sys.path.insert(0, str(SRC))
        # sieve warns when X is small for Y; once per message is noise here
        warnings.filterwarnings("ignore", message=r"X=\d+ is small for Y=")
        runner = Runner(scratch)
        if trace:
            return _trace_report(runner, workload, seed)
        r = run_untraced(runner, probe, workload, seed, seconds)
    finally:
        scratch.unlink(missing_ok=True)
    rounds = r["rounds"]
    lat = [x for rnd in rounds for x in rnd]
    n = len(lat)
    # medians over rounds: every round carries nearly the same work, so a
    # slow spell of the shared host moves a minority of rounds, not the result
    per_round = {
        "jobs_per_s": [len(rnd) / sum(rnd) for rnd in rounds],
        "job_s.p50": [hd_quantile(rnd, 0.5) for rnd in rounds],
        "job_s.p90": [hd_quantile(rnd, 0.9) for rnd in rounds],
    }
    metrics = {
        "setup_s": statistics.median(probe.times),
        "jobs_per_s": statistics.median(per_round["jobs_per_s"]),
        "job_s.p50": statistics.median(per_round["job_s.p50"]),
        "job_s.p90": statistics.median(per_round["job_s.p90"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(1 for x in lat if x > metrics["job_s.p90"])
    print(f"workload {workload} seed {seed}: {n} jobs in {len(rounds)} rounds, closed loop, one client")
    print(f"  setup_s is the median of {len(probe.times)} imports; jobs_per_s, job_s.p50 and job_s.p90 are medians of {len(rounds)} per-round values:")
    for name, xs in per_round.items():
        print(f"    {name:<10} " + " ".join(f"{x:.5g}" for x in xs))
    for name, value in metrics.items():
        print(f"  {name:<12} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_frac':<12} {r['failed'] / n:.6g} ratio ({r['failed']} of {n} jobs)")
    print(f"  jobs beyond p90: {beyond}{'' if beyond >= 10 else ' (fewer than 10: p90 not valid)'}")
    for kind, xs in sorted(r["kinds"].items()):
        print(f"  {kind:<18} {len(xs):4d} jobs, median {statistics.median(xs):.4g} s, total {sum(xs):.4g} s")
    print(f"  result_digest sha256:{r['digest']} (round 0)")
    result = {
        "correct": r["failed"] == 0,
        "attempted": n,
        "failed": r["failed"],
        "metrics": {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _trace_report(runner: Runner, workload: str, seed: int) -> int:
    r = run_traced(runner, workload, seed)
    tracer = r["tracer"]
    tracer.dump(str(OUT / f"trace-{workload}-seed{seed}.json"))
    summary = self_times(tracer.spans)
    counts = tracer.counts
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(self_s, "s")
    for name in COUNTER_NAMES:
        metrics[name] = _metric(counts[name], "count")
    scanned = counts["expsum.scan_residues"]
    ratio = counts["expsum.scan_admissible"] / scanned if scanned else 0.0
    metrics["expsum.scan_admissible_ratio"] = _metric(ratio, "ratio")
    metrics["trace.overhead_frac"] = _metric(r["traced_s"] / r["plain_s"] - 1, "ratio")
    jobs = r["attempted"] // 2
    print(f"workload {workload} seed {seed}: rounds 0-{TRACE_ROUNDS[workload] - 1} traced, {jobs} jobs, each also run untraced")
    layers: dict[str, float] = {}
    for name, (_, self_s) in summary.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    print(f"  layer self time, share of {r['traced_s']:.4g} s traced job time:")
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<14} {s:9.4f} s {100 * s / r['traced_s']:6.1f} %")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  result_digest sha256:{r['digest']} (rounds 0-{TRACE_ROUNDS[workload] - 1})")
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process (peak RSS is per process), in turn."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return workload_main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
