"""In-memory spans and counters, and the wrappers that record them.

A span is (name, start, end, parent): the parent is the index of the span
that was open on the same thread when it started.  Self time is a span's
duration minus the part of it that its child spans cover.  Counters are
taken from the arguments and return values at the same boundaries.

`instrument` replaces each listed public function of intersective_lab in
every intersective_lab namespace that binds it (the defining module, the
package, and modules that imported it by name, such as cli), and the two
classmethods and one method on their classes; it restores all of them on
exit.  No file under src/ is changed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import threading
import time
from collections import Counter
from typing import Callable, Iterator, Optional

PACKAGE = "intersective_lab"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, Optional[int]]] = []
        self.counts: Counter = Counter()
        self._open = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._open, "stack"):
            self._open.stack = []
        return self._open.stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append((name, time.perf_counter(), math.nan, parent))
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            end = time.perf_counter()
            with self._lock:
                n, start, _, par = self.spans[idx]
                self.spans[idx] = (n, start, end, par)

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, out)
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per name: calls and self time, the span minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - covered)
    return out


# ----------------------------------------------------------------------
# Counters taken at the span boundaries
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def arcs_upto(n: int) -> list[int]:
    """prefix[q] = number of reduced a/q' with q' <= q, (1, 1) counted once."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    prefix = [0] * (n + 1)
    for q in range(1, n + 1):
        prefix[q] = prefix[q - 1] + phi[q]
    return prefix


def _count_profile(c, a, out):
    c["residue_sieve.residues_scanned"] += sum(pd.modulus for pd in out.per_prime.values())


def _count_sieve(c, a, out):
    c["residue_sieve.sieve_cells"] += out.period if out.method == "wheel" else a["X"]


def _count_scan(c, a, out):
    c["expsum.scan_residues"] += sum(r.q for r in out)
    c["expsum.scan_admissible"] += sum(r.admissible for r in out)


def _count_phase(c, a, out):
    c["expsum.phase_terms"] += a["spec"].M


def _count_circle(c, a, out):
    c["arcs_fourier.fft_points"] += a["oversample"] * a["N"]


def _count_hfree(c, a, out):
    c["hfree.forbidden"] += len(out.forbidden)


def _count_survey(c, a, out):
    # The grid and arc range of select_gamma's docstring: a power-of-two
    # grid with spacing <= 1/(oversample N), and q <= kappa / sigma^(k+1)
    # clamped at q_cap.
    N = a["N"]
    size = len(set(a["A"]))
    c["increment.fft_points"] += 1 << max(4, math.ceil(math.log2(a["oversample"] * N)))
    c["increment.arcs_selected"] += len(out.entries)
    if size:
        sigma = size / N
        q_max = min(a["q_cap"], max(1, math.floor(a["kappa"] / sigma ** (a["fam"].k + 1))))
        c["increment.arcs_scanned"] += arcs_upto(a["q_cap"])[q_max]


def _count_steps(c, a, out):
    c["increment.steps"] += len(out) - 1


def _count_energy(c, a, out):
    fs = a["fs"]
    c["energy.fold_tuples"] += len(fs.elems) ** fs.m


# (span name, module, attribute path, counter); the span name is the layer
# (module) followed by the function's qualified name.
TARGETS = [
    ("intersective.check_intersective", "intersective", "check_intersective", None),
    ("intersective.hensel_roots", "intersective", "hensel_roots", None),
    ("intersective.aux_record", "intersective", "AuxFamily.aux_record", None),
    ("residue_sieve.SieveProfile.build", "residue_sieve", "SieveProfile.build", _count_profile),
    ("residue_sieve.sieve_count", "residue_sieve", "sieve_count", _count_sieve),
    ("expsum.cancellation_scan", "expsum", "cancellation_scan", _count_scan),
    ("expsum.phase_sum", "expsum", "phase_sum", _count_phase),
    ("expsum.complete_sum", "expsum", "complete_sum", None),
    ("arcs_fourier.circle_l2_mass", "arcs_fourier", "circle_l2_mass", _count_circle),
    ("arcs_fourier.fourier_set", "arcs_fourier", "fourier_set", None),
    ("hfree.HFreeInstance.build", "hfree", "HFreeInstance.build", _count_hfree),
    ("hfree.greedy_h_free", "hfree", "greedy_h_free", None),
    ("hfree.is_h_free", "hfree", "is_h_free", None),
    ("hfree.max_h_free_exact", "hfree", "max_h_free_exact", None),
    ("increment.run_iteration", "increment", "run_iteration", _count_steps),
    ("increment.select_gamma", "increment", "select_gamma", _count_survey),
    ("increment.find_increment", "increment", "find_increment", None),
    ("energy.additive_energy", "energy", "additive_energy", _count_energy),
    ("energy.ch_check", "energy", "ch_check", None),
    ("cli.main", "cli", "main", None),
]

SPAN_NAMES = [t[0] for t in TARGETS]
COUNTER_NAMES = [
    "residue_sieve.residues_scanned",
    "residue_sieve.sieve_cells",
    "expsum.scan_residues",
    "expsum.phase_terms",
    "arcs_fourier.fft_points",
    "hfree.forbidden",
    "increment.fft_points",
    "increment.arcs_scanned",
    "increment.arcs_selected",
    "increment.steps",
    "energy.fold_tuples",
]


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore."""
    modules = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
    undo: list[tuple[object, str, object]] = []
    try:
        for span_name, mod_name, path, count in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(span_name, raw.__func__, count))
                else:
                    new = tracer.wrap(span_name, raw, count)
                undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            new = tracer.wrap(span_name, original, count)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is original:
                        undo.append((mod, name, original))
                        setattr(mod, name, new)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
