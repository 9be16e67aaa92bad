"""Run loops, metrics and reporting of the benchmark (see ``run.py``)."""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
import scipy.linalg

from .tracing import PER_LAYER, Tracer
from .workloads import WORKLOADS

SETUP_REPEATS = 9

END_TO_END = (
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("solves_per_s", "1/s"),
    ("pass_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Clock:
    """Brackets one timed solve."""

    def start(self):
        self._t0 = perf_counter()

    def stop(self):
        return perf_counter() - self._t0


class Calibration:
    """Package-independent reference kernel, timed before every solve.

    The host is shared, and its speed drifts by 20-40% between runs.  This
    kernel uses the same kind of work as the solver (small scipy and numpy
    calls driven from Python), so its mean time over a run tracks that
    drift.  Timing metrics are scaled by ``REFERENCE_MS / mean``: they read
    as milliseconds on a host where the kernel takes ``REFERENCE_MS``, about
    its time on a quiet 2-core x86_64 Xeon at 2.1 GHz.  Raw wall times are
    printed and recorded next to them.
    """

    REFERENCE_MS = 0.7

    def __init__(self):
        rng = np.random.default_rng(0)
        self.L = np.tril(rng.standard_normal((8, 8))) + 8.0 * np.eye(8)
        self.b = rng.standard_normal(8)
        G = rng.standard_normal((8, 8))
        self.S = G @ G.T + 8.0 * np.eye(8)
        self.times = []
        self()
        self.times.clear()  # the first, cold call is not kept

    def __call__(self):
        t0 = perf_counter()
        for _ in range(20):
            x = scipy.linalg.solve_triangular(self.L, self.b, lower=True,
                                              check_finite=False)
            C = scipy.linalg.cholesky(self.S, lower=True, check_finite=False)
            y = np.where(x > 0.0, x, 0.0)
            np.concatenate([C @ x, y])
            sum(range(20))
        self.times.append(perf_counter() - t0)

    def scale(self):
        return self.REFERENCE_MS * 1e-3 / statistics.fmean(self.times)


class TracedClock(Clock):
    """Also opens and closes the request span (and its flop counter)."""

    def __init__(self, tracer):
        self.tracer = tracer

    def start(self):
        self.tracer.begin_request()
        self._t0 = perf_counter()

    def stop(self):
        seconds = perf_counter() - self._t0
        self.tracer.end_request()
        return seconds


def setup(name, seed, repeats=SETUP_REPEATS, calibrate=lambda: None):
    """Build the workload ``repeats`` times, each with one warm-up solve.

    Returns the last instance and every set-up time; the instances are
    identical because the inputs depend on the seed only.
    """
    cls = WORKLOADS[name]
    times = []
    wl = None
    for _ in range(repeats):
        calibrate()
        calibrate()
        t0 = perf_counter()
        wl = cls(seed)
        wl.solve(wl.units[0][0], Clock())
        times.append(perf_counter() - t0)
    return wl, times


def timed_run(wl, seconds, calibrate):
    """Untraced closed loop over whole units until ``seconds`` have passed."""
    clock = Clock()
    outcomes = []
    t_begin = perf_counter()
    while True:
        for unit in wl.units:
            for item in unit:
                calibrate()
                outcomes.append(wl.solve(item, clock))
            if perf_counter() - t_begin >= seconds:
                return outcomes


def trace_items(wl):
    return [item for unit in wl.units[: wl.trace_units] for item in unit]


def traced_pass(wl, items, tracer):
    """One pass over ``items`` with the wrappers installed."""
    clock = TracedClock(tracer)
    outcomes = []
    tracer.install()
    try:
        for item in items:
            out = wl.solve(item, clock)
            tracer.iterations[-1] = out.iterations
            outcomes.append(out)
    finally:
        tracer.uninstall()
    return outcomes


def traced_run(wl, seconds, tracer):
    """Alternate an untraced and a traced pass over the same fixed items.

    Both passes solve the same QPs, so their medians give the tracing
    overhead, and the per-layer counts repeat exactly for a given seed.
    """
    items = trace_items(wl)
    untraced, traced = [], []
    clock = Clock()
    t_begin = perf_counter()
    while True:
        untraced += [wl.solve(item, clock) for item in items]
        traced += traced_pass(wl, items, tracer)
        if perf_counter() - t_begin >= seconds:
            return untraced, traced


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcomes, setup_times, scale=1.0, setup_scale=1.0):
    """End-to-end metrics with scaled times; plus the p90 tail count."""
    t = [o.seconds * scale for o in outcomes]
    _, attempted, failed, _ = verdict(outcomes)
    p90 = statistics.quantiles(t, n=10)[-1] if len(t) > 1 else t[0]
    values = {
        "solve_ms_p50": statistics.median(t) * 1e3,
        "solve_ms_p90": p90 * 1e3,
        "solves_per_s": len(t) / sum(t),
        "pass_frac": 1.0 - failed / attempted,
        "setup_s": statistics.median(setup_times) * setup_scale,
        "peak_rss_mb": peak_rss_mb(),
    }
    tail = sum(x > p90 for x in t)
    return values, tail


def verdict(outcomes):
    """Gate verdict over the distinct items a run solved.

    A run repeats its items until its time is up, so how many solves it
    makes depends on the host's speed, but not which items it covers.
    ``attempted`` and ``failed`` count distinct items, so a seed always
    gives the same counts.  Every repeated solve is gated as well: an item
    whose solves do not all reach the same verdict makes the run incorrect,
    as does any failure that is not the known defect.

    Returns (correct, attempted, failed, known).
    """
    verdicts = {}
    for o in outcomes:
        verdicts.setdefault(o.item, set()).add((o.passed, o.known_defect))
    steady = all(len(v) == 1 for v in verdicts.values())
    failed = sum(not all(p for p, _ in v) for v in verdicts.values())
    known = sum(all(k and not p for p, k in v) for v in verdicts.values())
    return steady and known == failed, len(verdicts), failed, known


def _openblas():
    """Version string and runtime thread count of each loaded OpenBLAS."""
    out = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            info = {}
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    nth = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if cfg is not None and nth is not None:
                        cfg.restype = ctypes.c_char_p
                        nth.restype = ctypes.c_int
                        info = {"config": cfg().decode(), "threads": nth()}
                        break
                if info:
                    break
            out[pkg.__name__] = info or {"config": Path(path).name,
                                         "threads": None}
    return out


def _git_rev(root):
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root, seed):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        "git_rev": _git_rev(root),
        "seed": seed,
    }


def _fmt(v):
    return "absent" if v is None else f"{v:.6g}"


def run(name, seed, seconds, trace, root, out_dir):
    """Run one workload; print the report and return the result object."""
    out_dir.mkdir(exist_ok=True)
    env = environment(root, seed)
    setup_cal = Calibration()
    wl, setup_times = setup(name, seed, calibrate=setup_cal)
    fingerprint = wl.fingerprint(out_dir / f".{name}.fingerprint.tmp")
    lines = [f"workload {name}  seed {seed}  trace {trace}  seconds {seconds}",
             "env " + json.dumps(env, sort_keys=True),
             f"inputs_sha256 {fingerprint}"]
    extra = {}
    if trace:
        tracer = Tracer()
        untraced, traced = traced_run(wl, seconds, tracer)
        outcomes = untraced + traced
        layer = tracer.layer_metrics([o.seconds for o in untraced],
                                     [o.seconds for o in traced])
        metrics = {m: {"value": 0.0 if layer[m] is None else layer[m],
                       "unit": unit} for m, unit in PER_LAYER}
        absent = tracer.absent_metrics()
        lines.append(f"traced solves {len(traced)} (same items untraced: "
                     f"{len(untraced)})")
        lines.append("absent wrap targets: " + (", ".join(tracer.absent)
                                                or "none"))
        lines.append("absent metrics (reported as 0 below): "
                     + (", ".join(absent) or "none"))
        lines += [f"  {m:<38} {_fmt(layer[m]):>12} {unit}"
                  for m, unit in PER_LAYER]
        tracer.write_csv(out_dir / f"{name}-spans.csv")
        extra = {"absent_targets": tracer.absent, "absent_metrics": absent}
    else:
        cal = Calibration()
        outcomes = timed_run(wl, seconds, cal)
        scale = cal.scale()
        values, tail = end_to_end(outcomes, setup_times, scale,
                                  setup_cal.scale())
        wall, _ = end_to_end(outcomes, setup_times)
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, unit in END_TO_END}
        lines.append(f"samples {len(outcomes)}  beyond_p90 {tail}  "
                     f"setup_repeats {len(setup_times)}")
        lines.append(f"calibration mean {statistics.fmean(cal.times) * 1e3:.6g}"
                     f" ms over {len(cal.times)} -> time scale {scale:.6g}")
        lines += [f"  {m:<14} {_fmt(values[m]):>12} {unit:<6} wall {_fmt(wall[m])}"
                  for m, unit in END_TO_END]
        extra = {"time_scale": scale, "setup_time_scale": setup_cal.scale(),
                 "setup_times": setup_times, "wall_metrics": wall}
    correct, attempted, failed, known = verdict(outcomes)
    bad = [o for o in outcomes if not o.passed]
    lines.append(
        f"gate: {attempted - failed}/{attempted} distinct items passed "
        f"({len(outcomes) - len(bad)}/{len(outcomes)} solves), "
        f"fail_frac {failed / attempted:.6g}, of the failed items {known} "
        f"are the known speed_abs defect -> "
        f"{'correct' if correct else 'INCORRECT'}"
    )
    for o in bad[:5]:
        lines.append(
            f"  failed: {o.label} status {o.status} res_g/b/d/m "
            + " ".join(f"{v:.2e}" for v in o.norms)
        )
    result = {"correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=name, trace=trace, seconds=seconds,
                  env=env, inputs_sha256=fingerprint,
                  iterations=[o.iterations for o in outcomes],
                  statuses=sorted({o.status for o in outcomes}), **extra)
    (out_dir / f"{name}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return lines, result
