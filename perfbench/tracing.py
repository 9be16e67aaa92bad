"""Traced run: wrappers at the package's call bindings, spans, per-layer sums.

Only a traced pass installs wrappers, and it removes them afterwards.  Each
wrapper records one span (name, start, end, parent span, request id, flags)
while a request is open and is a plain pass-through otherwise, so calls the
benchmark makes outside a timed solve (the gate, the warm-start shift) leave
no spans.  Spans stay in compact in-memory arrays until :meth:`write_csv`.

A wrap target that no longer exists is recorded as absent instead of
failing the run; every metric that depends on it is then reported absent.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from array import array
from time import perf_counter

import numpy as np

from mpcqp import flop_counter

RAISED = 1

KERNELS = ("cholesky_factor", "solve_triangular", "qr_cholesky", "matmul_acc")
KERNEL_MODULES = ("kkt_ocp", "kkt_tree", "kkt_dense", "kkt_common", "condensing")
BACKENDS = {
    "kkt_ocp": ("riccati_factor", "RiccatiFactor.solve"),
    "kkt_tree": ("tree_riccati_factor", "TreeRiccatiFactor.solve"),
    "kkt_dense": ("factor", "DenseKktFactor.solve"),
}
SOLVERS = ("solve_ocp_qp", "solve_dense_qp", "solve_tree_ocp_qp")

# (span name, module, attribute path); the linalg kernels are added per
# module that imports them, see _targets()
TARGETS = (
    [(f"solver.{f}", "mpcqp.solver", f) for f in SOLVERS]
    + [
        ("qp_data.validate", "mpcqp.solver", "validate"),
        ("view.make_view", "mpcqp.solver", "make_view"),
        ("view.build", "mpcqp.view", "ProblemView.__init__"),
        ("view.residuals", "mpcqp.view", "ProblemView.residuals"),
        ("ipm_core.refine", "mpcqp.solver", "iterative_refinement"),
        ("kkt_common.apply", "mpcqp.solver", "kkt_apply_vec"),
        ("condensing.condense", "mpcqp.condensing", "condense"),
        ("condensing.expand", "mpcqp.condensing", "expand_solution"),
    ]
    + [
        (f"{mod}.{kind}", f"mpcqp.{mod}", attr)
        for mod, attrs in BACKENDS.items()
        for kind, attr in zip(("factor", "solve"), attrs)
    ]
)

# per-layer metrics: (name, unit); also the order of the printed table
PER_LAYER = (
    [
        ("solver.self_ms", "ms"),
        ("ipm_core.iters_per_solve", "count"),
        ("ipm_core.refine_ms", "ms"),
        ("ipm_core.refine_calls_per_solve", "count"),
        ("qp_data.validate_ms", "ms"),
        ("view.make_view_ms", "ms"),
        ("view.builds_per_call", "ratio"),
        ("view.residuals_ms", "ms"),
        ("view.residuals_calls_per_solve", "count"),
        ("kkt_common.apply_ms", "ms"),
    ]
    + [
        (f"{mod}.{m}", unit)
        for mod in BACKENDS
        for m, unit in (
            ("factor_ms", "ms"),
            ("solve_ms", "ms"),
            ("factor_calls_per_iter", "count"),
            ("factor_fail_frac", "ratio"),
            ("solve_calls_per_iter", "count"),
        )
    ]
    + [
        ("condensing.condense_ms", "ms"),
        ("condensing.expand_ms", "ms"),
        ("linalg.calls_per_solve", "count"),
        ("linalg.ms_per_solve", "ms"),
        ("linalg.us_per_call", "us"),
        ("linalg.flops_per_solve", "flop"),
        ("linalg.mflops_per_s", "Mflop/s"),
    ]
    + [(f"linalg.{k}_calls_per_solve", "count") for k in KERNELS]
    + [
        ("tracing.untraced_p50_ms", "ms"),
        ("tracing.traced_p50_ms", "ms"),
        ("tracing.overhead_ms", "ms"),
        ("tracing.spans_per_solve", "count"),
    ]
)


def _targets():
    out = list(TARGETS)
    for mod in KERNEL_MODULES:
        for k in KERNELS:
            out.append((f"linalg.{k}", f"mpcqp.{mod}", k))
    return out


def _resolve(module, path):
    """(owner, attr, original) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        fn = owner.__dict__.get(attr)
    else:
        fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, targets=None):
        self.targets = _targets() if targets is None else list(targets)
        self.names = []
        self._name_id = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.flags = array("i")
        self._stack = []
        self._req = -1
        self._installed = []
        self.absent = []          # "span <- module:attr" of missing targets
        self.iterations = []      # per request
        self.flops = []           # per request

    def _id(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    # -- spans -------------------------------------------------------------

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._req)
        self.flags.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx, flags):
        self.end[idx] = perf_counter()
        self._stack.pop()
        if flags:
            self.flags[idx] = flags

    def begin_request(self):
        self._req = len(self.iterations)
        self.iterations.append(0)
        self.flops.append(0)
        self._fc_cm = flop_counter()
        self._fc = self._fc_cm.__enter__()
        self._open(self._id("request"))

    def end_request(self):
        self._close(self._stack[-1], 0)
        self._fc_cm.__exit__(None, None, None)
        self.flops[self._req] = self._fc.flops
        self._req = -1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, nid, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._req < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            flags = 0
            try:
                return fn(*args, **kwargs)
            except Exception:
                flags = RAISED
                raise
            finally:
                tracer._close(idx, flags)

        return traced

    def install(self):
        """Wrap every target that exists; record the missing ones."""
        found = set()
        missing = []
        for span, module, path in self.targets:
            hit = _resolve(module, path)
            if hit is None:
                missing.append((span, f"{module}:{path}"))
                continue
            owner, attr, fn = hit
            setattr(owner, attr, self._wrap(self._id(span), fn))
            self._installed.append((owner, attr, fn))
            found.add(span)
        # a kernel is absent only if no module binds it any more; other
        # targets are absent whenever their single binding is gone
        self.absent = sorted({
            f"{span} <- {where}" for span, where in missing
            if not (span.startswith("linalg.") and span in found)
        })

    def uninstall(self):
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    # -- output ------------------------------------------------------------

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("span,name,request,parent,start_s,end_s,raised\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.request[i]},"
                    f"{self.parent[i]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.flags[i] & RAISED}\n"
                )

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, untraced_times, traced_times):
        """Per-layer metrics per traced solve; absent ones map to None.

        ``*_ms`` metrics are summed span time per solve, ``*_per_iter``
        divide by the solver iterations of the traced solves.  Self time is
        a span's duration minus the durations of its direct children (one
        thread, so children never overlap).
        """
        n = len(self.start)
        names = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        raised = (np.array(self.flags, dtype=np.int64) & RAISED) > 0
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        nreq = max(1, len(self.iterations))
        iters = max(1, sum(self.iterations))
        ids = {name: i for i, name in enumerate(self.names)}

        def mask(*span_names):
            sel = [ids[s] for s in span_names if s in ids]
            return np.isin(names, sel) if sel else np.zeros(n, bool)

        def parent_in(m):
            out = np.zeros(n, bool)
            out[has_parent] = m[parent[has_parent]]
            return out

        solver_spans = mask(*(f"solver.{f}" for f in SOLVERS))
        under_solver = parent_in(solver_spans)
        kernels = mask(*(f"linalg.{k}" for k in KERNELS))
        ms = {}

        def per_solve_ms(*span_names):
            return float(dur[mask(*span_names)].sum()) * 1e3 / nreq

        ms["solver.self_ms"] = float(
            (dur - child)[solver_spans].sum()) * 1e3 / nreq
        ms["ipm_core.iters_per_solve"] = sum(self.iterations) / nreq
        ms["ipm_core.refine_ms"] = per_solve_ms("ipm_core.refine")
        ms["ipm_core.refine_calls_per_solve"] = \
            int(mask("ipm_core.refine").sum()) / nreq
        ms["qp_data.validate_ms"] = per_solve_ms("qp_data.validate")
        mv = mask("view.make_view")
        ms["view.make_view_ms"] = per_solve_ms("view.make_view")
        ms["view.builds_per_call"] = (
            int((mask("view.build") & parent_in(mv)).sum()) / int(mv.sum())
            if mv.any() else 0.0
        )
        ms["view.residuals_ms"] = per_solve_ms("view.residuals")
        ms["view.residuals_calls_per_solve"] = \
            int(mask("view.residuals").sum()) / nreq
        ms["kkt_common.apply_ms"] = per_solve_ms("kkt_common.apply")
        for mod in BACKENDS:
            fac, sol = mask(f"{mod}.factor"), mask(f"{mod}.solve")
            ms[f"{mod}.factor_ms"] = per_solve_ms(f"{mod}.factor")
            ms[f"{mod}.solve_ms"] = per_solve_ms(f"{mod}.solve")
            ms[f"{mod}.factor_calls_per_iter"] = int(fac.sum()) / iters
            ms[f"{mod}.factor_fail_frac"] = (
                int((fac & raised).sum()) / int(fac.sum()) if fac.any() else 0.0
            )
            ms[f"{mod}.solve_calls_per_iter"] = \
                int((sol & under_solver).sum()) / iters
        ms["condensing.condense_ms"] = per_solve_ms("condensing.condense")
        ms["condensing.expand_ms"] = per_solve_ms("condensing.expand")
        n_kernel = int(kernels.sum())
        kernel_ms = float(dur[kernels].sum()) * 1e3
        flops = sum(self.flops) / nreq
        mean_untraced = statistics.fmean(untraced_times) if untraced_times else 0.0
        ms["linalg.calls_per_solve"] = n_kernel / nreq
        ms["linalg.ms_per_solve"] = kernel_ms / nreq
        ms["linalg.us_per_call"] = kernel_ms * 1e3 / n_kernel if n_kernel else 0.0
        ms["linalg.flops_per_solve"] = flops
        ms["linalg.mflops_per_s"] = (
            flops / mean_untraced / 1e6 if mean_untraced else 0.0
        )
        for k in KERNELS:
            ms[f"linalg.{k}_calls_per_solve"] = \
                int(mask(f"linalg.{k}").sum()) / nreq
        p50_u = statistics.median(untraced_times) * 1e3 if untraced_times else 0.0
        p50_t = statistics.median(traced_times) * 1e3 if traced_times else 0.0
        ms["tracing.untraced_p50_ms"] = p50_u
        ms["tracing.traced_p50_ms"] = p50_t
        ms["tracing.overhead_ms"] = p50_t - p50_u
        ms["tracing.spans_per_solve"] = n / nreq
        for metric in self.absent_metrics():
            ms[metric] = None
        return ms

    def absent_metrics(self):
        """Per-layer metrics that depend on an absent wrap target."""
        gone = {a.split(" <- ")[0] for a in self.absent}
        needs = {
            "solver.self_ms": [f"solver.{f}" for f in SOLVERS],
            "ipm_core.refine_ms": ["ipm_core.refine"],
            "ipm_core.refine_calls_per_solve": ["ipm_core.refine"],
            "qp_data.validate_ms": ["qp_data.validate"],
            "view.make_view_ms": ["view.make_view"],
            "view.builds_per_call": ["view.make_view", "view.build"],
            "view.residuals_ms": ["view.residuals"],
            "view.residuals_calls_per_solve": ["view.residuals"],
            "kkt_common.apply_ms": ["kkt_common.apply"],
            "condensing.condense_ms": ["condensing.condense"],
            "condensing.expand_ms": ["condensing.expand"],
        }
        for mod in BACKENDS:
            for m in ("factor_ms", "factor_calls_per_iter", "factor_fail_frac"):
                needs[f"{mod}.{m}"] = [f"{mod}.factor"]
            for m in ("solve_ms", "solve_calls_per_iter"):
                needs[f"{mod}.{m}"] = [f"{mod}.solve"]
        all_kernels = [f"linalg.{k}" for k in KERNELS]
        for m in ("calls_per_solve", "ms_per_solve", "us_per_call"):
            needs[f"linalg.{m}"] = all_kernels
        for k in KERNELS:
            needs[f"linalg.{k}_calls_per_solve"] = [f"linalg.{k}"]
        return sorted(m for m, spans in needs.items()
                      if any(s in gone for s in spans))
