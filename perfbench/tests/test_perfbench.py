"""Self-checks of the benchmark: determinism, smoke run, fail-soft tracing."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _p in (ROOT / "src", ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import mpcqp.solver  # noqa: E402
from perfbench import harness, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome  # noqa: E402


def _traced_prefix(name, seed, n_items, tmp_path, targets=None):
    """Fingerprint and per-layer metrics of a short traced pass."""
    wl, _ = harness.setup(name, seed, repeats=1)
    fp = wl.fingerprint(tmp_path / f"{name}-{seed}.tmp")
    tracer = tracing.Tracer(targets)
    outs = harness.traced_pass(wl, harness.trace_items(wl)[:n_items], tracer)
    times = [o.seconds for o in outs]
    return fp, tracer, tracer.layer_metrics(times, times), outs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_inputs_and_counts(name, tmp_path):
    fp_a, _, a, _ = _traced_prefix(name, 7, 3, tmp_path)
    fp_b, _, b, _ = _traced_prefix(name, 7, 3, tmp_path)
    assert fp_a == fp_b
    assert a["linalg.flops_per_solve"] > 0
    assert a["linalg.flops_per_solve"] == b["linalg.flops_per_solve"]
    assert a["ipm_core.iters_per_solve"] > 0
    assert a["ipm_core.iters_per_solve"] == b["ipm_core.iters_per_solve"]
    assert set(a) == {m for m, _ in tracing.PER_LAYER}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_changes_inputs(name, tmp_path):
    fps = {WORKLOADS[name](seed).fingerprint(tmp_path / "fp.tmp")
           for seed in (7, 8)}
    assert len(fps) == 2


def test_missing_wrap_target_is_reported_absent(tmp_path):
    targets = [t for t in tracing._targets() if t[0] != "kkt_ocp.factor"]
    targets.append(("kkt_ocp.factor", "mpcqp.no_such_module", "riccati_factor"))
    original = mpcqp.solver.make_view
    _, tracer, layer, outs = _traced_prefix("mpc_loop", 1, 2, tmp_path, targets)
    assert all(o.passed for o in outs)
    assert tracer.absent == ["kkt_ocp.factor <- mpcqp.no_such_module:riccati_factor"]
    for m in ("kkt_ocp.factor_ms", "kkt_ocp.factor_calls_per_iter",
              "kkt_ocp.factor_fail_frac"):
        assert layer[m] is None
    assert layer["kkt_ocp.solve_ms"] > 0
    assert mpcqp.solver.make_view is original


def _outcome(item, passed, known=False):
    return Outcome(0.01, 5, "Success", passed, known, (0.0,) * 4, "x", item)


def test_verdict_counts_distinct_items():
    outs = [_outcome((0, "speed"), True), _outcome((1, "speed_abs"), False, True)]
    assert harness.verdict(outs * 3) == (True, 2, 1, 1)
    assert harness.verdict(outs + [_outcome((2, "speed"), False)]) == \
        (False, 3, 2, 1)
    # repeats of one item that disagree
    assert harness.verdict(outs + [_outcome((1, "speed_abs"), True)]) == \
        (False, 2, 1, 0)


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


def _json_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith("{")]


def test_smoke_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = _json_lines(proc.stdout)
    assert len(results) == len(WORKLOADS)
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert res["attempted"] >= 1
        assert {(k, v["unit"]) for k, v in res["metrics"].items()} == \
            set(harness.END_TO_END)
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mpc_loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert _json_lines(proc.stdout) == []
