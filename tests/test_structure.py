"""Module boundaries of the package, checked on its source with ``ast``.

Each concept has one home: the LAPACK bindings live in :mod:`linalg`
(mass-spring's matrix exponential aside), the ``scipy.sparse`` operators
in :mod:`view` and the Riccati recursion's constants in :mod:`kkt_ocp`.
No module reads a clock: wall time is measured by the benchmark alone.
The benchmark's tracer wraps package functions by name; those names are
checked here too, so that a refactor that moves one fails here instead of
silently reporting its per-layer metric as absent.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mpcqp"


def _dotted(node):
    """``a.b.c`` of a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _references(tree):
    """Every module or attribute path the source imports or reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
            out.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute):
            out.add(_dotted(node))
    return out


MODULES = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _users(prefix):
    return {name for name, tree in MODULES.items()
            if any(r == prefix or r.startswith(prefix + ".")
                   for r in _references(tree) if r)}


def _classes(name):
    return {n.name for n in MODULES[name].body if isinstance(n, ast.ClassDef)}


def test_only_linalg_calls_lapack():
    assert _users("scipy.linalg.lapack") == {"linalg.py"}
    # every other reach into scipy.linalg is mass_spring's expm
    assert _users("scipy.linalg") == {"linalg.py", "mass_spring.py"}
    spring = {r for r in _references(MODULES["mass_spring.py"])
              if r and (r == "scipy.linalg" or r.startswith("scipy.linalg."))}
    assert spring == {"scipy.linalg", "scipy.linalg.expm"}


def test_only_view_builds_sparse_operators():
    assert _users("scipy.sparse") == {"view.py"}


def test_src_has_no_timing_driver():
    assert _users("time") == set()
    for name, tree in MODULES.items():
        reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        reads.update(r.rsplit(".", 1)[-1] for r in _references(tree) if r)
        assert "perf_counter" not in reads, name


def test_riccati_constants_live_in_kkt_ocp():
    riccati = {"RiccatiBand", "RiccatiLevel"}
    assert not riccati & _classes("view.py")
    assert riccati <= _classes("kkt_ocp.py")


def _tracing():
    """``perfbench/tracing.py``, loaded from its file (it is only read)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_target_resolves():
    tracing = _tracing()
    for span, module, path in tracing.TARGETS:
        assert module.startswith("mpcqp."), span
        hit = tracing._resolve(module, path)
        assert hit is not None and callable(hit[2]), f"{span} <- {module}:{path}"
