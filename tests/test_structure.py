"""Module boundaries of the package, checked on its source with ``ast``.

Each concept has one home: the LAPACK and BLAS bindings live in :mod:`linalg`
(mass-spring's matrix exponential aside), the ``scipy.sparse`` operators
in :mod:`view` and the Riccati recursion's constants in :mod:`kkt_ocp`.
Condensing factors nothing, so it takes only the flop counter from
:mod:`linalg`.
No module reads a clock: wall time is measured by the benchmark alone.
Every ``IpmArg`` field has a reader, so no knob outlives its mechanism.
The benchmark's tracer wraps package functions by name; those names are
checked here too, so that a refactor that moves one fails here instead of
silently reporting its per-layer metric as absent.
One boundary is checked on live objects: a view holds its QP's storage,
never the QP, so that the QP's view cache makes no reference cycle.
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
    # the Riccati update kernels' BLAS calls stay behind linalg too
    assert _users("scipy.linalg.blas") == {"linalg.py"}
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


def test_condensing_is_not_coupled_to_the_riccati_kernels():
    # the condensing sweep factors nothing: of linalg it takes only the
    # flop counter, and it imports nothing from the interior point core
    refs = {r for r in _references(MODULES["condensing.py"]) if r}
    assert {r for r in refs if r.startswith("linalg")} == {
        "linalg", "linalg.count_flops"}
    assert not {r for r in refs if r.startswith("ipm_core")}


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


def test_every_linalg_kernel_has_a_caller():
    # every kernel the package exports is used by another module of it; the
    # flop counter is instrumentation for callers outside the package too
    tree = MODULES["linalg.py"]
    exported = next(ast.literal_eval(n.value) for n in tree.body
                    if isinstance(n, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in n.targets))
    counter = {"flop_counter", "count_flops", "FlopCounter"}
    kernels = set(exported) - counter
    assert kernels and counter <= set(exported)
    for name in sorted(kernels):
        assert _users(f"linalg.{name}") - {"linalg.py"}, name


def test_every_ipm_arg_field_is_read():
    # every knob of IpmArg is read as an attribute by the package outside
    # the class itself (whose validate reads them all), so none is unread
    ipm_arg = next(n for n in MODULES["ipm_core.py"].body
                   if isinstance(n, ast.ClassDef) and n.name == "IpmArg")
    fields = {n.target.id for n in ipm_arg.body if isinstance(n, ast.AnnAssign)}
    inside = {id(n) for n in ast.walk(ipm_arg)}
    read = {n.attr for tree in MODULES.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and id(n) not in inside}
    assert len(fields) > 10
    assert fields - read == set()


# the names an except clause can catch a Riccati kernel's failure by
_KERNEL_FAILURES = {"NotPositiveDefinite", "RankDeficient", "LinalgError",
                    "MpcQpError", "RuntimeError", "Exception", "BaseException"}


def test_riccati_failures_are_classified_in_one_place():
    # the sweep's kernel failures are caught in riccati_factor, which hands
    # each to _level_failed, and in _level_failed, which alone raises
    # FactorizationFailed: the root's chol(P[0]) is taken and classified
    # there too, not in a branch after the sweep.  It is the only call of
    # the square-root kernel by name: the sweep's steps pick their kernel
    # by route
    catches, raises, chol = set(), set(), set()
    for fn in ast.walk(MODULES["kkt_ocp.py"]):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler):
                types = (node.type.elts if isinstance(node.type, ast.Tuple)
                         else [node.type])
                if node.type is None or {_dotted(t) for t in types} & _KERNEL_FAILURES:
                    catches.add(fn.name)
            elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if _dotted(node.exc.func) == "FactorizationFailed":
                    raises.add(fn.name)
            elif (isinstance(node, ast.Call)
                  and _dotted(node.func) == "cholesky_sqrt_update"):
                chol.add(fn.name)
    assert catches == {"riccati_factor", "_level_failed"}
    assert raises == chol == {"_level_failed"}


_UPDATE_KERNELS = ("cholesky_update", "cholesky_sqrt_update", "qr_cholesky_update")


def _functions(tree):
    return {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def test_update_kernels_take_one_operand_form():
    # every update kernel reads the per-node operands of update_operands,
    # with no second path chosen by the rank of M
    funcs = _functions(MODULES["linalg.py"])
    for name in _UPDATE_KERNELS:
        for node in ast.walk(funcs[name]):
            assert not (isinstance(node, ast.Attribute) and node.attr == "ndim"), name
            assert not (isinstance(node, ast.Call) and _dotted(node.func) == "len"
                        and isinstance(node.args[0], ast.Attribute)
                        and node.args[0].attr == "shape"), name
    # the operand preparation is defined once, next to the kernels
    defines = {name for name, tree in MODULES.items()
               if any(f.endswith("_operands") for f in _functions(tree))}
    assert defines == {"linalg.py"}
    assert "update_operands" in funcs


def _kkt_ocp_names(tree):
    """The names the source binds to the ``kkt_ocp`` module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name for a in node.names
                         if a.name.endswith("kkt_ocp"))
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(a.asname or a.name for a in node.names
                         if a.name == "kkt_ocp")
    return names


def test_tests_take_the_operands_from_linalg():
    # linalg's tests prepare their operands with linalg alone
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        module = _kkt_ocp_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("kkt_ocp"):
                assert not any(a.name.endswith("_operands") for a in node.names), path.name
            elif isinstance(node, ast.Attribute) and node.attr.endswith("_operands"):
                assert _dotted(node.value) not in module, path.name


def _held(obj):
    """Every object reachable from ``obj`` through the attributes of package
    objects and the items of lists, tuples and dicts; arrays are leaves."""
    seen, stack, out = set(), [obj], []
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        out.append(o)
        if isinstance(o, (list, tuple)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif type(o).__module__.startswith("mpcqp."):
            stack.extend(getattr(o, "__dict__", {}).values())
            stack.extend(getattr(o, name) for name in getattr(o, "__slots__", ())
                         if hasattr(o, name))
    return out


def test_views_hold_no_qp():
    # the view, its Riccati band, the band's spare workspaces, its blocks
    # and everything they hold: a QP among them would keep the QP and its
    # cached view alive in a cycle until a full collection
    import numpy as np

    from conftest import rand_tree_qp
    from mpcqp import (DenseQp, MassSpringConfig, OcpQp, TreeOcpQp,
                       gen_mass_spring, solve_dense_qp, solve_ocp_qp,
                       solve_tree_ocp_qp)
    from mpcqp.condensing import condense

    def ocp():
        return gen_mass_spring(MassSpringConfig(masses=3, horizon=6))

    for solve, qp in ((solve_dense_qp, condense(ocp())[0]),
                      (solve_ocp_qp, ocp()),
                      (solve_tree_ocp_qp,
                       rand_tree_qp(np.random.default_rng(0), [-1, 0, 0, 1]))):
        vw = solve(qp).solution._view
        held = _held(vw)
        ids = {id(o) for o in held}
        if qp.kind != "dense":
            assert vw.band.spare
            assert {id(o) for o in (vw.band, *vw.band.spare)} <= ids
        assert {id(cb) for cb in vw.blocks} <= ids
        assert not [o for o in held if isinstance(o, (DenseQp, OcpQp, TreeOcpQp))]
