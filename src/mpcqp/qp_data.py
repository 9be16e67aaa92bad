"""Problem containers for the three supported QP types.

Three convex QP formulations share one constraint vocabulary:

* ``DenseQp``: min over v of ``1/2 v'Hv + g'v`` subject to ``Av = b``, two-sided
  box constraints on selected components of v, two-sided general constraints
  ``lg <= Cv <= ug``, and optional soft constraints.
* ``OcpQp``: stage-wise cost ``1/2 [u;x]' [R S; S' Q] [u;x] + [r;q]'[u;x]``
  coupled by dynamics ``x[n+1] = A[n] x[n] + B[n] u[n] + b[n]``, with per-stage
  box constraints on components of ``(u, x)`` and general constraints
  ``lg <= D u + C x <= ug``.
* ``TreeOcpQp``: the same stage data attached to the nodes of a rooted tree,
  with dynamics attached to each non-root node m linking it to its parent n:
  ``x[m] = A[m] x[n] + B[m] u[n] + b[m]``.

Soft constraints: a subset ``idxs`` of the ``nb + ng`` constraint rows is
relaxed by lower/upper slack variables with diagonal quadratic penalties
``Zl, Zu``, linear penalties ``zl, zu`` and slack lower bounds
``sl_lb, su_lb``.  Slacks never enter the dynamics.

Every constraint row is two-sided.  Per-row masks ``maskl``/``masku``
activate or deactivate the lower/upper side individually; additionally a side
whose bound is infinite is treated as deactivated, so one-sided constraints
need no special representation.  Deactivated sides are excluded from
multiplier updates, residuals and the duality measure.

All data is accessed through ``set_field``/``get_field`` with the documented
field catalog; a set followed by a get returns exactly the stored values.
Internal storage is private and may differ from the accessor layout.

The catalog (``_FIELDS`` of each container: name order, shape and dtype of
every field) is the one description of a QP's fields; :mod:`qp_io` reads
and writes files through it.  The dynamics of both stage types come from
one edge table on the dimension record, ``dim.edges``, which maps dynamics
index i to ``(parent, child)``: ``n -> (n, n + 1)`` for an OCP and
``m -> (parents[m], m)`` for a tree, in child order (the edge into node c
is the (c - 1)-th).  The shapes of A B b, the dynamics storage, the index
checks and the view's edges all read it.  One initialiser, ``_zero_rows``,
sets the constraint-row fields that a stage and a dense QP store alike
(``ROW_FIELDS``) for both, and one declaration, ``_with_rows``, gives both
catalogs their entries.  Counts, parents and index-set entries must be
whole numbers: ``2.0`` passes, ``2.5`` raises.  A dimension record is
checked when it is built and is immutable after: its count and parent
arrays are read-only, so the edge table, the storage and cached views
cannot drift from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDim,
    UnknownField,
)

__all__ = [
    "OcpQpDim",
    "TreeOcpQpDim",
    "DenseQp",
    "OcpQp",
    "TreeOcpQp",
    "Violation",
    "validate",
]


def _whole(values, name, exc=InvalidDim):
    """``values`` as an integer array; raises ``exc`` on a non-whole number."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and not (np.isfinite(arr) & (arr == np.floor(arr))).all():
        raise exc(f"{name} must hold whole numbers")
    return arr.astype(int)


def _set_counts(dim, n_stage, where, **counts):
    """Check and store the per-stage counts nx nu nb ng ns of a dimension record.

    ``where`` names a stage (``stage`` or ``node``) in the messages; a count
    left as None is zero at every stage.
    """
    for name, v in counts.items():
        arr = _whole([0] * n_stage if v is None else v, name)
        if arr.shape != (n_stage,):
            raise InvalidDim(f"{name} must be a 1-d sequence with one entry "
                             f"per {where} ({n_stage})", field=name)
        if np.any(arr < 0):
            raise InvalidDim(f"{name} entries must be nonnegative", field=name)
        arr.flags.writeable = False
        object.__setattr__(dim, name, arr)
    for n in range(n_stage):
        if dim.nb[n] > dim.nu[n] + dim.nx[n]:
            raise InvalidDim(f"{where} {n}: nb = {dim.nb[n]} exceeds nu + nx = "
                             f"{dim.nu[n] + dim.nx[n]}", field="nb")
        if dim.ns[n] > dim.nb[n] + dim.ng[n]:
            raise InvalidDim(f"{where} {n}: ns = {dim.ns[n]} exceeds nb + ng = "
                             f"{dim.nb[n] + dim.ng[n]}", field="ns")


@dataclass(frozen=True)
class OcpQpDim:
    """Stage-wise dimensions of an optimal-control QP with horizon N.

    There are N + 1 stages (0..N); dynamics link consecutive stages, so there
    are N dynamics blocks, ``edges = {n: (n, n + 1)}``.  ``nb[n] <= nu[n] +
    nx[n]`` box rows select components of the stacked stage variable
    ``(u[n], x[n])`` (inputs first); ``ns[n] <= nb[n] + ng[n]`` rows are
    softened.
    """

    N: int
    nx: np.ndarray
    nu: np.ndarray
    nb: np.ndarray
    ng: np.ndarray
    ns: np.ndarray
    edges: dict

    def __init__(self, N, nx, nu, nb=None, ng=None, ns=None):
        N = int(_whole(N, "horizon N"))
        if N < 0:
            raise InvalidDim("horizon N must be >= 0", field="N")
        object.__setattr__(self, "N", N)
        _set_counts(self, N + 1, "stage", nx=nx, nu=nu, nb=nb, ng=ng, ns=ns)
        object.__setattr__(self, "edges", {n: (n, n + 1) for n in range(N)})


@dataclass(frozen=True)
class TreeOcpQpDim:
    """Node-wise dimensions of a tree-structured optimal-control QP.

    ``parents[m]`` is the parent index of node m, with ``parents[0] == -1``
    for the root; parents must precede children (``0 <= parents[m] < m``), so
    the stored node order is a topological order.  Every non-root node m is
    the child of dynamics block m, ``edges = {m: (parents[m], m)}``.
    """

    parents: np.ndarray
    nx: np.ndarray
    nu: np.ndarray
    nb: np.ndarray
    ng: np.ndarray
    ns: np.ndarray
    edges: dict

    def __init__(self, parents, nx, nu, nb=None, ng=None, ns=None):
        par = _whole(parents, "parents")
        if par.ndim != 1 or par.shape[0] < 1:
            raise InvalidDim("parents must be a nonempty 1-d integer sequence",
                             field="parents")
        if par[0] != -1:
            raise InvalidDim("root parent index must be -1", field="parents")
        for m in range(1, par.shape[0]):
            if not 0 <= par[m] < m:
                raise InvalidDim(
                    f"node {m}: parent {par[m]} must satisfy 0 <= parent < {m}",
                    field="parents",
                )
        par.flags.writeable = False
        object.__setattr__(self, "parents", par)
        _set_counts(self, par.shape[0], "node", nx=nx, nu=nu, nb=nb, ng=ng, ns=ns)
        object.__setattr__(
            self, "edges", {m: (p, m) for m, p in enumerate(par.tolist()) if m}
        )

    @property
    def n_node(self):
        return self.parents.shape[0]


# --------------------------------------------------------------------------
# field catalog machinery
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Field:
    attr: str
    shape: object          # callable (qp, n) -> tuple
    dtype: type = float
    dyn: bool = False      # indexed by dynamics block, a key of dim.edges
    vec: str = None        # the one view vector that reads it: "g", "b" or "d"
    checked: bool = False  # read by a blocking check of validate()


def _check_value(name, value, shape, dtype):
    if dtype is int:
        arr = _whole(value, f"field '{name}'", DimensionMismatch)
    else:
        arr = np.array(value, dtype=dtype)
    if arr.shape != shape:
        raise DimensionMismatch(
            f"field '{name}': expected shape {shape}, got {arr.shape}"
        )
    return arr


def _zero(fields, d, n, rows):
    """Fresh values of the catalog ``fields`` at index n.

    A field takes its value from ``rows`` (see :func:`_zero_rows`) if that
    names it, else zeros of its catalog shape.
    """
    return {name: rows[name] if name in rows else np.zeros(f.shape(d, n))
            for name, f in fields.items()}


def _filled(k, value):
    # np.full and np.ones take about three times as long at these sizes
    arr = np.empty(k)
    arr.fill(value)
    return arr


def _zero_rows(nb, ng, ns):
    """The constraint-row fields of a stage or a dense QP, freshly set."""
    inf = np.inf
    return {
        "idxb": np.arange(nb, dtype=int),
        "lb": _filled(nb, -inf),
        "ub": _filled(nb, inf),
        "lg": _filled(ng, -inf),
        "ug": _filled(ng, inf),
        "idxs": np.arange(ns, dtype=int),
        **{k: np.zeros(ns) for k in ("Zl", "Zu", "zl", "zu", "sl_lb", "su_lb")},
        "maskl": _filled(nb + ng, 1.0),
        "masku": _filled(nb + ng, 1.0),
    }


# the row fields that a dense QP and a stage store alike
ROW_FIELDS = tuple(_zero_rows(0, 0, 0))


def _with_rows(head, general, b, g, s):
    """A stage's or a dense QP's catalog: the fields ``head``, the box rows'
    ``idxb lb ub``, the general rows' matrices ``general``, then the other
    ``ROW_FIELDS``, in file order.

    The ``ROW_FIELDS`` entries are declared here alone, so that their
    ``vec`` and ``checked`` flags, which decide the view refresh and
    whether a validation verdict is kept, are the same for both types.
    ``b``, ``g`` and ``s`` give the (nb,), (ng,) and (ns,) shapes.
    """
    def m(d, n):
        return (b(d, n)[0] + g(d, n)[0],)

    return {
        **head,
        "idxb": _Field("idxb", b, int, checked=True),
        "lb": _Field("lb", b, vec="d"),
        "ub": _Field("ub", b, vec="d"),
        **general,
        "lg": _Field("lg", g, vec="d"),
        "ug": _Field("ug", g, vec="d"),
        "idxs": _Field("idxs", s, int, checked=True),
        "Zl": _Field("Zl", s, checked=True),
        "Zu": _Field("Zu", s, checked=True),
        "zl": _Field("zl", s, vec="g"),
        "zu": _Field("zu", s, vec="g"),
        "sl_lb": _Field("sl_lb", s, vec="d"),
        "su_lb": _Field("su_lb", s, vec="d"),
        "maskl": _Field("maskl", m, vec="d", checked=True),
        "masku": _Field("masku", m, vec="d", checked=True),
    }


def _zero_stage(nx, nu, nb, ng, ns):
    # written out rather than taken from the catalog's shape functions, which
    # made building a horizon's stages about 15% slower
    return {
        "Q": np.zeros((nx, nx)),
        "S": np.zeros((nu, nx)),
        "R": np.zeros((nu, nu)),
        "q": np.zeros(nx),
        "r": np.zeros(nu),
        "C": np.zeros((ng, nx)),
        "D": np.zeros((ng, nu)),
        **_zero_rows(nb, ng, ns),
    }


class _FieldAccess:
    """set_field/get_field over a declarative catalog (mixin).

    ``_rev`` counts the writes.  ``_valid_rev`` is the revision at which
    :func:`validate` last found no blocking error, as recorded by the
    solver; a write carries it forward only if the field it writes is not
    ``checked`` in the catalog (a virtual box field counts as the field it
    writes), and any other change of ``_rev`` drops it.

    ``_view_cache`` is ``(rev, view, stale)``, set by :func:`view.make_view`.
    A field's ``vec`` in the catalog names the one view vector that reads
    it: ``g`` (the gradients ``q r g zl zu``), ``b`` (the dynamics or
    equality right-hand side) or ``d`` (the bounds, the slack bounds and
    the masks, which also decide ``act``); a virtual box field counts as
    the field it writes.  A write to such a field carries a view of the
    current revision forward and adds ``(stage, vec)`` to ``stale``, the
    stage being the written stage, the child of a written dynamics block
    or 0 for a dense QP; ``make_view`` then rewrites only those slices,
    once, however many such writes came in a row.  Any other write
    (matrices, index sets, slack penalties) or change of ``_rev`` leaves
    the cache behind, so the next ``make_view`` builds a new view.  The
    view holds the QP's storage (``dim``, and ``_stages`` or ``_data``,
    containers that the constructor makes once and a write changes only
    entries of), not the QP, so the cache makes no reference cycle: a
    dropped QP is freed with its view as soon as no solution holds the
    view.
    """

    _FIELDS: dict = {}
    _valid_rev = -1
    _view_cache = None
    _reduced = None         # a stage QP's only, see _StageQpBase

    def _resolve(self, name, n):
        try:
            f = self._FIELDS[name]
        except KeyError:
            raise UnknownField(name) from None
        self._check_stage(name, n, f.dyn)
        return f

    def _bump(self, f, stage, at):
        """Count a write of field ``f`` (see the class docstring): ``stage``
        is the written stage, or the child of a written dynamics block,
        and ``at`` the written stage or the block's parent, which tells a
        write at a stage QP's root (see :class:`_StageQpBase`)."""
        rev = self._rev
        self._rev = rev + 1
        if self._valid_rev == rev and not f.checked:
            self._valid_rev = rev + 1
        cache = self._view_cache
        if f.vec and cache is not None and cache[0] == rev:
            cache[2].add((stage, f.vec))
            self._view_cache = (rev + 1, cache[1], cache[2])
        red = self._reduced
        if red is not None:
            if red[0] != rev or not (at or f.vec):
                self._reduced = None
            else:
                if at and red[1] is not None:
                    red[1].qp._bump(f, stage, at)
                self._reduced = (rev + 1, red[1], red[2] or not at)


# --------------------------------------------------------------------------
# stage data shared by OCP and tree nodes
# --------------------------------------------------------------------------

_STAGE_FIELDS = _with_rows(
    {
        "Q": _Field("Q", lambda d, n: (d.nx[n], d.nx[n]), checked=True),
        "S": _Field("S", lambda d, n: (d.nu[n], d.nx[n]), checked=True),
        "R": _Field("R", lambda d, n: (d.nu[n], d.nu[n]), checked=True),
        "q": _Field("q", lambda d, n: (d.nx[n],), vec="g"),
        "r": _Field("r", lambda d, n: (d.nu[n],), vec="g"),
    },
    {
        "C": _Field("C", lambda d, n: (d.ng[n], d.nx[n]), checked=True),
        "D": _Field("D", lambda d, n: (d.ng[n], d.nu[n]), checked=True),
    },
    lambda d, n: (d.nb[n],), lambda d, n: (d.ng[n],), lambda d, n: (d.ns[n],),
)

# dynamics block i of the edge table, ``d.edges[i] = (parent, child)``:
# x[child] = A x[parent] + B u[parent] + b
_DYN_FIELDS = {
    "A": _Field("A", lambda d, i: (d.nx[d.edges[i][1]], d.nx[d.edges[i][0]]),
                dyn=True, checked=True),
    "B": _Field("B", lambda d, i: (d.nx[d.edges[i][1]], d.nu[d.edges[i][0]]),
                dyn=True, checked=True),
    "b": _Field("b", lambda d, i: (d.nx[d.edges[i][1]],), dyn=True, vec="b"),
}

# bounds restricted to input / state box rows, derived from idxb: the
# field each one writes
_STAGE_VIRTUAL = {"lbu": "lb", "ubu": "ub", "lbx": "lb", "ubx": "ub"}


class _StageQpBase(_FieldAccess):
    """Stages (nodes) joined by the dynamics blocks of ``dim.edges``.

    Stage n holds the stage fields and dynamics block i the fields A B b,
    in slot i of ``_dyn``; a tree's slot 0 stays unused.  A subclass names
    its ``kind`` and its dimension record type ``_DIM``.

    ``_reduced`` is ``(rev, record, root_stale)``, set by the solver (see
    :mod:`fixed_x0`): the QP with a fixed initial state eliminated, whose
    stages past the root are this QP's own stage and dynamics dicts, or
    None as ``record`` when the initial state is not eliminated.  A write
    past the root is counted on the reduced QP as well (it already sees
    the value); a write of a vector field at the root (stage 0 or a
    dynamics block leaving it) sets ``root_stale``, so the solver derives
    the reduced root again; any other write at the root, or any other
    change of ``_rev``, drops the record.
    """

    _FIELDS = {**_STAGE_FIELDS, **_DYN_FIELDS}

    def __init__(self, dim):
        if not isinstance(dim, self._DIM):
            raise InvalidDim(
                f"{type(self).__name__} requires a {self._DIM.__name__}"
            )
        d = dim
        counts = (d.nx.tolist(), d.nu.tolist(), d.nb.tolist(), d.ng.tolist(),
                  d.ns.tolist())
        dyn = [None] * (max(d.edges, default=-1) + 1)
        for i in d.edges:
            dyn[i] = _zero(_DYN_FIELDS, d, i, {})
        self._init(d, [_zero_stage(*c) for c in zip(*counts)], dyn)

    def _init(self, dim, stages, dyn):
        self.dim = dim
        self._stages = stages
        self._dyn = dyn
        self._rev = 0

    @classmethod
    def _over(cls, dim, stages, dyn):
        """A QP over the given stage and dynamics dicts, not copied: a write
        to one of them through another QP is read by this one too."""
        qp = cls.__new__(cls)
        qp._init(dim, stages, dyn)
        return qp

    def _check_stage(self, name, n, dyn):
        d = self.dim
        if not (n in d.edges if dyn else 0 <= n < len(d.nx)):
            what = "dynamics block" if dyn else "stage"
            raise IndexOutOfRange(f"field '{name}': no {what} {n}")

    def _box_split(self, n):
        idxb = self._stages[n]["idxb"]
        return idxb < self.dim.nu[n]

    def set_field(self, name, stage, value):
        """Store ``value`` for ``name`` at the given stage/node index."""
        if name in _STAGE_VIRTUAL:
            self._check_stage(name, stage, dyn=False)
            is_u = self._box_split(stage)
            sel = is_u if name[-1] == "u" else ~is_u
            dst = _STAGE_VIRTUAL[name]
            arr = _check_value(name, value, (int(np.sum(sel)),), float)
            self._stages[stage][dst] = self._stages[stage][dst].copy()
            self._stages[stage][dst][sel] = arr
            self._bump(self._FIELDS[dst], stage, stage)
            return
        f = self._resolve(name, stage)
        arr = _check_value(name, value, f.shape(self.dim, stage), f.dtype)
        if f.dyn:
            self._dyn[stage][f.attr] = arr
            parent, child = self.dim.edges[stage]
            self._bump(f, child, parent)
        else:
            self._stages[stage][f.attr] = arr
            self._bump(f, stage, stage)

    def get_field(self, name, stage):
        """Return a copy of the stored values for ``name`` at a stage/node."""
        if name in _STAGE_VIRTUAL:
            self._check_stage(name, stage, dyn=False)
            is_u = self._box_split(stage)
            sel = is_u if name[-1] == "u" else ~is_u
            return self._stages[stage][_STAGE_VIRTUAL[name]][sel].copy()
        f = self._resolve(name, stage)
        store = self._dyn[stage] if f.dyn else self._stages[stage]
        return store[f.attr].copy()


class OcpQp(_StageQpBase):
    """Optimal-control QP over stages 0..N, zero-initialized.

    Freshly created problems have zero matrices, infinite (inactive) bounds,
    all-one masks, ``idxb = 0..nb-1``, ``idxs = 0..ns-1`` and zero slack
    lower bounds.

    Stage-indexed fields: Q S R q r idxb lb ub C D lg ug idxs Zl Zu zl zu
    sl_lb su_lb maskl masku (stages 0..N) and A B b (dynamics blocks 0..N-1,
    where ``A[n]`` maps ``x[n]`` to ``x[n+1]``).  Virtual fields lbu/ubu and
    lbx/ubx address the input-box / state-box subsets of lb/ub.
    """

    kind = "ocp"
    _DIM = OcpQpDim


class TreeOcpQp(_StageQpBase):
    """Tree-structured optimal-control QP, zero-initialized.

    Node-indexed fields match :class:`OcpQp` stages; the dynamics fields
    A B b are indexed by the *child* node m >= 1 and describe
    ``x[m] = A[m] x[parent(m)] + B[m] u[parent(m)] + b[m]``.
    """

    kind = "tree"
    _DIM = TreeOcpQpDim


class DenseQp(_FieldAccess):
    """Dense QP over nv variables, zero-initialized.

    Fields: H g A b idxb lb ub C lg ug idxs Zl Zu zl zu sl_lb su_lb maskl
    masku.  ``idxb`` selects the box-constrained components of v; masks cover
    the nb + ng constraint rows (box rows first).
    """

    kind = "dense"

    _FIELDS = _with_rows(
        {
            "H": _Field("H", lambda d, n: (d.nv, d.nv), checked=True),
            "g": _Field("g", lambda d, n: (d.nv,), vec="g"),
            "A": _Field("A", lambda d, n: (d.ne, d.nv), checked=True),
            "b": _Field("b", lambda d, n: (d.ne,), vec="b"),
        },
        {"C": _Field("C", lambda d, n: (d.ng, d.nv), checked=True)},
        lambda d, n: (d.nb,), lambda d, n: (d.ng,), lambda d, n: (d.ns,),
    )

    def __init__(self, nv, ne=0, nb=0, ng=0, ns=0):
        counts = {"nv": nv, "ne": ne, "nb": nb, "ng": ng, "ns": ns}
        for name, val in counts.items():
            val = int(_whole(val, name))
            if val < 0:
                raise InvalidDim(f"{name} must be >= 0")
            setattr(self, name, val)
        if self.nb > self.nv:
            raise InvalidDim(f"nb = {self.nb} exceeds nv = {self.nv}")
        if self.ns > self.nb + self.ng:
            raise InvalidDim(
                f"ns = {self.ns} exceeds nb + ng = {self.nb + self.ng}"
            )
        self._data = _zero(self._FIELDS, self, None,
                           _zero_rows(self.nb, self.ng, self.ns))
        self._rev = 0

    def _check_stage(self, name, n, dyn):
        if n is not None:
            raise IndexOutOfRange(f"dense QP field '{name}' takes no stage index")

    def set_field(self, name, value):
        f = self._resolve(name, None)
        self._data[f.attr] = _check_value(name, value, f.shape(self, None), f.dtype)
        self._bump(f, 0, 0)

    def _fill(self, name):
        """The stored array of field ``name`` itself, to be written in place.

        A producer that builds a fresh QP (condensing) writes its large
        fields straight into it, once, in place of a second copy through
        :meth:`set_field`.  The array has the field's catalog shape and
        dtype, so what is written into it takes both; the revision moves
        as :meth:`set_field` moves it.
        """
        f = self._resolve(name, None)
        self._bump(f, 0, 0)
        return self._data[f.attr]

    def get_field(self, name):
        f = self._resolve(name, None)
        return self._data[f.attr].copy()


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

@dataclass
class Violation:
    """One diagnostic from :func:`validate`; severity is 'error' or 'warning'."""

    field: str
    stage: object
    message: str
    severity: str = "error"

    def __str__(self):
        where = "" if self.stage is None else f" [stage {self.stage}]"
        return f"{self.severity}: {self.field}{where}: {self.message}"


def _matrix_violation(M, name, stage, out, sym=False):
    """A non-finite entry of a matrix field, else (``sym``) an asymmetry."""
    if not np.isfinite(M).all():
        out.append(Violation(name, stage, "matrix has non-finite entries"))
    # an exactly symmetric matrix, every condensed Hessian among them, passes
    # without the tolerance test, whose verdict on it is the same
    elif sym and M.shape[0] and not np.array_equal(M, M.T) and not np.allclose(
            M, M.T, rtol=0.0, atol=1e-10 * max(1.0, np.max(np.abs(M)))):
        out.append(Violation(name, stage, "matrix is not symmetric"))


def _index_set_violation(idx, limit, name, stage, out):
    if idx.size and (np.any(idx < 0) or np.any(idx >= limit)):
        out.append(Violation(name, stage, f"entries must lie in [0, {limit})"))
    if idx.size > 1 and np.any(np.diff(idx) <= 0):
        out.append(Violation(name, stage, "entries must be strictly increasing"))


def _mask_violation(mask, name, stage, out):
    if mask.size and not np.all((mask == 0.0) | (mask == 1.0)):
        out.append(Violation(name, stage, "mask entries must be 0 or 1"))


def _row_violations(st, nw, nb, ng, stage, out):
    """Slack, index-set, mask and bound checks of one block of rows.

    ``st`` maps the row fields of a stage or of a dense QP, ``nw`` is the
    width of the variable window that ``idxb`` indexes.
    """
    for zn in ("Zl", "Zu"):
        if np.any(st[zn] < 0.0):
            out.append(Violation(zn, stage, "slack penalty diagonal must be >= 0"))
    _index_set_violation(st["idxb"], nw, "idxb", stage, out)
    _index_set_violation(st["idxs"], nb + ng, "idxs", stage, out)
    _mask_violation(st["maskl"], "maskl", stage, out)
    _mask_violation(st["masku"], "masku", stage, out)
    lo = np.concatenate([st["lb"], st["lg"]])
    up = np.concatenate([st["ub"], st["ug"]])
    both = (st["maskl"] != 0.0) & (st["masku"] != 0.0)
    bad = both & np.isfinite(lo) & np.isfinite(up) & (lo > up)
    for i in np.flatnonzero(bad):
        # infeasibility is a solver status, not a structural defect: warn only
        out.append(
            Violation("lb/ub" if i < nb else "lg/ug", stage,
                      f"row {i}: lower bound exceeds upper bound",
                      severity="warning")
        )
    if np.any(st["sl_lb"] < 0.0) or np.any(st["su_lb"] < 0.0):
        out.append(
            Violation("sl_lb/su_lb", stage,
                      "negative slack lower bound (allowed, check intent)",
                      severity="warning")
        )


def validate(qp):
    """Collect diagnostics for a QP; an empty list means valid.

    Checks that every matrix field is finite, symmetry of Hessian blocks,
    nonnegativity of slack penalties, lower > upper bound rows with both
    sides active, and malformed index sets and masks.  Diagnostics are
    returned, never raised; entries with severity ``warning`` do not block
    a solve.  The dimension record (counts and a tree's parents) is checked
    when it is built and is read-only after.

    The blocking checks read only the matrices (``H``, ``Q``, ``R``, ``S``,
    ``A``, ``B``, ``C``, ``D``), ``Zl``, ``Zu``, ``idxb``, ``idxs``,
    ``maskl`` and ``masku``, the fields marked ``checked`` in the field
    catalog.  The solver therefore keeps a passed verdict across writes to
    any other field (an MPC step's bound writes, say) and validates again
    only after a write that a blocking check reads or any other change of
    the QP.
    """
    out = []
    if isinstance(qp, DenseQp):
        data = qp._data
        for name in ("H", "A", "C"):
            _matrix_violation(data[name], name, None, out, sym=name == "H")
        _row_violations(data, qp.nv, qp.nb, qp.ng, None, out)
        return out
    if not isinstance(qp, _StageQpBase):
        raise TypeError(f"not a QP container: {type(qp)!r}")
    dm = qp.dim
    for n, st in enumerate(qp._stages):
        for name in ("Q", "R", "S", "C", "D"):
            _matrix_violation(st[name], name, n, out, sym=name in "QR")
        _row_violations(st, dm.nu[n] + dm.nx[n], dm.nb[n], dm.ng[n], n, out)
    for i in dm.edges:
        for name in ("A", "B"):
            _matrix_violation(qp._dyn[i][name], name, i, out)
    return out


def errors_only(violations):
    """Filter a validate() result down to blocking entries."""
    return [v for v in violations if v.severity == "error"]
