"""Text interchange format for the three QP types.

Layout (version 1): a header line ``mpcqp_qp 1 <dense|ocp|tree>``, dimension
lines, then the field sections.  A field is its name on one line followed
by its values: one line per matrix row (row-major), a single line for
vectors and index sets.  An empty vector is one blank line; a matrix with no
rows has no lines, and a (k, 0) matrix has k blank lines (``B`` of a stage
with ``nu = 0``, say).  Floats are written with ``repr`` (shortest exact
round-trip); infinities appear as ``inf``/``-inf``.

    mpcqp_qp 1 ocp
    N 2
    nx 2 2 2
    nu 1 1 0
    nb 3 3 2
    ng 0 0 0
    ns 0 0 0
    stage 0
    Q
    1.0 0.0
    0.0 1.0
    ...

The fields, their order, shapes and types are those of the container's
field catalog (see :mod:`qp_data`).  OCP and tree files hold one section
per stage / node, opened by a ``stage n`` / ``node m`` line: the stage
fields, then the fields A B b of dynamics block n if the edge table has
one (not the terminal stage, not the root node).  Tree files add a
``parents`` line; dense files hold one section without an opening line.

Reading is strict: unexpected field names, malformed numbers, wrong counts,
dimension lines that break a dimension record's invariants (``nb`` above
``nu + nx``, say) and truncated files raise :class:`ParseError` with the
offending line number; an unsupported version raises
:class:`VersionMismatch`.  A write followed by a read reproduces every
field bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDim, ParseError, VersionMismatch
from .qp_data import DenseQp, OcpQp, OcpQpDim, TreeOcpQp, TreeOcpQpDim

__all__ = ["qp_read", "qp_write"]

_MAGIC = "mpcqp_qp"
_VERSION = 1
_COUNTS = ("nx", "nu", "nb", "ng", "ns")


def _fmt(x):
    return repr(float(x))


def _ints(values):
    return " ".join(str(int(v)) for v in values)


def _write_array(out, name, arr):
    out.append(name)
    arr = np.asarray(arr)
    if arr.ndim == 1:
        if np.issubdtype(arr.dtype, np.integer):
            out.append(_ints(arr))
        else:
            out.append(" ".join(_fmt(v) for v in arr))
    else:
        for row in arr:
            out.append(" ".join(_fmt(v) for v in row))


class _Reader:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0
        self.keys = {}      # the line of every keyword line read

    def next(self):
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of file", line=len(self.lines))
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, token):
        line = self.next().strip()
        if line != token:
            raise ParseError(
                f"expected field '{token}', found '{line}'", line=self.pos
            )

    def keyword_ints(self, key, count):
        toks = self.next().split()
        if not toks or toks[0] != key:
            raise ParseError(
                f"expected '{key}' line, found "
                f"'{' '.join(toks) if toks else ''}'", line=self.pos
            )
        if len(toks) != count + 1:
            raise ParseError(
                f"'{key}' expects {count} integers, found {len(toks) - 1}",
                line=self.pos,
            )
        try:
            values = [int(t) for t in toks[1:]]
        except ValueError as exc:
            raise ParseError(f"bad integer in '{key}' line: {exc}", line=self.pos)
        self.keys[key] = self.pos
        return values

    def numbers(self, count, dtype):
        kind = "integer" if dtype is int else "number"
        toks = self.next().split()
        if len(toks) != count:
            raise ParseError(
                f"expected {count} {kind}s, found {len(toks)}", line=self.pos
            )
        try:
            return np.array([dtype(t) for t in toks], dtype=dtype)
        except ValueError as exc:
            raise ParseError(f"bad {kind}: {exc}", line=self.pos)

    def values(self, shape, dtype):
        """One field's values: a vector line, or one line per matrix row."""
        if len(shape) == 1:
            return self.numbers(shape[0], dtype)
        rows = [self.numbers(shape[1], dtype) for _ in range(shape[0])]
        return np.array(rows, dtype=dtype).reshape(shape)

    def done(self):
        while self.pos < len(self.lines):
            if self.lines[self.pos].strip():
                raise ParseError("trailing content", line=self.pos + 1)
            self.pos += 1


def _sections(qp):
    """``(opening line, index, fields)`` of every section of ``qp``'s file.

    ``index`` is the stage index argument of the section's ``set_field`` and
    ``get_field`` calls (none for a dense QP), and ``fields`` lists
    ``(name, shape, dtype)`` from the catalog in file order.
    """
    if isinstance(qp, DenseQp):
        return [(None, (), [(name, f.shape(qp, None), f.dtype)
                            for name, f in qp._FIELDS.items()])]
    if not isinstance(qp, (OcpQp, TreeOcpQp)):
        raise TypeError(f"not a QP container: {type(qp)!r}")
    d = qp.dim
    word = "node" if isinstance(qp, TreeOcpQp) else "stage"
    return [
        (f"{word} {n}", (n,), [(name, f.shape(d, n), f.dtype)
                               for name, f in qp._FIELDS.items()
                               if not f.dyn or n in d.edges])
        for n in range(len(d.nx))
    ]


def _header(qp):
    """The magic line and the dimension lines of ``qp``'s file."""
    lines = [f"{_MAGIC} {_VERSION} {qp.kind}"]
    if isinstance(qp, DenseQp):
        return lines + [f"dims {_ints((qp.nv, qp.ne, qp.nb, qp.ng, qp.ns))}"]
    d = qp.dim
    if isinstance(qp, TreeOcpQp):
        lines += [f"nodes {d.n_node}", f"parents {_ints(d.parents)}"]
    else:
        lines.append(f"N {d.N}")
    return lines + [f"{key} {_ints(getattr(d, key))}" for key in _COUNTS]


def qp_write(path, qp):
    """Serialize a QP to the documented text format (overwrites ``path``)."""
    sections = _sections(qp)    # a TypeError for anything but a QP, first
    out = _header(qp)
    for line, at, fields in sections:
        if line:
            out.append(line)
        for name, _, _ in fields:
            _write_array(out, name, qp.get_field(name, *at))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def qp_read(path):
    """Parse a QP file; the returned type follows the header."""
    with open(path) as fh:
        rd = _Reader(fh.read())
    head = rd.next().split()
    if len(head) != 3 or head[0] != _MAGIC:
        raise ParseError("not a QP file (bad magic line)", line=1)
    if head[1] != str(_VERSION):
        raise VersionMismatch(
            f"unsupported format version '{head[1]}'", line=1
        )
    kind = head[2]
    try:
        if kind == "dense":
            qp = DenseQp(*rd.keyword_ints("dims", 5))
        elif kind == "ocp":
            (N,) = rd.keyword_ints("N", 1)
            counts = {k: rd.keyword_ints(k, N + 1) for k in _COUNTS}
            qp = OcpQp(OcpQpDim(N, **counts))
        elif kind == "tree":
            (n_node,) = rd.keyword_ints("nodes", 1)
            parents = rd.keyword_ints("parents", n_node)
            counts = {k: rd.keyword_ints(k, n_node) for k in _COUNTS}
            qp = TreeOcpQp(TreeOcpQpDim(parents, **counts))
        else:
            raise ParseError(f"unknown QP kind '{kind}'", line=1)
    except InvalidDim as exc:
        # a dimension record names the count it rejects; a dense QP's
        # counts share one line
        raise ParseError(str(exc), line=rd.keys.get(exc.field, rd.pos)) from exc
    for line, at, fields in _sections(qp):
        if line:
            rd.expect(line)
        for name, shape, dtype in fields:
            rd.expect(name)
            qp.set_field(name, *at, rd.values(shape, dtype))
    rd.done()
    return qp
