"""Byte-level pins of the version-1 QP file format.

Each text below is a version-1 file as the format defines it.  Reading it
and writing the result back must give the same bytes: the field order, the
number formatting, the blank line of an empty vector, no line for a matrix
without rows and one blank line per row of a matrix without columns.
"""

import pytest

from mpcqp import InvalidDim, ParseError
from mpcqp.qp_io import qp_read, qp_write

# stage 1 has no input (S, R, r, D and B empty) although it is not terminal;
# general rows at stages 0 and 1, soft rows at stages 0 and 2, infinite
# bounds and one masked side at each of stages 0 and 1
OCP_TEXT = """\
mpcqp_qp 1 ocp
N 2
nx 2 2 1
nu 1 0 0
nb 2 1 1
ng 1 1 0
ns 1 0 1
stage 0
Q
2.0 0.5
0.5 1.0
S
0.0 -0.25
R
0.1
q
1.0 -1.5
r
0.3
idxb
0 2
lb
-1.0 -inf
ub
1.0 2.5
C
1.0 -1.0
D
0.5
lg
-3.0
ug
inf
idxs
2
Zl
10.0
Zu
20.0
zl
0.1
zu
0.2
sl_lb
0.0
su_lb
0.0
maskl
1.0 1.0 0.0
masku
1.0 1.0 1.0
A
1.0 0.1
0.0 1.0
B
0.0
0.1
b
0.0 -0.01
stage 1
Q
1.0 0.0
0.0 1.0
S
R
q
0.0 0.0
r

idxb
1
lb
-5.0
ub
5.0
C
0.0 1.0
D

lg
-inf
ug
4.0
idxs

Zl

Zu

zl

zu

sl_lb

su_lb

maskl
1.0 1.0
masku
0.0 1.0
A
0.5 1.0
B

b
0.001
stage 2
Q
3.0
S
R
q
0.75
r

idxb
0
lb
-inf
ub
1.25
C
D
lg

ug

idxs
0
Zl
1.0
Zu
1.0
zl
0.0
zu
0.0
sl_lb
0.0
su_lb
-0.5
maskl
1.0
masku
1.0
"""

# a root with two leaf children; the leaves have no input
TREE_TEXT = """\
mpcqp_qp 1 tree
nodes 3
parents -1 0 0
nx 1 1 1
nu 1 0 0
nb 1 1 0
ng 0 0 0
ns 0 0 0
node 0
Q
1.0
S
0.0
R
0.5
q
0.0
r
0.0
idxb
0
lb
-1.0
ub
1.0
C
D
lg

ug

idxs

Zl

Zu

zl

zu

sl_lb

su_lb

maskl
1.0
masku
1.0
node 1
Q
2.0
S
R
q
0.0
r

idxb
0
lb
-inf
ub
3.0
C
D
lg

ug

idxs

Zl

Zu

zl

zu

sl_lb

su_lb

maskl
1.0
masku
1.0
A
0.9
B
0.1
b
0.05
node 2
Q
2.0
S
R
q
0.0
r

idxb

lb

ub

C
D
lg

ug

idxs

Zl

Zu

zl

zu

sl_lb

su_lb

maskl

masku

A
1.1
B
0.2
b
-0.05
"""

# one equality row, a box row, a general row with its lower side masked
# off, and a soft general row
DENSE_TEXT = """\
mpcqp_qp 1 dense
dims 2 1 1 1 1
H
4.0 1.0
1.0 2.0
g
1.0 1.0
A
1.0 1.0
b
1.0
idxb
1
lb
0.0
ub
inf
C
1.0 -1.0
lg
-inf
ug
0.5
idxs
1
Zl
5.0
Zu
5.0
zl
0.0
zu
0.1
sl_lb
0.0
su_lb
0.0
maskl
1.0 1.0
masku
0.0 1.0
"""


@pytest.mark.parametrize("text", [OCP_TEXT, TREE_TEXT, DENSE_TEXT],
                         ids=["ocp", "tree", "dense"])
def test_write_of_read_reproduces_the_bytes(tmp_path, text):
    src, dst = tmp_path / "in.qp", tmp_path / "out.qp"
    src.write_bytes(text.encode())
    qp_write(dst, qp_read(src))
    assert dst.read_bytes() == text.encode()


@pytest.mark.parametrize("text,old,new,line", [
    (OCP_TEXT, "nb 2 1 1", "nb 9 1 1", 5),
    (OCP_TEXT, "ns 1 0 1", "ns 1 3 1", 7),
    (OCP_TEXT, "nu 1 0 0", "nu 1 -1 0", 4),
    (TREE_TEXT, "parents -1 0 0", "parents -1 0 2", 3),
    (DENSE_TEXT, "dims 2 1 1 1 1", "dims 2 1 5 1 1", 2),
], ids=["nb", "ns", "nu", "parents", "dense"])
def test_bad_dimension_line_is_a_parse_error(tmp_path, text, old, new, line):
    assert old in text
    src = tmp_path / "bad.qp"
    src.write_text(text.replace(old, new, 1))
    with pytest.raises(ParseError) as got:
        qp_read(src)
    assert got.value.line == line
    assert isinstance(got.value.__cause__, InvalidDim)
