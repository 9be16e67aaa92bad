"""Tree-QP names of the Riccati engine, kept importable.

A tree QP is factorized by the one Riccati recursion in :mod:`kkt_ocp`: a
horizon is a chain tree, so there is no separate tree engine and the package
never calls these names.  They keep code written against the former tree
module working, including the benchmark tracer's wrap table.
"""

from __future__ import annotations

from .kkt_ocp import RiccatiFactor, riccati_factor

__all__ = ["TreeRiccatiFactor", "tree_riccati_factor"]

tree_riccati_factor = riccati_factor


class TreeRiccatiFactor(RiccatiFactor):
    """Former tree factor class; tree QPs now factor into :class:`RiccatiFactor`."""

    # an own binding, so wrapping this name leaves RiccatiFactor.solve alone
    solve = RiccatiFactor.solve
