"""Layered range tree for 2-d orthogonal range queries (Section 5.3.1).

:class:`LayeredRangeTree2D` has optional **fractional cascading**
[Chazelle & Guibas]: every canonical x-node stores its y-sorted array
together with *bridge* pointers into its children's arrays, so the
y-range is located with a single binary search at the root and O(1)
work per visited node afterwards.  This is the paper's
O(log^{d-1} n + k) query structure, and the sweep-line ablation bench
uses it as option (b), enumerate-then-min.

It supports enumeration and counting.  The divisible-aggregate variant
of Figure 8 (aggregates at the leaves instead of items) lives in
:mod:`repro.indexes.agg_range_tree` and shares the 2-d skeleton.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Sequence


# ---------------------------------------------------------------------------
# 2-d layered range tree with fractional cascading
# ---------------------------------------------------------------------------


class _XNode:
    __slots__ = ("min_x", "max_x", "left", "right", "ys", "items",
                 "bridge_left", "bridge_right")

    def __init__(self):
        self.min_x = 0.0
        self.max_x = 0.0
        self.left: "_XNode | None" = None
        self.right: "_XNode | None" = None
        self.ys: list[float] = []
        self.items: list[object] = []
        self.bridge_left: list[int] | None = None
        self.bridge_right: list[int] | None = None


class LayeredRangeTree2D:
    """2-d layered range tree; enumeration and counting.

    With ``cascade=True`` (default) child positions of the y-range are
    derived from bridge pointers instead of fresh binary searches,
    giving O(log n + k) enumeration and O(log n) counting.  With
    ``cascade=False`` every visited canonical node performs its own two
    binary searches -- the O(log² n) variant the paper improves upon.
    """

    def __init__(
        self,
        points: Sequence[tuple[float, float]],
        items: Sequence[object] | None = None,
        *,
        cascade: bool = True,
    ):
        if items is None:
            items = list(range(len(points)))
        if len(items) != len(points):
            raise ValueError("points and items must have equal length")
        self.cascade = cascade
        self._size = len(points)
        entries = sorted(
            ((float(x), float(y), item) for (x, y), item in zip(points, items)),
            key=lambda e: e[0],
        )
        self._root = self._build(entries) if entries else None

    def __len__(self) -> int:
        return self._size

    def _build(self, entries: list) -> _XNode:
        node = _XNode()
        node.min_x = entries[0][0]
        node.max_x = entries[-1][0]
        if len(entries) > 1:
            mid = len(entries) // 2
            node.left = self._build(entries[:mid])
            node.right = self._build(entries[mid:])
            node.ys, node.items = self._merge(node.left, node.right)
            if self.cascade:
                node.bridge_left = self._bridges(node.ys, node.left.ys)
                node.bridge_right = self._bridges(node.ys, node.right.ys)
        else:
            node.ys = [entries[0][1]]
            node.items = [entries[0][2]]
        return node

    @staticmethod
    def _merge(left: _XNode, right: _XNode) -> tuple[list[float], list[object]]:
        ys: list[float] = []
        items: list[object] = []
        i = j = 0
        ly, li, ry, ri = left.ys, left.items, right.ys, right.items
        while i < len(ly) and j < len(ry):
            if ly[i] <= ry[j]:
                ys.append(ly[i]); items.append(li[i]); i += 1
            else:
                ys.append(ry[j]); items.append(ri[j]); j += 1
        while i < len(ly):
            ys.append(ly[i]); items.append(li[i]); i += 1
        while j < len(ry):
            ys.append(ry[j]); items.append(ri[j]); j += 1
        return ys, items

    @staticmethod
    def _bridges(parent_ys: list[float], child_ys: list[float]) -> list[int]:
        """bridge[i] = first index j in child with child_ys[j] >= parent_ys[i].

        One extra slot maps the one-past-the-end position.
        """
        bridges = [0] * (len(parent_ys) + 1)
        j = 0
        for i, y in enumerate(parent_ys):
            while j < len(child_ys) and child_ys[j] < y:
                j += 1
            bridges[i] = j
        bridges[len(parent_ys)] = len(child_ys)
        return bridges

    # -- queries --------------------------------------------------------------

    def enumerate(self, xlo, xhi, ylo, yhi) -> list[object]:
        out: list[object] = []
        self._visit(xlo, xhi, ylo, yhi,
                    lambda node, plo, phi: out.extend(node.items[plo:phi]))
        return out

    def count(self, xlo, xhi, ylo, yhi) -> int:
        total = 0

        def add(node: _XNode, plo: int, phi: int) -> None:
            nonlocal total
            total += phi - plo

        self._visit(xlo, xhi, ylo, yhi, add)
        return total

    def _visit(
        self,
        xlo: float,
        xhi: float,
        ylo: float,
        yhi: float,
        report: Callable[[_XNode, int, int], None],
    ) -> None:
        """Invoke *report(node, plo, phi)* on every canonical node, where
        ``[plo, phi)`` is the y-range slice inside the node's y-array."""
        root = self._root
        if root is None or xlo > xhi or ylo > yhi:
            return
        plo = bisect_left(root.ys, ylo)
        phi = bisect_right(root.ys, yhi)

        def descend(node: _XNode, plo: int, phi: int) -> None:
            if node.max_x < xlo or node.min_x > xhi:
                return
            if xlo <= node.min_x and node.max_x <= xhi:
                if phi > plo:
                    report(node, plo, phi)
                return
            if node.left is None:
                return  # leaf outside the x-range edges
            if self.cascade:
                descend(node.left, node.bridge_left[plo], node.bridge_left[phi])
                descend(node.right, node.bridge_right[plo], node.bridge_right[phi])
            else:
                descend(node.left,
                        bisect_left(node.left.ys, ylo),
                        bisect_right(node.left.ys, yhi))
                descend(node.right,
                        bisect_left(node.right.ys, ylo),
                        bisect_right(node.right.ys, yhi))

        descend(root, plo, phi)
