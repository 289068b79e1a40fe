"""Layered range trees vs brute-force scans (Section 5.3.1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.range_tree import LayeredRangeTree2D

coord = st.integers(-50, 50)
points2d = st.lists(st.tuples(coord, coord), max_size=60)
box_side = st.tuples(coord, coord).map(lambda ab: (min(ab), max(ab)))


def brute2d(points, xlo, xhi, ylo, yhi):
    return sorted(
        i for i, (x, y) in enumerate(points)
        if xlo <= x <= xhi and ylo <= y <= yhi
    )


class TestLayeredRangeTree2D:
    @settings(max_examples=150, deadline=None)
    @given(points2d, box_side, box_side)
    def test_enumerate_matches_bruteforce_cascade(self, points, bx, by):
        tree = LayeredRangeTree2D(points, cascade=True)
        got = sorted(tree.enumerate(bx[0], bx[1], by[0], by[1]))
        assert got == brute2d(points, bx[0], bx[1], by[0], by[1])

    @settings(max_examples=150, deadline=None)
    @given(points2d, box_side, box_side)
    def test_enumerate_matches_bruteforce_no_cascade(self, points, bx, by):
        tree = LayeredRangeTree2D(points, cascade=False)
        got = sorted(tree.enumerate(bx[0], bx[1], by[0], by[1]))
        assert got == brute2d(points, bx[0], bx[1], by[0], by[1])

    @settings(max_examples=100, deadline=None)
    @given(points2d, box_side, box_side)
    def test_count_matches_enumerate(self, points, bx, by):
        tree = LayeredRangeTree2D(points)
        assert tree.count(bx[0], bx[1], by[0], by[1]) == len(
            tree.enumerate(bx[0], bx[1], by[0], by[1])
        )

    def test_empty_tree(self):
        tree = LayeredRangeTree2D([])
        assert tree.enumerate(-1, 1, -1, 1) == []
        assert tree.count(-1, 1, -1, 1) == 0

    def test_inverted_range_is_empty(self):
        tree = LayeredRangeTree2D([(0, 0)])
        assert tree.enumerate(1, -1, 0, 0) == []

    def test_duplicate_coordinates(self):
        points = [(0, 0)] * 5 + [(1, 1)] * 3
        tree = LayeredRangeTree2D(points)
        assert tree.count(0, 0, 0, 0) == 5
        assert tree.count(0, 1, 0, 1) == 8

    def test_custom_items(self):
        tree = LayeredRangeTree2D([(0, 0), (5, 5)], items=["a", "b"])
        assert tree.enumerate(4, 6, 4, 6) == ["b"]

    def test_boundary_inclusive(self):
        tree = LayeredRangeTree2D([(1, 1), (3, 3)])
        assert sorted(tree.enumerate(1, 3, 1, 3)) == [0, 1]

    def test_mismatched_items_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            LayeredRangeTree2D([(0, 0)], items=[1, 2])

