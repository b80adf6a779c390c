"""Finite rooted Cayley-tree construction and level structure."""

import numpy as np
import pytest

from cayley_potts.tree import (MAX_VERTICES, FiniteTree, TreeSizeError,
                               ball_size, build_tree, level_sizes, sphere,
                               sphere_size)
from helpers import bfs_oracle


def test_ball_and_sphere_sizes():
    assert ball_size(2, 0) == 1
    assert sphere_size(2, 0) == 1
    assert sphere_size(2, 1) == 3
    assert sphere_size(2, 2) == 6
    assert ball_size(2, 2) == 10
    assert sphere_size(3, 1) == 4
    assert sphere_size(3, 2) == 12
    assert ball_size(3, 2) == 17
    # k=1 is the path graph: two new vertices per level
    assert ball_size(1, 1) == 3
    assert ball_size(1, 5) == 11


def test_build_tree_root_only():
    tree = build_tree(2, 0)
    assert tree.n_vertices == 1
    assert list(sphere(tree, 0)) == [0]
    assert level_sizes(tree) == [1]


def test_build_tree_counts():
    tree = build_tree(2, 2)
    assert tree.n_vertices == 10
    assert level_sizes(tree) == [1, 3, 6]
    tree = build_tree(3, 2)
    assert tree.n_vertices == 17
    assert level_sizes(tree) == [1, 4, 12]


@pytest.mark.parametrize("k,n", [(1, 4), (2, 3), (3, 2), (5, 2)])
def test_build_tree_matches_bfs_oracle(k, n):
    tree = build_tree(k, n)
    _, generation = bfs_oracle(k, n)
    assert [m for m in range(n + 1) for _ in sphere(tree, m)] == generation


@pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (4, 2)])
def test_structural_invariants(k, n):
    tree = build_tree(k, n)
    _, generation = bfs_oracle(k, n)
    sizes = level_sizes(tree)
    assert sizes[0] == 1
    for m in range(1, n + 1):
        assert sizes[m] == (k + 1) * k ** (m - 1)
    assert sum(sizes) == tree.n_vertices
    # vertices within one generation are contiguous and ascending
    for m in range(n + 1):
        sp = sphere(tree, m)
        assert list(sp) == sorted(sp)
        assert all(generation[v] == m for v in sp)


@pytest.mark.parametrize("k,n", [(1, 4), (2, 3), (3, 2), (4, 2), (5, 2)])
def test_sphere_lists_children_parent_by_parent(k, n):
    # the layout propagate_fields' reshape and the enumeration tables'
    # blocks rely on: vertex j of generation m+1 is a child of vertex
    # j // width of generation m, width being k+1 at the root and k after
    tree = build_tree(k, n)
    parent, _ = bfs_oracle(k, n)
    for m in range(n):
        width = k + 1 if m == 0 else k
        parents, kids = sphere(tree, m), sphere(tree, m + 1)
        assert len(kids) == width * len(parents)
        for j, v in enumerate(kids):
            assert parent[v] == parents[j // width]


def test_sphere_examples():
    tree = build_tree(2, 2)
    assert list(sphere(tree, 0)) == [0]
    assert len(sphere(tree, 1)) == 3
    assert len(sphere(build_tree(3, 2), 2)) == 12


def test_sphere_range_errors():
    tree = build_tree(2, 2)
    with pytest.raises(ValueError):
        sphere(tree, -1)
    with pytest.raises(ValueError):
        sphere(tree, 3)


def test_build_tree_rejects_bad_args():
    with pytest.raises(ValueError):
        build_tree(0, 2)
    with pytest.raises(ValueError):
        build_tree(2, -1)
    with pytest.raises(ValueError):
        build_tree(2.5, 2)
    # the tree checks itself, with build_tree's messages
    with pytest.raises(ValueError, match="tree order k must be an integer "
                                         ">= 1, got 0"):
        FiniteTree(0, 3)
    with pytest.raises(ValueError, match="tree order k must be an integer "
                                         ">= 1, got -2"):
        FiniteTree(-2, 2)
    with pytest.raises(ValueError, match="tree depth n must be an integer "
                                         ">= 0, got -1"):
        FiniteTree(2, -1)


def test_build_tree_size_guard():
    with pytest.raises(TreeSizeError):
        build_tree(2, 60)
    with pytest.raises(TreeSizeError, match="above the guard"):
        FiniteTree(3, 60)
    # the guard triggers before any allocation of that size
    assert ball_size(2, 60) > MAX_VERTICES


def test_tree_is_immutable():
    tree = build_tree(2, 2)
    # nothing per vertex: the tree is its order and depth
    assert tree._fields == ("k", "depth")
    with pytest.raises(AttributeError):
        tree.k = 4
    assert tree.k == 2
    assert isinstance(tree, FiniteTree)


def test_level_sizes_partition():
    for k, n in [(1, 3), (2, 2), (4, 1)]:
        tree = build_tree(k, n)
        total = int(np.sum([sphere_size(k, m) for m in range(n + 1)]))
        assert total == tree.n_vertices
