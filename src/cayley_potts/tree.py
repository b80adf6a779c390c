"""Finite rooted Cayley trees.

The Cayley tree of order k is the infinite cycle-free graph in which every
vertex has exactly k+1 neighbours.  ``build_tree(k, n)`` constructs the ball
of radius n around a distinguished root: the root keeps all k+1 neighbours
as children and every other internal vertex has k children, so that degrees
match the infinite tree everywhere except on the depth-n boundary.

Vertices carry dense integer indices in breadth-first order, so the layout
is plain arithmetic that the rest of the package relies on:

* the ball of radius m < n occupies the index prefix 0 .. ball_size(k,m)-1,
* the root's children are 1 .. k+1 and every other vertex v has the
  children k*v+2 .. k*v+k+1, so generation m+1 lists the children of
  generation m parent by parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# allocation guard; trees beyond this are refused outright
MAX_VERTICES = 1 << 26


class TreeSizeError(ValueError):
    """Requested tree exceeds the vertex allocation guard."""


def ball_size(k: int, n: int) -> int:
    """Vertex count of the radius-n ball: 1 + (k+1)(k^n - 1)/(k - 1)."""
    if k == 1:
        return 1 + 2 * n
    return 1 + (k + 1) * (k**n - 1) // (k - 1)


def sphere_size(k: int, m: int) -> int:
    """Vertex count of generation m: (k+1) k^(m-1) for m >= 1, else 1."""
    if m == 0:
        return 1
    return (k + 1) * k ** (m - 1)


@dataclass(frozen=True, eq=False)
class FiniteTree:
    """Radius-``depth`` ball of the order-``k`` Cayley tree, BFS-indexed."""

    k: int
    depth: int
    parent: np.ndarray      # parent[v]; -1 for the root
    generation: np.ndarray  # distance from the root

    @property
    def n_vertices(self) -> int:
        return int(self.parent.shape[0])

    def __repr__(self) -> str:
        return (f"FiniteTree(k={self.k}, depth={self.depth}, "
                f"vertices={self.n_vertices})")


def build_tree(k: int, n: int) -> FiniteTree:
    """Build the radius-n ball of the order-k Cayley tree."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"tree order k must be an integer >= 1, got {k!r}")
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"tree depth n must be an integer >= 0, got {n!r}")
    total = ball_size(k, n)
    if total > MAX_VERTICES:
        raise TreeSizeError(
            f"tree with k={k}, n={n} needs {total} vertices, "
            f"above the guard of {MAX_VERTICES}")

    # inverse of the child layout: (v-2)//k, except for the root's children
    parent = (np.arange(total, dtype=np.int64) - 2) // k
    parent[1:k + 2] = 0
    parent[0] = -1
    generation = np.repeat(np.arange(n + 1, dtype=np.int64),
                           [sphere_size(k, m) for m in range(n + 1)])

    parent.setflags(write=False)
    generation.setflags(write=False)
    return FiniteTree(k=int(k), depth=int(n), parent=parent,
                      generation=generation)


def sphere(tree: FiniteTree, m: int) -> np.ndarray:
    """Vertex indices at distance m from the root, ascending."""
    if not 0 <= m <= tree.depth:
        raise ValueError(f"generation {m} outside 0..{tree.depth}")
    stop = ball_size(tree.k, m)
    return np.arange(stop - sphere_size(tree.k, m), stop)


def children(tree: FiniteTree, x: int) -> tuple:
    """Child indices of vertex x (empty for depth-n leaves)."""
    if not 0 <= x < tree.n_vertices:
        raise ValueError(f"vertex {x} outside 0..{tree.n_vertices - 1}")
    first, width = (1, tree.k + 1) if x == 0 else (tree.k * x + 2, tree.k)
    # a depth-n leaf's children would start at ball_size(k, n) or beyond
    if first >= tree.n_vertices:
        return ()
    return tuple(range(first, first + width))


def edges(tree: FiniteTree) -> list[tuple[int, int]]:
    """All (parent, child) pairs; a radius-n ball has |V_n| - 1 of them."""
    return [(int(tree.parent[v]), v) for v in range(1, tree.n_vertices)]


def level_sizes(tree: FiniteTree) -> list[int]:
    """Sphere sizes |W_0| .. |W_depth|."""
    return [sphere_size(tree.k, m) for m in range(tree.depth + 1)]
