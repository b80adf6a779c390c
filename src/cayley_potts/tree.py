"""Finite rooted Cayley trees.

The Cayley tree of order k is the infinite cycle-free graph in which every
vertex has exactly k+1 neighbours.  ``build_tree(k, n)`` describes the ball
of radius n around a distinguished root: the root keeps all k+1 neighbours
as children and every other internal vertex has k children, so that degrees
match the infinite tree everywhere except on the depth-n boundary.

Vertices carry dense integer indices in breadth-first order, so the whole
structure is plain arithmetic on (k, n) and nothing is stored per vertex.
Generation m is the index range that ends at ball_size(k, m), and
generation m+1 lists the children of generation m parent by parent: k+1
for the root and k for every other parent.  Its j-th vertex is thus the
child of vertex j // width of generation m, width being k+1 at m = 0 and
k after; the field recursion and the enumeration tables rely on this.

Everything here is integer arithmetic, so the module imports no numpy.
"""

from __future__ import annotations

from ._args import Record, check_int

# size guard; trees beyond this are refused outright
MAX_VERTICES = 1 << 26


class TreeSizeError(ValueError):
    """Requested tree exceeds the vertex guard."""


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


class FiniteTree(Record):
    """Radius-``depth`` ball of the order-``k`` Cayley tree, BFS-indexed:
    plain ints k >= 1 and depth >= 0, at most MAX_VERTICES vertices."""

    __slots__ = _fields = ("k", "depth")

    def __init__(self, k: int, depth: int):
        k = check_int("tree order k", k, 1)
        n = check_int("tree depth n", depth, 0)
        total = ball_size(k, n)
        if total > MAX_VERTICES:
            raise TreeSizeError(
                f"tree with k={k}, n={n} needs {total} vertices, "
                f"above the guard of {MAX_VERTICES}")
        self._set(k, n)

    @property
    def n_vertices(self) -> int:
        return ball_size(self.k, self.depth)


def build_tree(k: int, n: int) -> FiniteTree:
    """The radius-n ball of the order-k Cayley tree."""
    return FiniteTree(k, n)


def sphere(tree: FiniteTree, m: int) -> range:
    """Vertex indices at distance m from the root, ascending."""
    if not 0 <= m <= tree.depth:
        raise ValueError(f"generation {m} outside 0..{tree.depth}")
    stop = ball_size(tree.k, m)
    return range(stop - sphere_size(tree.k, m), stop)


def level_sizes(tree: FiniteTree) -> list[int]:
    """Sphere sizes |W_0| .. |W_depth|."""
    return [sphere_size(tree.k, m) for m in range(tree.depth + 1)]
