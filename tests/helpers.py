"""Reference functions that only the tests call."""

import numpy as np

from cayley_potts.period2 import DomainError, domain_bounds
from cayley_potts.tree import FiniteTree


def clamp_to_domain(x: float, theta: float, k: int,
                    margin: float = 1e-12) -> tuple[float, bool]:
    """Pull x to at least the given relative margin inside (theta_1, theta_2).

    Returns (possibly moved point, moved flag) so callers can tell an
    endpoint blow-up apart from an interior value instead of meeting a
    raised DomainError or an infinity.
    """
    lo, hi = domain_bounds(theta, k)
    if not lo < hi:
        raise DomainError(f"empty domain: theta_1={lo} >= theta_2={hi} "
                          f"(needs theta < 1)")
    a = lo * (1.0 + margin)
    b = hi * (1.0 - margin)
    if x < a:
        return a, True
    if x > b:
        return b, True
    return float(x), False


def bfs_oracle(k: int, n: int):
    """Independent level-by-level enumeration: (parent, generation) lists."""
    parent = [-1]
    generation = [0]
    frontier = [0]
    for gen in range(1, n + 1):
        width = k + 1 if gen == 1 else k
        nxt = []
        for p in frontier:
            for _ in range(width):
                parent.append(p)
                generation.append(gen)
                nxt.append(len(parent) - 1)
        frontier = nxt
    return parent, generation


def hamiltonian(tree: FiniteTree, spins, q: int, J: float) -> float:
    """Energy -J * (number of monochromatic edges) of one configuration."""
    spins = np.asarray(spins, dtype=np.int64)
    if spins.shape != (tree.n_vertices,):
        raise ValueError("configuration must assign one state per vertex")
    if ((spins < 1) | (spins > q)).any():
        raise ValueError(f"spin states must lie in 1..{q}")
    if tree.n_vertices == 1:
        return 0.0
    parent, _ = bfs_oracle(tree.k, tree.depth)
    mono = int(np.count_nonzero(spins[parent[1:]] == spins[1:]))
    return -J * mono
