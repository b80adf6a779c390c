"""Reference functions that only the tests call."""

import math

import numpy as np

from cayley_potts.period2 import DomainError, domain_bounds
from cayley_potts.tree import FiniteTree


def _logsumexp(a: np.ndarray) -> np.ndarray:
    m = np.max(a, axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.sum(np.exp(a - m), axis=-1))


def f_map_rowwise(h, q: int, theta: float) -> np.ndarray:
    """The one-step field map as a log-sum-exp along each row of q terms:
    the bits potts.f_map must reproduce, checks and messages included."""
    h = np.asarray(h, dtype=float)
    if h.ndim not in (1, 2) or h.shape[-1] != q - 1:
        raise ValueError(f"field vector must have shape ({q - 1},) or "
                         f"(N, {q - 1}), got {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("field components must be finite")

    log_theta = math.log(theta)
    gauge = np.zeros(h.shape[:-1] + (1,))
    den = _logsumexp(np.concatenate([h, gauge + log_theta], axis=-1))
    terms = np.concatenate([h, gauge], axis=-1)
    out = np.empty_like(h)
    for i in range(q - 1):
        terms[..., i] = log_theta + h[..., i]
        out[..., i] = _logsumexp(terms) - den
        terms[..., i] = h[..., i]
    if not np.isfinite(out).all():
        raise ValueError("field map produced a non-finite component")
    return out


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
