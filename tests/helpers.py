"""Reference functions that only the tests call.

Besides the oracles for the tree and the field map, this holds the
paper's lemmas behind the three-root count, which the package itself never
needs: the inverse g, the slope h', the polynomial p that controls the sign
of h' and p's Descartes bound.  g and h' compute g's two factors and the
domain test with their own copy, not ``period2.h_scalar``'s, so they do
not share the kernel they check.  It also holds an exact certificate for
a reported two-cycle root, the enumeration oracle's tables and
consistency check as whole-array expressions, which the package computes
in slices, and the conveniences only the tests use: the base-q encoding
of a configuration and its inverse, ``ModelParams`` from a coupling, and
the antiferromagnetic test on it.
"""

import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from cayley_potts._args import activity, check_theta_k
from cayley_potts.period2 import DomainError, theta_cr
from cayley_potts.potts import ModelParams, finite_volume_measure
from cayley_potts.tree import FiniteTree, build_tree, sphere


def from_coupling(k: int, q: int, J: float, beta: float) -> ModelParams:
    """Fold the coupling into the activity theta = exp(J*beta)."""
    return ModelParams(k=k, q=q, theta=activity(J, beta))


def antiferromagnetic(params: ModelParams) -> bool:
    """theta < 1, that is J < 0."""
    return params.theta < 1.0


def config_index(spins: Sequence[int], q: int) -> int:
    """Base-q encoding of a configuration, vertex 0 least significant."""
    idx = 0
    for v, s in enumerate(spins):
        if not 1 <= s <= q:
            raise ValueError(f"spin state {s} at vertex {v} outside 1..{q}")
        idx += (s - 1) * q**v
    return idx


def config_at(index: int, n_vertices: int, q: int) -> tuple[int, ...]:
    """Inverse of config_index: the spins, state 1..q per vertex."""
    if not 0 <= index < q**n_vertices:
        raise ValueError(f"configuration index {index} out of range")
    spins = []
    for _ in range(n_vertices):
        index, digit = divmod(index, q)
        spins.append(digit + 1)
    return tuple(spins)


def _g_factors(x: float, theta: float, k: int) -> tuple[float, float, float]:
    """u = x^(1/k) and the two factors 1 - theta u and 2u - theta - 1 of g,
    with the package's errors: both factors are positive exactly on the
    open interval (theta_1, theta_2)."""
    check_theta_k(theta, k)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if theta >= 1.0:
        raise DomainError(f"inverse map needs theta < 1, got theta={theta!r}")
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x!r}")
    u = math.exp(math.log(x) / k)
    num = 1.0 - theta * u
    den = 2.0 * u - theta - 1.0
    if num <= 0.0 or den <= 0.0:
        raise DomainError(f"x={x!r} outside the open interval "
                          f"(((theta+1)/2)^k, theta^-k) at theta={theta!r}, "
                          f"k={k}")
    return u, num, den


def g_scalar(x: float, theta: float, k: int) -> float:
    """Inverse of f on (theta_1, theta_2):
    g(x) = (1 - theta u)/(2u - theta - 1) with u = x^(1/k).

    Both factors are positive exactly on the open interval; g decreases
    from +infinity at theta_1 to 0 at theta_2."""
    _, num, den = _g_factors(x, theta, k)
    return num / den


def h_prime(x: float, theta: float, k: int) -> float:
    """Analytic derivative of h:

        h'(x) = ((theta-1)(theta+2)/k) * (
                  k^2 / (((theta+1)x + 1)(2x + theta))
                  - 1 / (x^((k-1)/k) (2u - theta - 1)(1 - theta u)) )

    with u = x^(1/k) and x^((k-1)/k) computed as x/u.  Shares g's domain.
    Negative at x = 1 exactly when theta < theta_cr(k)."""
    u, num_g, den_g = _g_factors(x, theta, k)
    term_f = k * k / (((theta + 1.0) * x + 1.0) * (2.0 * x + theta))
    term_g = 1.0 / ((x / u) * den_g * num_g)
    return (theta - 1.0) * (theta + 2.0) / k * (term_f - term_g)


def p_coefficients(theta: float, k: int) -> dict[int, float]:
    """Sparse coefficients (degree -> value) of the polynomial in y = x^(1/k)
    whose sign controls the sign of h':

        p(y) = 2(theta+1) y^(2k) + 2 theta k^2 y^(k+1)
               - (k^2-1)(theta^2+theta+2) y^k
               + k^2 (theta+1) y^(k-1) + theta

    Exactly five terms; for k >= 3 the five degrees are distinct."""
    theta_cr(k)  # validates k >= 3
    check_theta_k(theta, k)
    return {
        2 * k: 2.0 * (theta + 1.0),
        k + 1: 2.0 * theta * k * k,
        k: -(k * k - 1.0) * (theta * theta + theta + 2.0),
        k - 1: k * k * (theta + 1.0),
        0: theta,
    }


def descartes_positive_root_bound(coeffs: dict[int, float]) -> int:
    """Number of sign changes in the coefficients by descending degree,
    zeros skipped: an upper bound on the number of positive roots."""
    if not coeffs:
        raise ValueError("empty coefficient list")
    signs = [1 if c > 0 else -1
             for _, c in sorted(coeffs.items(), reverse=True) if c != 0]
    if not signs:
        raise ValueError("all coefficients are zero")
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _two_cycle_sign(x: float, theta: float, k: int) -> int:
    """Exact sign of r(x) = f(f(x)) - x at the float x, in rationals:
    no rounding anywhere, so no working precision to choose."""
    t = Fraction(theta)

    def f(v: Fraction) -> Fraction:
        return (((t + 1) * v + 1) / (2 * v + t)) ** k

    r = f(f(Fraction(x))) - Fraction(x)
    return (r > 0) - (r < 0)


def floats_away(x: float, n: int) -> float:
    """The float n steps above x (below it for n < 0)."""
    toward = math.inf if n > 0 else -math.inf
    for _ in range(abs(n)):
        x = math.nextafter(x, toward)
    return x


def certified_within_16_ulp(x: float, theta: float, k: int) -> bool:
    """Whether a true two-cycle root lies within 16 floats of x: r = f o f
    - id is exactly 0 at x, or its exact signs 16 floats below and above x
    differ."""
    below = _two_cycle_sign(floats_away(x, -16), theta, k)
    above = _two_cycle_sign(floats_away(x, 16), theta, k)
    return below != above or _two_cycle_sign(x, theta, k) == 0


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


def enum_tables_whole(k: int, depth: int, q: int):
    """potts._enum_tables with every q**N array formed at once: the same
    digit patterns, with each edge's parent taken from bfs_oracle, then
    one np.bincount over all keys and one gather of every cell index."""
    tree = build_tree(k, depth)
    n = tree.n_vertices
    eye = np.eye(q, dtype=np.int8).reshape(q, 1, q, 1)
    mono = np.zeros(q, dtype=np.int8)
    parent, _ = bfs_oracle(k, depth)
    for v, p in enumerate(parent[1:], start=1):
        mono = (mono.reshape(1, q ** (v - 1 - p), q, q**p) + eye).reshape(-1)
    n_groups = q ** len(sphere(tree, depth))
    key = (mono.reshape(n_groups, -1)
           + np.arange(0, n_groups * n, n, dtype=np.int32)[:, None]).reshape(-1)
    counts = np.bincount(key, minlength=n_groups * n)
    occupied = np.flatnonzero(counts)
    to_cell = np.zeros(n_groups * n, dtype=np.int32)
    to_cell[occupied] = np.arange(len(occupied), dtype=np.int32)
    cell_group, cell_mono = np.divmod(occupied, n)
    return cell_mono, cell_group, counts[occupied], to_cell[key]


def consistency_whole(tree: FiniteTree, fields, params) -> float:
    """potts.check_consistency as one expression over the full outer
    measure: max |sum over the boundary digits of mu_n - mu_{n-1}|."""
    F = np.asarray(fields, dtype=float)
    outer = sphere(tree, tree.depth)
    inner = sphere(tree, tree.depth - 1)
    sub = build_tree(tree.k, tree.depth - 1)
    mu_n = finite_volume_measure(tree, F[outer.start:outer.stop], params)
    mu_prev = finite_volume_measure(sub, F[inner.start:inner.stop], params)
    marginal = mu_n.reshape(-1, params.q**sub.n_vertices).sum(axis=0)
    return float(np.max(np.abs(marginal - mu_prev)))
