"""Potts model on finite Cayley trees.

Implements exact finite-volume probability measures of the q-state model
with boundary log-weights on the outermost generation, the one-step
boundary-field map and its bottom-up propagation, and an exhaustive
marginalisation check that decides whether a per-vertex field assignment
produces a compatible family of measures.

This module is the brute-force oracle for the analytic machinery in the rest
of the package, so it favours exactness over asymptotics: measures cover
every configuration (guarded by ENUMERATION_GUARD), weights are assembled
in log space once per distinct (monochromatic edge count, boundary digits)
cell, and the partition sum still adds every configuration's weight in
ascending order.

The field recursion runs one generation at a time.  f_map works on the q-1
field columns of a whole generation, so each numpy call spans every vertex,
and it adds its exponentials in numpy's pairwise order for one row of q
terms.  Its output is therefore bit-identical to a row-by-row log-sum-exp.
The bits matter: the ``verify`` violations printed in the README are
rounding differences near 1e-17, which another summation order can change.

Conventions
-----------
* Spin states are 1..q.  A configuration on an N-vertex tree is encoded as
  the base-q integer whose digit at position v (vertex 0 least significant)
  is state-1.  Because vertex indices are breadth-first, restricting to the
  radius-(n-1) sub-ball is the remainder modulo q**|V_{n-1}|.
* Boundary log-weight vectors live in R^{q-1}; the q-th component is
  gauge-fixed to zero and the measure adds an implicit 0 for state q.
* The coupling J and inverse temperature beta enter only through the
  activity theta = exp(J*beta), so ModelParams holds (k, q, theta).
* The tree stores nothing per vertex: a generation is a contiguous index
  range, so its rows of a field array are taken as a slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .tree import FiniteTree, build_tree, edges, sphere

# hard ceiling on q**|V_n| for exhaustive enumeration
ENUMERATION_GUARD = 20_000_000


class EnumerationLimitError(ValueError):
    """State space too large for the exhaustive oracle."""


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ModelParams:
    """Model constants: tree order k, number of states q and the activity
    theta, the only form in which the coupling J and the inverse
    temperature beta enter the measures (theta = exp(J*beta)).

    theta < 1 is the antiferromagnetic regime (J < 0), theta > 1
    ferromagnetic.
    """

    k: int
    q: int
    theta: float

    def __post_init__(self):
        if not _is_int(self.k) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if not _is_int(self.q) or self.q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q!r}")
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"theta must be positive and finite, got {self.theta!r}")

    @classmethod
    def from_coupling(cls, k: int, q: int, J: float, beta: float) -> "ModelParams":
        """Fold the coupling into the activity theta = exp(J*beta)."""
        J = float(J)
        beta = float(beta)
        if not math.isfinite(J):
            raise ValueError(f"J must be finite, got {J!r}")
        if not (math.isfinite(beta) and beta > 0):
            raise ValueError(f"beta must be positive and finite, got {beta!r}")
        try:
            theta = math.exp(J * beta)
        except OverflowError:
            theta = math.inf
        if not 0.0 < theta < math.inf:
            raise ValueError(f"activity exp(J*beta) is out of range for "
                             f"J={J!r}, beta={beta!r}")
        return cls(k=k, q=q, theta=theta)

    @classmethod
    def from_theta(cls, k: int, q: int, theta: float) -> "ModelParams":
        return cls(k=k, q=q, theta=float(theta))

    @property
    def antiferromagnetic(self) -> bool:
        return self.theta < 1.0


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


def _pairwise_sum(terms: np.ndarray):
    """Sum of the rows of ``terms``, added in the order numpy's pairwise
    summation adds one contiguous row of len(terms) numbers: in turn below
    8 terms; up to 128, in eight interleaved partial sums combined as a
    balanced tree, then the tail in turn; above 128, the two halves split
    at a multiple of 8."""
    n = len(terms)
    if n < 8:
        total = terms[0] + terms[1]
        for t in terms[2:]:
            total += t
        return total
    if n <= 128:
        stop = n - n % 8
        acc = terms[:8].copy()
        for i in range(8, stop, 8):
            acc += terms[i:i + 8]
        total = (((acc[0] + acc[1]) + (acc[2] + acc[3]))
                 + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
        for t in terms[stop:]:
            total += t
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _logsumexp_rows(terms: np.ndarray, work: np.ndarray):
    """log(sum_j exp(terms[j])) down the rows; ``work`` is scratch of
    the same shape."""
    m = terms.max(axis=0)
    np.subtract(terms, m, out=work)
    np.exp(work, out=work)
    return m + np.log(_pairwise_sum(work))


def f_map(h, params: ModelParams) -> np.ndarray:
    """One-step boundary-field map.

    Component i of the output is

        ln( (theta e^{h_i} + sum_{j != i} e^{h_j} + 1) /
            (theta + sum_j e^{h_j}) )

    with the sums over j = 1..q-1.  Both numerator and denominator are sums
    of positive exponentials, so they are evaluated in log space; this keeps
    the numerator structurally positive and can never emit a silent NaN.
    Non-finite inputs or outputs raise instead.

    ``h`` is one field vector of shape (q-1,) or a stack of N of them of
    shape (N, q-1); the map acts on the last axis, row by row.

    The map is evaluated column by column: each of the q terms of a sum is
    one contiguous row of a (q, N) array, so every numpy call runs over all
    N vectors at once instead of reducing N rows only q long.  The max is
    exact in any order, and the exponentials are added in numpy's pairwise
    order for a row of q numbers, so each output is bit for bit what a
    row-wise max/exp/sum/log gives.  A plain left-to-right sum would differ
    in the last bits from q = 8 on, and those bits reach the printed
    ``verify`` violations.
    """
    q = params.q
    h = np.asarray(h, dtype=float)
    if h.ndim not in (1, 2) or h.shape[-1] != q - 1:
        raise ValueError(f"field vector must have shape ({q - 1},) or "
                         f"(N, {q - 1}), got {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("field components must be finite")

    log_theta = math.log(params.theta)
    # row j < q-1 holds component j of every vector, row q-1 the gauge term
    terms = np.empty((q,) + h.shape[:-1])
    work = np.empty_like(terms)
    terms[:-1] = h.T
    terms[-1] = log_theta
    den = _logsumexp_rows(terms, work)
    terms[-1] = 0.0
    out = np.empty_like(h)
    for i in range(q - 1):
        terms[i] = log_theta + h[..., i]
        out[..., i] = _logsumexp_rows(terms, work) - den
        terms[i] = h[..., i]
    if not np.isfinite(out).all():
        raise ValueError("field map produced a non-finite component")
    return out


def _check_k(tree: FiniteTree, params: ModelParams) -> None:
    if params.k != tree.k:
        raise ValueError(f"params.k={params.k} does not match tree.k={tree.k}")


def propagate_fields(tree: FiniteTree, leaf_fields, params: ModelParams) -> np.ndarray:
    """Fill fields on every vertex from given depth-n leaf fields.

    Each internal vertex x gets the sum of f_map over its children; leaves
    keep their inputs.  Returns an (n_vertices, q-1) array.
    """
    _check_k(tree, params)
    q = params.q
    leaves = sphere(tree, tree.depth)
    leaf = np.asarray(leaf_fields, dtype=float)
    if leaf.shape != (len(leaves), q - 1):
        raise ValueError(f"leaf fields must have shape ({len(leaves)}, {q - 1}), "
                         f"got {leaf.shape}")
    if not np.isfinite(leaf).all():
        raise ValueError("leaf field components must be finite")

    fields = np.empty((tree.n_vertices, q - 1))
    fields[leaves.start:leaves.stop] = leaf
    # sphere m+1 lists the children of sphere m parent by parent, so one
    # reshape groups each parent's siblings; a sphere is a contiguous
    # index range, so its rows are a slice (a view, not a gathered copy)
    for m in range(tree.depth - 1, -1, -1):
        parents, kids = sphere(tree, m), sphere(tree, m + 1)
        mapped = f_map(fields[kids.start:kids.stop], params)
        fields[parents.start:parents.stop] = mapped.reshape(
            len(parents), -1, q - 1).sum(axis=1)
    return fields


@lru_cache(maxsize=8)
def _enum_tables(k: int, depth: int, q: int):
    """Per-(tree, q) enumeration tables, cached because the consistency
    oracle revisits the same tree many times.

    A configuration's weight depends only on its monochromatic edge count
    and its boundary digits, so finite_volume_measure evaluates each weight
    once per distinct (mono, boundary-group) cell and spreads it over the
    cell's configurations.  Returns the occupied cells' mono counts and
    group indices, how many configurations each cell holds, and every
    configuration's cell index (int32, in base-q index order).  The counts
    are built from broadcast digit patterns, one vertex at a time, with no
    integer division over the q**N indices."""
    tree = build_tree(k, depth)
    n = tree.n_vertices
    total = q**n
    if total > ENUMERATION_GUARD:
        raise EnumerationLimitError(
            f"enumeration guard exceeded: q^|V_n| = {q}^{n} "
            f"= {total} > {ENUMERATION_GUARD}")
    # vertex v is digit v, so appending it multiplies the table by q; its
    # parent's digit is the middle axis of the table so far (int8 holds
    # every count: the guard keeps n at most 24)
    eye = np.eye(q, dtype=np.int8).reshape(q, 1, q, 1)
    mono = np.zeros(q, dtype=np.int8)
    for p, v in edges(tree):
        mono = (mono.reshape(1, q ** (v - 1 - p), q, q**p) + eye).reshape(-1)
    # the boundary generation holds the most significant digits
    n_groups = q ** len(sphere(tree, depth))
    key = (mono.reshape(n_groups, -1)
           + np.arange(0, n_groups * n, n, dtype=np.int32)[:, None]).reshape(-1)
    del mono
    counts = np.bincount(key, minlength=n_groups * n)
    occupied = np.flatnonzero(counts)
    to_cell = np.zeros(n_groups * n, dtype=np.int32)
    to_cell[occupied] = np.arange(len(occupied), dtype=np.int32)
    cell = to_cell[key]
    cell_group, cell_mono = np.divmod(occupied, n)
    tables = (cell_mono, cell_group, counts[occupied], cell)
    for a in tables:
        a.setflags(write=False)
    return tables


@dataclass(frozen=True, eq=False)
class MeasureTable:
    """Exact finite-volume measure as a dense probability table over all
    q**N configurations, indexed by the base-q encoding."""

    probs: np.ndarray
    tree: FiniteTree
    q: int

    def __len__(self) -> int:
        return len(self.probs)

    def probability(self, spins: Sequence[int]) -> float:
        return float(self.probs[config_index(spins, self.q)])

    def config_at(self, index: int) -> tuple[int, ...]:
        return config_at(index, self.tree.n_vertices, self.q)


def finite_volume_measure(tree: FiniteTree, boundary_fields,
                          params: ModelParams) -> MeasureTable:
    """Exhaustive measure with weights theta^{mono edges} * exp(boundary sum).

    boundary_fields: (|W_n|, q-1) array, one row per depth-n vertex in
    ascending index order.  Probabilities are positive and sum to 1.
    """
    _check_k(tree, params)
    q = params.q
    boundary = sphere(tree, tree.depth)
    H = np.asarray(boundary_fields, dtype=float)
    if H.shape != (len(boundary), q - 1):
        raise ValueError(f"boundary fields must have shape "
                         f"({len(boundary)}, {q - 1}), got {H.shape}")
    if not np.isfinite(H).all():
        raise ValueError("boundary field components must be finite")

    cell_mono, cell_group, counts, cell = _enum_tables(tree.k, tree.depth, q)

    # weight table over the boundary digits alone, one digit at a time
    table = np.zeros(1)
    for j in range(len(boundary)):
        full = np.append(H[j], 0.0)  # gauge component for state q
        table = (full[:, None] + table).reshape(-1)

    # one weight per cell: every configuration in a cell gets these bits
    logw = math.log(params.theta) * cell_mono + table[cell_group]
    if not np.isfinite(logw).all():
        raise ValueError("non-finite configuration weight")
    logw -= logw.max()
    w = np.exp(logw)
    # every configuration's weight in ascending order, as np.sort would
    # give them, so the sum is stable and independent of the cell layout
    order = np.argsort(w)
    z = float(np.repeat(w[order], counts[order]).sum())
    probs = (w / z)[cell]
    probs.setflags(write=False)
    return MeasureTable(probs=probs, tree=tree, q=q)


def check_consistency(tree: FiniteTree, fields, params: ModelParams) -> float:
    """Max-norm violation of the compatibility between volumes n and n-1.

    Builds the measure on the radius-n ball from fields[W_n], sums out the
    boundary generation, and compares against the measure on the radius-(n-1)
    ball built from fields[W_{n-1}].  Fields produced by propagate_fields
    pass at the 1e-12 level; anything else does not.

    Only the W_n and W_{n-1} rows of ``fields`` enter the two measures;
    deeper interior values are irrelevant to this check.
    """
    _check_k(tree, params)
    if tree.depth < 1:
        raise ValueError("consistency check needs depth >= 1")
    q = params.q
    F = np.asarray(fields, dtype=float)
    if F.shape != (tree.n_vertices, q - 1):
        raise ValueError(f"fields must have shape ({tree.n_vertices}, {q - 1}), "
                         f"got {F.shape}")

    outer = sphere(tree, tree.depth)
    inner = sphere(tree, tree.depth - 1)
    mu_n = finite_volume_measure(tree, F[outer.start:outer.stop], params)

    sub = build_tree(tree.k, tree.depth - 1)
    mu_prev = finite_volume_measure(sub, F[inner.start:inner.stop], params)

    block = q**sub.n_vertices
    marginal = mu_n.probs.reshape(-1, block).sum(axis=0)
    return float(np.max(np.abs(marginal - mu_prev.probs)))
