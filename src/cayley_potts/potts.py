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
ascending order, in numpy's pairwise order.  The cell tables factor
through the inner ball: a radius-n configuration's cell depends on its
inner configuration only through that configuration's radius-(n-1) cell,
so each depth's tables are built from the one below it and nothing
q**|V|-long is cached.  Each cached table is in the narrowest integer type
that holds its values (uint16 cell indices up to 65,536 cells), except the
per-cell configuration counts, which stay intp for the partition sum's
arithmetic.  check_consistency forms no q**|V|-long array at all: the
partition sum walks numpy's pairwise tree down to slices of _SLICE
weights, and the outer measure's marginal is one sum per inner cell,
gathered from the per-cell probabilities slab by slab, so its bits are
those of the whole-array sums.

The field recursion runs one generation at a time.  f_map takes all q sums
of a generation of N vertices as one log-sum-exp over a (q, q, N) block
((q+1)*q*N doubles of scratch, against 2*q*N for q separate passes), adding
each sum in numpy's pairwise order, so its output is bit-identical to a
row-by-row log-sum-exp.  The bits matter: the ``verify`` violations in the
README are rounding differences near 1e-17, which another order can change.
propagate_fields stores the fields component-major, one contiguous row of
n_vertices per component, so a generation is a run of columns and each
parent's children sit side by side; the children are added in turn, child
0 + child 1 and then each further one, whole rows at a time, for every q.

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
from functools import lru_cache

import numpy as np

from ._args import Record, check_int, check_theta_k
from .tree import FiniteTree, build_tree, sphere

# hard ceiling on q**|V_n| for exhaustive enumeration
ENUMERATION_GUARD = 20_000_000

# elements per slice of the oracle's long passes (the partition sum's
# terms, the table keys, the marginal's gathers): 1 MB of doubles, so a
# slice's scratch stays in cache.  Oracle benchmark, 10 s
# runs, seeds 1-3, 2 vCPUs, numpy 2.4.6: 2**15 gave 137-162 ops/s, 2**16
# 154-173, 2**17 163-180 and 2**18 167-176 (whole-array passes: 79-91).
# _repeat_sum needs it above 128, where numpy's pairwise sum splits.
_SLICE = 1 << 17


class EnumerationLimitError(ValueError):
    """State space too large for the exhaustive oracle."""


class ModelParams(Record):
    """Model constants: tree order k, number of states q and the activity
    theta, the only form in which the coupling J and the inverse
    temperature beta enter the measures (theta = exp(J*beta)).  Kept as
    the plain int k, int q and float theta they were checked as.

    theta < 1 is the antiferromagnetic regime (J < 0), theta > 1
    ferromagnetic.
    """

    __slots__ = _fields = ("k", "q", "theta")

    def __init__(self, k: int, q: int, theta: float):
        theta, k = check_theta_k(theta, k)
        self._set(k, check_int("q", q, 2), theta)

    @classmethod
    def from_theta(cls, k: int, q: int, theta: float) -> "ModelParams":
        return cls(k=k, q=q, theta=theta)


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of the rows of ``terms``, added in the order numpy's pairwise
    summation adds one contiguous row of len(terms) numbers: in turn below
    8 terms; up to 128, in eight interleaved partial sums combined as a
    balanced tree, then the tail in turn; above 128, the two halves split
    at a multiple of 8.  Adds in place: returns the view ``terms[0]``."""
    n = len(terms)
    if n < 8:
        total = terms[0]
        for t in terms[1:]:
            total += t
        return total
    if n <= 128:
        stop = n - n % 8
        acc = terms[:8]
        for i in range(8, stop, 8):
            acc += terms[i:i + 8]
        acc[::2] += acc[1::2]  # ((a0 + a1) + (a2 + a3))
        acc[::4] += acc[2::4]  # + ((a4 + a5) + (a6 + a7))
        acc[0] += acc[4]
        for t in terms[stop:]:
            acc[0] += t
        return acc[0]
    half = n // 2
    half -= half % 8
    total = _pairwise_sum(terms[:half])
    total += _pairwise_sum(terms[half:])
    return total


def f_map(h, params: ModelParams) -> np.ndarray:
    """One-step boundary-field map.

    Component i of the output is

        ln( (theta e^{h_i} + sum_{j != i} e^{h_j} + 1) /
            (theta + sum_j e^{h_j}) )

    with the sums over j = 1..q-1.  ``h`` is one field vector of shape
    (q-1,) or a stack of N of them of shape (N, q-1); the map acts on the
    last axis, row by row, into a new array of that shape that follows the
    input's memory order: a C-contiguous input gives a C-contiguous output,
    and the transpose of a (q-1, N) array with contiguous rows (as
    propagate_fields passes) an F-contiguous one.  Both sums are of
    positive exponentials and are taken in log space, so no NaN can appear
    silently; non-finite inputs raise.  Term by term the two sums differ by
    a factor theta or 1/theta, so every output lies within |ln theta| of 0
    and is finite.

    All q sums form one batched log-sum-exp over a (q, q, N) block whose
    row ``block[j, s]`` is term j of sum s.  Sum i < q-1 is numerator i
    (h_j for every j, ln theta + h_i in slot i, the gauge term 0); sum q-1
    is the denominator (h_1..h_{q-1}, ln theta), so ln theta lies on the
    diagonal j = s.  The max is exact, and each sum's q terms are added in
    numpy's pairwise order for one row, so each output is bit for bit a
    row-wise max/exp/sum/log.  Scratch: (q+1)*q*N doubles with the maxima,
    against 2*q*N for q separate passes.
    """
    q = params.q
    h = np.asarray(h, dtype=float)
    if h.ndim not in (1, 2) or h.shape[-1] != q - 1:
        raise ValueError(f"field vector must have shape ({q - 1},) or "
                         f"(N, {q - 1}), got {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("field components must be finite")

    log_theta = math.log(params.theta)
    # one allocation for the block and its maxima: fewer fresh pages
    buf = np.empty((q + 1, q) + h.shape[:-1])
    block, m = buf[:-1], buf[-1]
    block[:-1] = h.T[:, None]
    block[-1] = 0.0
    # ln theta sits on the diagonal (j, j): one strided basic slice
    block.reshape((q * q,) + h.shape[:-1])[::q + 1] += log_theta
    out = np.empty_like(h)
    # a term more than DBL_MAX below its sum's max overflows to -inf, whose
    # exp, 0, is its exact share
    with np.errstate(over="ignore"):
        block.max(axis=0, out=m)
        block -= m
        np.exp(block, out=block)
        lse = _pairwise_sum(block)
        np.log(lse, out=lse)
        lse += m
        np.subtract(lse[:-1], lse[-1], out=out.T)
    return out


def _check_k(tree: FiniteTree, params: ModelParams) -> None:
    if params.k != tree.k:
        raise ValueError(f"params.k={params.k} does not match tree.k={tree.k}")


def propagate_fields(tree: FiniteTree, leaf_fields, params: ModelParams) -> np.ndarray:
    """Fill fields on every vertex from given depth-n leaf fields.

    Each internal vertex x gets the sum of f_map over its children, added
    in turn; leaves keep their inputs.  Returns an (n_vertices, q-1) array,
    row v vertex v's field, as an F-contiguous view: the fields are stored
    component-major, a (q-1, n_vertices) array whose .T is returned.
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

    # column v is vertex v's field: a generation is a run of columns, and
    # sphere m+1 lists the children of sphere m parent by parent, so one
    # reshape of the mapped rows groups each parent's siblings.  f_map
    # keeps its input's memory order, so mapped is C-contiguous
    cols = np.empty((q - 1, tree.n_vertices))
    cols[:, leaves.start:leaves.stop] = leaf.T
    for m in range(tree.depth - 1, -1, -1):
        parents, kids = sphere(tree, m), sphere(tree, m + 1)
        mapped = f_map(cols[:, kids.start:kids.stop].T, params).T
        child = mapped.reshape(q - 1, len(parents), -1)
        total = cols[:, parents.start:parents.stop]
        total[...] = child[:, :, 0]
        for j in range(1, child.shape[2]):
            total += child[:, :, j]
    return cols.T


def check_enumeration(tree: FiniteTree, q: int) -> None:
    """Refuse a tree whose q**|V| configurations exceed ENUMERATION_GUARD,
    forming q**|V| only for |V| < 25 (2**25 is already above it)."""
    n = tree.n_vertices
    if n >= ENUMERATION_GUARD.bit_length() or q**n > ENUMERATION_GUARD:
        raise EnumerationLimitError(f"enumeration guard exceeded: "
                                    f"q^|V_n| = {q}^{n} > {ENUMERATION_GUARD}")


# the oracle benchmark checks four (k, depth, q) shapes, (2, 2, 3) at
# depth 3 and the others at depth 2, and each check reads its depth and
# depth - 1 tables; building them builds every shallower depth, so the
# oracle's traffic is 3 + 3 + 3 + 4 = 13 keys
@lru_cache(maxsize=13)
def _enum_tables(k: int, depth: int, q: int):
    """Per-(tree, q) enumeration tables, cached because the consistency
    oracle revisits the same tree many times.

    A configuration's weight depends only on its monochromatic edge count
    and its boundary digits, so finite_volume_measure evaluates each weight
    once per distinct (mono, boundary-group) cell and spreads it over the
    cell's configurations.  Returns the occupied cells' mono counts and
    group indices (ascending by group, then mono), how many configurations
    each cell holds, and ``split``.

    The tables factor through the inner ball.  Write a configuration's
    index as i * q**|V_{depth-1}| + j, with i the boundary digits and j
    the inner configuration.  Its mono count is mono(j) plus the edges
    from the boundary to equal parent digits, and the parent digits are
    j's group, so its cell depends on j only through j's cell c at depth
    - 1: that cell is split[i, c] (C-contiguous, one row per i).
    Depth 0 is the root alone: q cells of one configuration each, under
    one empty inner ball.  The tables are built from the depth - 1 ones,
    so no q**N array is formed; composing split over the depths gives
    every configuration's cell (_cell_map).

    Each table is stored in the narrowest integer type that holds its
    values: split in np.min_scalar_type(n_cells - 1) (uint16 up to 65,536
    cells, uint32 past), the mono counts in uint8 (a ball under the guard
    has at most 24 vertices) and the groups in np.min_scalar_type of
    q**|W_depth| - 1.  The counts stay intp: _repeat_sum_part subtracts
    from copies of them, which unsigned arithmetic would wrap."""
    if depth == 0:
        cell_type = np.min_scalar_type(q - 1)
        tables = (np.zeros(q, dtype=np.uint8), np.arange(q, dtype=cell_type),
                  np.ones(q, dtype=np.intp),
                  np.arange(q, dtype=cell_type).reshape(q, 1))
    else:
        tree = build_tree(k, depth)
        check_enumeration(tree, q)
        inner_mono, inner_group, inner_counts, _ = _enum_tables(k, depth - 1, q)
        n = tree.n_vertices
        n_parents = len(sphere(tree, depth - 1))
        n_kids = len(sphere(tree, depth)) // n_parents
        # match[b, d]: the digits of a block b of n_kids siblings equal to d
        eye = np.eye(q, dtype=np.int32)
        match = np.zeros((1, q), dtype=np.int32)
        for _ in range(n_kids):
            match = (eye[:, None] + match).reshape(-1, q)
        # key i * n + mono of cell (i, mono): the boundary digits i are one
        # block of children per parent, parent 0's least significant, and
        # parent u's digit in inner cell c is digit u of its group; each
        # block adds its equal edges and its share of i * n, one more
        # significant block at a time (int32 holds every key: the guard
        # keeps rows * n below 24 * ENUMERATION_GUARD)
        n_blocks = len(match)
        keys = inner_mono.astype(np.int32)[None, :]
        rest = inner_group
        for _ in range(n_parents):
            rest, digit = np.divmod(rest, q)
            # np.take keeps term, and so keys, C-contiguous
            term = np.take(match, digit, axis=1)
            term += np.arange(0, n_blocks * len(keys) * n, len(keys) * n,
                              dtype=np.int32)[:, None]
            keys = (term[:, None, :] + keys).reshape(-1, keys.shape[1])
        rows, width = keys.shape
        # cell (i, mono) holds the configurations of every inner cell it
        # receives.  A slab of rows holds the keys from its first row's on,
        # so it counts into its own slice; _SLICE / 8 keys a slab keep the
        # weights at 128 KB, as a weight array per key cost small shapes
        # more in first-touch page faults than the factoring saves them.
        # Float weights add integers below 2**53 exactly
        slab = min(rows, max(1, _SLICE // 8 // width))
        weights = np.tile(inner_counts.astype(float), slab)
        counts = np.empty(rows * n)
        for i in range(0, rows, slab):
            part = keys[i:i + slab] - i * n
            counts[i * n:(i + len(part)) * n] = np.bincount(
                part.ravel(), weights[:part.size], minlength=len(part) * n)
        occupied = np.flatnonzero(counts)
        # to_cell[key] is the key's cell index, in split's own type, so
        # np.take writes each slab of cells straight into split
        to_cell = np.zeros(rows * n,
                           dtype=np.min_scalar_type(len(occupied) - 1))
        to_cell[occupied] = np.arange(len(occupied), dtype=to_cell.dtype)
        split = np.empty((rows, width), dtype=to_cell.dtype)
        for i in range(0, rows, slab):
            np.take(to_cell, keys[i:i + slab], out=split[i:i + slab])
        del keys  # at least split's size: freed before the cell arrays
        cell_group, cell_mono = np.divmod(occupied, n)
        tables = (cell_mono.astype(np.uint8),
                  cell_group.astype(np.min_scalar_type(rows - 1)),
                  counts[occupied].astype(np.intp), split)
    for a in tables:
        a.setflags(write=False)
    return tables


def _repeat_sum(w: np.ndarray, counts: np.ndarray) -> float:
    """float(np.repeat(w, counts).sum()) bit for bit, without forming more
    than _SLICE of the repeated terms at once.  numpy sums one contiguous
    row as a pairwise tree (see _pairwise_sum), and any node of that tree
    is np.sum of its subrange, so this splits the terms where numpy splits
    them until a part holds at most _SLICE, and sums each part so."""
    ends = np.cumsum(counts)
    return _repeat_sum_part(w, counts, ends, 0, int(ends[-1]))


def _repeat_sum_part(w, counts, ends, lo: int, hi: int) -> float:
    """The node of _repeat_sum's tree over terms lo..hi-1; ``ends`` is
    np.cumsum(counts), taken once for the whole tree."""
    n = hi - lo
    if n > _SLICE:
        half = n // 2
        half -= half % 8
        return (_repeat_sum_part(w, counts, ends, lo, lo + half)
                + _repeat_sum_part(w, counts, ends, lo + half, hi))
    # entries a and b hold the first and the last term
    a, b = np.searchsorted(ends, (lo, hi - 1), side="right")
    runs = counts[a:b + 1].copy()
    runs[0] = ends[a] - lo
    runs[-1] -= ends[b] - hi
    return float(np.repeat(w[a:b + 1], runs).sum())


def _cell_map(k: int, depth: int, q: int) -> np.ndarray:
    """Every configuration's cell in _enum_tables(k, depth, q), in base-q
    index order: composed from the cached split tables as cell_d =
    split_d[:, cell_{d-1}].ravel(), from the empty ball's one
    configuration, so it is in split's type.  The q**N-long map is not
    cached."""
    cell = np.zeros(1, dtype=np.intp)
    for d in range(depth + 1):
        # np.take keeps the (rows, columns) result C-contiguous
        cell = np.take(_enum_tables(k, d, q)[3], cell, axis=1).ravel()
    return cell


def _cell_probs(tree: FiniteTree, boundary_fields, params: ModelParams):
    """The measure as its per-cell probabilities w / z: a configuration in
    cell c of _enum_tables has probability p[c].  Validates as
    finite_volume_measure does."""
    _check_k(tree, params)
    q = params.q
    boundary = sphere(tree, tree.depth)
    H = np.asarray(boundary_fields, dtype=float)
    if H.shape != (len(boundary), q - 1):
        raise ValueError(f"boundary fields must have shape "
                         f"({len(boundary)}, {q - 1}), got {H.shape}")
    if not np.isfinite(H).all():
        raise ValueError("boundary field components must be finite")

    cell_mono, cell_group, counts, _ = _enum_tables(tree.k, tree.depth, q)

    # weight table over the boundary digits alone, one digit at a time; a
    # sum that overflows to inf fails the finite-weight check below
    full = np.zeros((len(boundary), q))  # gauge component 0 for state q
    full[:, :-1] = H
    table = np.zeros(1)
    with np.errstate(over="ignore"):
        for row in full:
            table = (row[:, None] + table).reshape(-1)

    # one weight per cell: every configuration in a cell gets these bits
    # (float addition commutes, so adding the mono term second changes none)
    logw = table[cell_group]
    logw += math.log(params.theta) * cell_mono
    if not np.isfinite(logw).all():
        raise ValueError("non-finite configuration weight")
    logw -= logw.max()
    w = np.exp(logw, out=logw)
    # every configuration's weight in ascending order, as np.sort would
    # give them, so the sum is stable and independent of the cell layout
    order = np.argsort(w)
    z = _repeat_sum(w[order], counts[order])
    w /= z
    return w


def finite_volume_measure(tree: FiniteTree, boundary_fields,
                          params: ModelParams) -> np.ndarray:
    """Exhaustive measure with weights theta^{mono edges} * exp(boundary sum).

    boundary_fields: (|W_n|, q-1) array, one row per depth-n vertex in
    ascending index order.  Returns the read-only probabilities of all
    q**N configurations, indexed by the base-q encoding with vertex 0's
    state-1 the least significant digit; they are positive and sum to 1.
    The partition sum z adds every configuration's weight in ascending
    order, and each probability is its cell's w / z.
    """
    p = _cell_probs(tree, boundary_fields, params)
    probs = p[_cell_map(tree.k, tree.depth, params.q)]
    probs.setflags(write=False)
    return probs


def check_consistency(tree: FiniteTree, fields, params: ModelParams) -> float:
    """Max-norm violation of the compatibility between volumes n and n-1.

    Builds the measure on the radius-n ball from fields[W_n], sums out the
    boundary generation, and compares against the measure on the radius-(n-1)
    ball built from fields[W_{n-1}].  Fields produced by propagate_fields
    pass at the 1e-12 level; anything else does not.

    Only the W_n and W_{n-1} rows of ``fields`` enter the two measures;
    deeper interior values are irrelevant to this check.

    Neither measure is formed.  An inner configuration j's marginal adds,
    over the boundary digits i, the probabilities of the cells
    split[i, cell(j)], so it is one sum per inner cell: column c of split
    gathered from the per-cell probabilities one slab of rows at a time,
    the rows added in turn.  That is the order
    finite_volume_measure(...).reshape(-1, block).sum(axis=0) adds each
    column of the same terms in, so the result has the same bits, and the
    max over inner cells is the max over inner configurations.
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
    p = _cell_probs(tree, F[outer.start:outer.stop], params)
    sub = build_tree(tree.k, tree.depth - 1)
    p_prev = _cell_probs(sub, F[inner.start:inner.stop], params)

    split = _enum_tables(tree.k, tree.depth, q)[3]
    width = split.shape[1]
    slab = min(len(split), max(1, _SLICE // width))
    # slot 0 carries the sum of the rows before the slab into its sum
    buf = np.empty((slab + 1, width))
    marginal = np.zeros(width)
    for i in range(0, len(split), slab):
        chunk = split[i:i + slab]
        part = buf[:1 + len(chunk)]
        part[0] = marginal
        # every index is a cell; mode "clip" skips the buffered bounds check
        np.take(p, chunk, out=part[1:], mode="clip")
        part.sum(axis=0, out=marginal)
    return float(np.max(np.abs(marginal - p_prev)))
