"""Potts Hamiltonian, field recursion, and the exact measure oracle."""

import gc
import math
import warnings

import numpy as np
import pytest

from cayley_potts.potts import (_SLICE, ENUMERATION_GUARD,
                                EnumerationLimitError, ModelParams,
                                _cell_map, _enum_tables, _repeat_sum,
                                check_consistency, f_map,
                                finite_volume_measure, propagate_fields)
from cayley_potts.period2 import period2_map
from cayley_potts.tree import build_tree, sphere
from helpers import (antiferromagnetic, bfs_oracle, config_at, config_index,
                     consistency_whole, enum_tables_whole, f_map_rowwise,
                     from_coupling, hamiltonian)

LN2 = math.log(2.0)


def measure_oracle(tree, boundary_fields, params):
    """Direct weight-sum recomputation, no shared code with the library."""
    q = params.q
    n = tree.n_vertices
    parent, _ = bfs_oracle(tree.k, tree.depth)
    leaves = [int(v) for v in sphere(tree, tree.depth)]
    H = [[float(c) for c in row] for row in boundary_fields]
    weights = []
    for idx in range(q**n):
        spins, rem = [], idx
        for _ in range(n):
            rem, d = divmod(rem, q)
            spins.append(d + 1)
        mono = sum(1 for v in range(1, n) if spins[parent[v]] == spins[v])
        boundary = 0.0
        for row, v in enumerate(leaves):
            if spins[v] < q:  # state q carries the zero gauge component
                boundary += H[row][spins[v] - 1]
        weights.append(params.theta**mono * math.exp(boundary))
    z = sum(sorted(weights))
    return [w / z for w in weights]


# ---------------------------------------------------------------- params


def test_params_from_coupling():
    p = from_coupling(2, 3, -1.0, 1.0)
    assert p.theta == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert antiferromagnetic(p)


def test_params_from_theta():
    p = ModelParams.from_theta(2, 3, 0.5)
    # the measures see the coupling only through theta, so nothing else is kept
    assert p._fields == ("k", "q", "theta")
    assert p.theta == 0.5
    with pytest.raises(AttributeError):
        p.theta = 0.25
    assert p.theta == 0.5
    assert antiferromagnetic(p)
    assert not antiferromagnetic(ModelParams.from_theta(2, 3, 1.7))


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams.from_theta(2, 1, 0.5)
    with pytest.raises(ValueError):
        ModelParams.from_theta(0, 3, 0.5)
    with pytest.raises(ValueError):
        from_coupling(2, 3, -1.0, 0.0)
    with pytest.raises(ValueError):
        ModelParams.from_theta(2, 3, -0.5)
    # exp(J*beta) beyond the doubles, or a non-finite J, is bad input
    for J, beta in ((1000.0, 1.0), (-1000.0, 1.0), (1e308, 10.0),
                    (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="J"):
            from_coupling(2, 3, J, beta)
    # a bool is an int to Python, but not a tree order or a state count
    with pytest.raises(ValueError, match="k must be"):
        ModelParams(True, 3, 0.5)
    with pytest.raises(ValueError, match="q must be"):
        ModelParams.from_theta(2, True, 0.5)
    with pytest.raises(ValueError, match="k must be"):
        from_coupling(False, 3, -1.0, 1.0)


def test_params_keep_the_plain_values_they_checked():
    # numpy scalars and an int theta are checked, then kept as int, int,
    # float; math.log sees the same value, so f_map's bits do not move
    numpy_params = ModelParams(np.int64(3), np.int64(3), np.float64(0.5))
    int_theta = ModelParams(3, 3, 1)
    assert repr(numpy_params) == "ModelParams(k=3, q=3, theta=0.5)"
    assert repr(int_theta) == "ModelParams(k=3, q=3, theta=1.0)"
    for p in (numpy_params, int_theta):
        assert [type(v) for v in (p.k, p.q, p.theta)] == [int, int, float]
    h = np.array([[LN2, 0.0], [-1.5, 0.25]])
    assert np.array_equal(f_map(h, numpy_params),
                          f_map(h, ModelParams(3, 3, 0.5)))
    assert np.array_equal(f_map(h, int_theta),
                          f_map(h, ModelParams(3, 3, 1.0)))


# ---------------------------------------------------------- configurations


def test_config_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        idx = int(rng.integers(0, 3**5))
        spins = config_at(idx, 5, 3)
        assert all(1 <= s <= 3 for s in spins)
        assert config_index(spins, 3) == idx


def test_config_errors():
    with pytest.raises(ValueError):
        config_index((0, 1), 3)
    with pytest.raises(ValueError):
        config_index((1, 4), 3)
    with pytest.raises(ValueError):
        config_at(3**4, 4, 3)


# ----------------------------------------------------------- hamiltonian


def test_hamiltonian_all_equal():
    tree = build_tree(2, 1)
    assert hamiltonian(tree, (1, 1, 1, 1), 3, J=-1.0) == 3.0


def test_hamiltonian_proper_coloring():
    tree = build_tree(2, 1)
    # alternating by generation parity: no monochromatic edge
    assert hamiltonian(tree, (1, 2, 2, 2), 3, J=-1.0) == 0.0


def test_hamiltonian_random_vs_edge_scan():
    # the helper reads its parents from bfs_oracle; the package's
    # enumeration tables count each configuration's monochromatic edges
    # from the tree's breadth-first offsets
    rng = np.random.default_rng(11)
    for k, q, n in ((2, 3, 2), (3, 2, 2)):
        tree = build_tree(k, n)
        cell_mono = _enum_tables(k, n, q)[0]
        cell = _cell_map(k, n, q)
        for _ in range(50):
            spins = rng.integers(1, q + 1, size=tree.n_vertices)
            mono = cell_mono[cell[config_index(spins, q)]]
            assert hamiltonian(tree, spins, q, J=-0.5) == 0.5 * mono


def test_hamiltonian_errors():
    tree = build_tree(2, 1)
    with pytest.raises(ValueError):
        hamiltonian(tree, (1, 1, 1), 3, J=-1.0)  # missing a vertex
    with pytest.raises(ValueError):
        hamiltonian(tree, (1, 1, 1, 5), 3, J=-1.0)


# ----------------------------------------------------------------- f_map


def test_f_map_symmetric_point_fixed():
    for theta in (0.1, 0.5, 1.0, 2.0):
        params = ModelParams.from_theta(2, 3, theta)
        out = f_map(np.zeros(2), params)
        assert np.max(np.abs(out)) <= 1e-15


def test_f_map_theta_one_annihilates():
    params = ModelParams.from_theta(2, 3, 1.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        out = f_map(rng.uniform(-3, 3, 2), params)
        assert np.max(np.abs(out)) <= 1e-15


def test_f_map_golden_value():
    # q=3, theta=0.5, h=(ln 2, 0): first component ln(6/7), second 0
    params = ModelParams.from_theta(2, 3, 0.5)
    out = f_map(np.array([LN2, 0.0]), params)
    assert out[0] == pytest.approx(-0.15415067982725836, abs=1e-15)
    assert abs(out[1]) <= 1e-15


def test_f_map_extreme_fields_stay_finite():
    params = ModelParams.from_theta(2, 3, 0.5)
    for h in ([-700.0, 700.0], [700.0, 700.0], [-745.0, -745.0]):
        assert np.isfinite(f_map(np.array(h), params)).all()


def test_f_map_fields_more_than_dbl_max_apart_do_not_warn():
    # h_2 - max(h) overflows to -inf, and exp(-inf) = 0 is its exact share
    params = ModelParams.from_theta(3, 3, 0.5)
    h = np.array([[1e308, -1e308], [-1e308, 1e308], [LN2, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = f_map_rowwise(h, 3, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = f_map(h, params)
        assert np.array_equal(f_map(h[0], params), expected[0])
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 17])
def test_f_map_output_is_bounded_by_log_theta(q):
    # num and den differ term by term by a factor theta or 1/theta, so
    # |f_map(h)_i| <= |ln theta| for every finite h: no output can be
    # non-finite, down to fields of +-DBL_MAX and theta at either end
    dbl_max = np.finfo(float).max
    values = [dbl_max, -dbl_max, 1e308, -1e308, 0.0, -0.0, 1e-300, 5e-324,
              700.0, -745.0, 1.0]
    rng = np.random.default_rng(q)
    stack = rng.choice(values, size=(400, q - 1))
    for theta in (5e-324, 1e-300, 1e-5, 0.3, 1.0, 3.7, 1e5, 1e300, 1.7e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = f_map(stack, ModelParams.from_theta(2, q, theta))
        assert np.isfinite(out).all()
        assert np.abs(out).max() <= abs(math.log(theta)) + 1e-12


def test_f_map_validation():
    params = ModelParams.from_theta(2, 3, 0.5)
    with pytest.raises(ValueError):
        f_map(np.zeros(3), params)
    with pytest.raises(ValueError):
        f_map(np.array([np.nan, 0.0]), params)


def test_f_map_matches_z_coordinate_map():
    # exp(k * F) on the exponentiated pair reproduces the 4-component map
    rng = np.random.default_rng(17)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        theta = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        z = np.exp(rng.uniform(-4, 4, 4))
        params = ModelParams.from_theta(k, 3, theta)
        upper = np.exp(k * f_map(np.log(z[2:]), params))
        lower = np.exp(k * f_map(np.log(z[:2]), params))
        full = period2_map(z, theta, k)
        assert np.allclose(np.concatenate([upper, lower]), full,
                           rtol=1e-13, atol=0)


@pytest.mark.parametrize("q", [2, 3, 5, 8, 9, 17])
def test_f_map_stack_matches_rows(q):
    params = ModelParams.from_theta(2, q, 0.3)
    rng = np.random.default_rng(41)
    stack = rng.uniform(-5, 5, size=(64, q - 1))
    out = f_map(stack, params)
    assert out.shape == stack.shape
    for row, got in zip(stack, out):
        assert np.array_equal(f_map(row, params), got)
    for shape in [(), (q,), (64, q), (4, 2, q - 1)]:
        with pytest.raises(ValueError):
            f_map(np.zeros(shape), params)


@pytest.mark.parametrize("shape", [(7, 2), (1, 2), (0, 2), (2,)])
def test_f_map_returns_a_new_c_contiguous_array(shape):
    h = np.arange(np.prod(shape), dtype=float).reshape(shape) / 7
    out = f_map(h, ModelParams.from_theta(2, 3, 0.3))
    assert out.shape == h.shape and out.dtype == np.float64
    assert out.flags.c_contiguous and out.flags.writeable
    assert not np.shares_memory(out, h)


THETAS = (1e-300, 1e-5, 0.3, 1.0, 3.7, 1e5, 1e300)


def assert_f_map_matches_rowwise(h, q, theta):
    """The same bits as the row-wise oracle, or the same ValueError."""
    params = ModelParams.from_theta(2, q, theta)
    try:
        expected = f_map_rowwise(h, q, theta)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            f_map(h, params)
        assert str(got.value) == str(exc)
        return
    out = f_map(h, params)
    assert out.shape == expected.shape
    assert np.array_equal(out, expected)


# 2..7 add their q terms in turn, 8..20 and 128 through eight partial sums,
# 129, 130 and 200 split them in two first; +-1e308 overflow t - max(t)
@pytest.mark.filterwarnings("ignore:overflow encountered in subtract")
@pytest.mark.parametrize("q", list(range(2, 21)) + [128, 129, 130, 200])
def test_f_map_bit_identical_to_rowwise_oracle(q):
    rng = np.random.default_rng(q)
    for theta in THETAS:
        for scale in (1.0, 30.0, 700.0):
            stack = rng.uniform(-scale, scale, size=(23, q - 1))
            for h in (stack, stack[0], stack[:0]):
                assert_f_map_matches_rowwise(h, q, theta)
    # ties, signed zeros, exp under- and overflow, and the rejected inputs
    stack = rng.choice([0.0, -0.0, 1e-300, 700.0, -700.0, 745.0, -745.0,
                        1e308, -1e308], size=(11, q - 1))
    bad = stack.copy()
    bad[4, -1] = np.nan
    for theta in THETAS:
        for h in (stack, stack[4], bad, bad[4], np.zeros((3, q)),
                  np.zeros((2, 3, q - 1))):
            assert_f_map_matches_rowwise(h, q, theta)


# --------------------------------------------------------------- measure


def test_measure_path_uniform():
    # k=1, depth 1 is a 3-vertex path; theta=1 and zero fields: uniform
    tree = build_tree(1, 1)
    params = from_coupling(1, 2, 0.0, 1.0)
    probs = finite_volume_measure(tree, np.zeros((2, 1)), params)
    assert len(probs) == 8
    assert np.max(np.abs(probs - 0.125)) <= 1e-15


def test_measure_weight_ratio():
    # 3 edges: all-equal weight theta^3, rainbow weight 1
    tree = build_tree(2, 1)
    params = ModelParams.from_theta(2, 3, 0.5)
    probs = finite_volume_measure(tree, np.zeros((3, 2)), params)
    p_equal = probs[config_index((1, 1, 1, 1), 3)]
    p_rainbow = probs[config_index((1, 2, 3, 2), 3)]
    assert p_equal / p_rainbow == pytest.approx(0.5**3, rel=1e-13)


def test_measure_normalization_and_positivity():
    rng = np.random.default_rng(5)
    cases = [(2, 2, 2, 0.3), (3, 2, 2, 0.5), (4, 2, 1, 1.7), (3, 3, 1, 0.25)]
    for q, k, n, theta in cases:
        tree = build_tree(k, n)
        params = ModelParams.from_theta(k, q, theta)
        H = rng.uniform(-1.5, 1.5, size=(len(sphere(tree, n)), q - 1))
        probs = finite_volume_measure(tree, H, params)
        assert (probs > 0).all()
        assert abs(float(probs.sum()) - 1.0) <= 1e-12


def test_measure_matches_independent_oracle():
    tree = build_tree(2, 2)
    params = ModelParams.from_theta(2, 3, 0.5)
    rng = np.random.default_rng(7)
    H = rng.uniform(-1.0, 1.0, size=(6, 2))
    probs = finite_volume_measure(tree, H, params)
    expected = measure_oracle(tree, H, params)
    assert np.max(np.abs(probs - np.array(expected))) <= 1e-12


def naive_measure(tree, boundary_fields, params):
    """Configuration-by-configuration weights, summed with np.sort: the
    arithmetic finite_volume_measure must reproduce bit for bit."""
    q, n = params.q, tree.n_vertices
    parent, _ = bfs_oracle(tree.k, tree.depth)
    idx = np.arange(q**n, dtype=np.int64)
    digit = [(idx // q**v) % q for v in range(n)]
    mono = np.zeros(q**n, dtype=np.int64)
    for v in range(1, n):
        mono += digit[parent[v]] == digit[v]
    boundary = np.zeros(q**n)
    for row, v in enumerate(sphere(tree, tree.depth)):
        boundary += np.append(boundary_fields[row], 0.0)[digit[v]]
    logw = math.log(params.theta) * mono + boundary
    logw -= logw.max()
    w = np.exp(logw)
    return w / float(np.sort(w).sum())


@pytest.mark.parametrize("k,q,n", [(2, 3, 0), (5, 4, 0), (1, 2, 6),
                                   (1, 3, 3), (2, 2, 2), (2, 3, 2),
                                   (3, 2, 2), (2, 4, 1), (2, 5, 1)])
@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
def test_measure_bit_identical_to_naive_enumeration(k, q, n, theta):
    tree = build_tree(k, n)
    params = ModelParams.from_theta(k, q, theta)
    rng = np.random.default_rng([k, q, n])
    H = rng.uniform(-2.0, 2.0, size=(len(sphere(tree, n)), q - 1))
    probs = finite_volume_measure(tree, H, params)
    assert np.array_equal(probs, naive_measure(tree, H, params))
    assert not probs.flags.writeable


def assert_narrowest_types(k, depth, q):
    # every depth's mono counts, groups and split in the narrowest type
    # that holds their largest value; the counts, which the partition sum
    # subtracts from, in intp
    for d in range(depth + 1):
        mono, group, counts, split = _enum_tables(k, d, q)
        for a in (mono, group, split):
            assert a.dtype == np.min_scalar_type(a.max())
        assert counts.dtype == np.intp


@pytest.mark.parametrize("k,depth,q", [(2, 1, 4), (2, 2, 2), (2, 3, 2),
                                       (2, 2, 4)])
def test_measure_tables_match_whole_array_rebuild(k, depth, q):
    # 164 and 404 cells: uint8 and uint16 cell indices; 2^22 and 4^10
    # configurations: past what the naive enumeration reaches
    *cells, split = _enum_tables(k, depth, q)
    *whole_cells, whole_map = enum_tables_whole(k, depth, q)
    for a, b in zip(cells, whole_cells):
        assert np.array_equal(a, b)
    assert_narrowest_types(k, depth, q)
    # one row per boundary configuration, one column per inner cell
    n_boundary = len(sphere(build_tree(k, depth), depth))
    assert split.shape == (q**n_boundary, len(_enum_tables(k, depth - 1, q)[0]))
    assert split.flags.c_contiguous
    cell = _cell_map(k, depth, q)
    assert cell.dtype == split.dtype and np.array_equal(cell, whole_map)


def test_enum_tables_past_65536_cells():
    # (k, depth, q) = (2, 2, 5): 105,900 cells, so split needs uint32
    try:
        assert _enum_tables(2, 2, 5)[3].dtype == np.uint32
        assert_narrowest_types(2, 2, 5)
    finally:
        _enum_tables.cache_clear()  # its split alone holds 19 MB


# perfbench's oracle shapes (k, q, n)
ORACLE_SHAPES = [(2, 3, 2), (3, 2, 2), (2, 4, 2), (2, 2, 3)]


def test_enum_tables_cache_holds_the_oracle_traffic():
    def check_each_shape():
        for k, q, n in ORACLE_SHAPES:
            tree = build_tree(k, n)
            params = ModelParams.from_theta(k, q, 0.5)
            leaf = np.zeros((len(sphere(tree, n)), q - 1))
            check_consistency(tree, propagate_fields(tree, leaf, params),
                              params)

    _enum_tables.cache_clear()
    check_each_shape()
    info = _enum_tables.cache_info()
    # every depth of each shape down to 0, and no more than fits
    assert info.currsize == info.maxsize == sum(n + 1 for *_, n in ORACLE_SHAPES)
    check_each_shape()
    # in the narrowest integer types the 13 entries hold 6,213,160 bytes
    # (64-bit intp): at most half of 12,655,600, their size with int32
    # split tables and intp cell arrays
    held = sum(a.nbytes for k, q, n in ORACLE_SHAPES for d in range(n + 1)
               for a in _enum_tables(k, d, q))
    assert _enum_tables.cache_info().misses == info.misses
    assert held <= 12_655_600 // 2


@pytest.mark.parametrize("total", [1, 7, 8, 128, 129, _SLICE - 1, _SLICE,
                                   _SLICE + 1, 3 * _SLICE + 5, 3**10, 4**10,
                                   2**22])
def test_measure_partition_sum_bit_identical_to_repeat_sum(total):
    rng = np.random.default_rng(total)
    # one run of every term (longer than a slice once total > _SLICE),
    # three runs and many short runs
    longest = 0
    for n_runs in (1, 3, 1000):
        cuts = np.unique(rng.integers(1, total, n_runs - 1)) if total > 1 else []
        counts = np.diff(np.concatenate([[0], cuts, [total]])).astype(np.intp)
        w = np.sort(rng.uniform(0.0, 1.0, len(counts))
                    * 10.0 ** rng.integers(-12, 1, len(counts)))
        z = _repeat_sum(w, counts)
        assert type(z) is float
        assert z == float(np.repeat(w, counts).sum())
        longest = max(longest, counts.max())
    assert longest == total


def test_measure_permutation_equivariance():
    # relabeling the spin states and the field components together leaves
    # every probability unchanged
    tree = build_tree(2, 1)
    params = ModelParams.from_theta(2, 3, 0.7)
    rng = np.random.default_rng(13)
    H = rng.uniform(-1.0, 1.0, size=(3, 2))
    perm = (2, 3, 1)  # state s -> perm[s-1]

    full = np.hstack([H, np.zeros((3, 1))])
    permuted_full = np.empty_like(full)
    for s in range(3):
        permuted_full[:, perm[s] - 1] = full[:, s]
    H2 = permuted_full[:, :2] - permuted_full[:, 2:3]  # restore the gauge

    p1 = finite_volume_measure(tree, H, params)
    p2 = finite_volume_measure(tree, H2, params)
    for idx in range(len(p1)):
        spins = config_at(idx, tree.n_vertices, 3)
        relabeled = tuple(perm[s - 1] for s in spins)
        assert p2[config_index(relabeled, 3)] == pytest.approx(
            p1[idx], rel=1e-12)


def test_measure_guard():
    tree = build_tree(2, 3)  # 22 vertices, 3^22 >> guard
    params = ModelParams.from_theta(2, 3, 0.5)
    assert 3**tree.n_vertices > ENUMERATION_GUARD
    with pytest.raises(EnumerationLimitError):
        finite_volume_measure(tree, np.zeros((12, 2)), params)


def test_measure_validation():
    tree = build_tree(2, 1)
    params = ModelParams.from_theta(2, 3, 0.5)
    with pytest.raises(ValueError):
        finite_volume_measure(tree, np.zeros((3, 1)), params)
    with pytest.raises(ValueError):
        finite_volume_measure(tree, np.full((3, 2), np.inf), params)


def test_overflowing_boundary_weights_raise_not_warn():
    # three boundary fields of 1e308 sum past DBL_MAX: the named error,
    # not numpy's overflow warning, reaches the caller
    tree = build_tree(2, 1)
    params = ModelParams.from_theta(2, 3, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite configuration weight"):
            finite_volume_measure(tree, np.full((3, 2), 1e308), params)
        with pytest.raises(ValueError, match="non-finite configuration weight"):
            check_consistency(tree, np.full((4, 2), 1e308), params)


# ------------------------------------------------------------- propagate


def test_propagate_zero_fields():
    tree = build_tree(2, 2)
    params = ModelParams.from_theta(2, 3, 0.5)
    fields = propagate_fields(tree, np.zeros((6, 2)), params)
    assert np.max(np.abs(fields)) <= 1e-15


def test_propagate_equal_leaves_root_triple():
    tree = build_tree(2, 1)
    params = ModelParams.from_theta(2, 3, 0.5)
    h0 = np.array([0.3, -0.2])
    fields = propagate_fields(tree, np.tile(h0, (3, 1)), params)
    assert np.array_equal(fields[0], 3.0 * f_map(h0, params))
    assert np.array_equal(fields[1], h0)


# children are added in turn for every q: k >= 7 gives the root 8 or more
# children and k >= 8 every parent, which for q = 2 (one component per
# child) numpy's pairwise sum over the children would add in another order
@pytest.mark.parametrize("k,q,n", [(2, 3, 2), (1, 3, 5), (3, 3, 4),
                                   (2, 5, 3), (3, 2, 3), (9, 3, 2),
                                   (9, 10, 2), (16, 4, 2), (7, 2, 1),
                                   (8, 2, 2), (16, 2, 2)])
def test_propagate_matches_handrolled_recursion(k, q, n):
    tree = build_tree(k, n)
    params = ModelParams.from_theta(k, q, 0.8)
    rng = np.random.default_rng(19)
    leaf = rng.uniform(-2, 2, size=(len(sphere(tree, n)), q - 1))
    fields = propagate_fields(tree, leaf, params)

    # bottom-up dict recursion, children looked up by parent scan
    parent, _ = bfs_oracle(k, n)
    expected = {int(v): leaf[i] for i, v in enumerate(sphere(tree, n))}
    for v in range(tree.n_vertices - 1, -1, -1):
        kids = [u for u in range(tree.n_vertices) if parent[u] == v]
        if kids:
            expected[v] = sum(f_map(expected[u], params) for u in kids)
    for v in range(tree.n_vertices):
        assert np.array_equal(fields[v], expected[v])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_propagate_calls_f_map_once_per_generation(monkeypatch, k, n):
    # the benchmark's traced run wraps the module global f_map, as here,
    # so the recursion must reach its one call per generation through it
    rows = []

    def counting(h, params):
        rows.append(len(h))
        return f_map(h, params)

    monkeypatch.setattr("cayley_potts.potts.f_map", counting)
    tree = build_tree(k, n)
    params = ModelParams.from_theta(k, 3, 0.8)
    leaf = np.random.default_rng(5).uniform(-2, 2, (len(sphere(tree, n)), 2))
    fields = propagate_fields(tree, leaf, params)
    assert rows == [len(sphere(tree, m)) for m in range(n, 0, -1)]
    # stored component-major: each component is one contiguous row, so
    # the children are summed as whole rows and not by a strided reduction
    assert fields.shape == (tree.n_vertices, 2)
    assert fields.T.flags.c_contiguous


def test_propagate_validation():
    tree = build_tree(2, 2)
    params = ModelParams.from_theta(2, 3, 0.5)
    with pytest.raises(ValueError):
        propagate_fields(tree, np.zeros((5, 2)), params)
    # a depth-0 tree runs no f_map, so this check alone refuses the NaN
    with pytest.raises(ValueError, match="leaf field components must be "
                                         "finite"):
        propagate_fields(build_tree(2, 0), [[np.nan, 0.0]], params)


def test_params_k_must_match_the_tree():
    tree = build_tree(2, 2)
    fields = propagate_fields(tree, np.zeros((6, 2)),
                              ModelParams.from_theta(2, 3, 0.5))
    params = ModelParams.from_theta(7, 3, 0.5)
    with pytest.raises(ValueError, match=r"params\.k=7 .*tree\.k=2"):
        propagate_fields(tree, np.zeros((6, 2)), params)
    with pytest.raises(ValueError, match=r"params\.k=7 .*tree\.k=2"):
        finite_volume_measure(tree, np.zeros((6, 2)), params)
    with pytest.raises(ValueError, match=r"params\.k=7 .*tree\.k=2"):
        check_consistency(tree, fields, params)


# ------------------------------------------------------------ consistency


def test_consistency_propagated_fields_pass():
    tree = build_tree(2, 2)
    params = ModelParams.from_theta(2, 3, 0.5)
    rng = np.random.default_rng(23)
    fields = propagate_fields(tree, rng.uniform(-2, 2, (6, 2)), params)
    assert check_consistency(tree, fields, params) <= 1e-12


def test_consistency_perturbed_fields_fail():
    tree = build_tree(2, 2)
    params = ModelParams.from_theta(2, 3, 0.5)
    rng = np.random.default_rng(23)
    fields = propagate_fields(tree, rng.uniform(-2, 2, (6, 2)), params)
    fields = fields.copy()
    fields[int(sphere(tree, 1)[0]), 0] += 0.3
    assert check_consistency(tree, fields, params) > 1e-3


def test_consistency_theta_one_decouples():
    # at theta=1 the recursion output is identically zero, so zero interior
    # fields are consistent with any leaf fields
    tree = build_tree(2, 2)
    params = ModelParams.from_theta(2, 3, 1.0)
    rng = np.random.default_rng(29)
    fields = np.zeros((tree.n_vertices, 2))
    fields[sphere(tree, 2)] = rng.uniform(-2, 2, (6, 2))
    assert check_consistency(tree, fields, params) <= 1e-12


@pytest.mark.parametrize("k,q,n", [(2, 3, 2), (3, 2, 2), (2, 4, 2),
                                   (2, 2, 3), (2, 3, 1), (1, 2, 7),
                                   (2, 5, 1), (3, 3, 1)])
@pytest.mark.parametrize("perturb", [0.0, 0.3])
def test_consistency_bit_identical_to_full_marginal(k, q, n, perturb):
    tree = build_tree(k, n)
    params = ModelParams.from_theta(k, q, 0.7)
    rng = np.random.default_rng([k, q, n])
    leaf = rng.uniform(-2, 2, (len(sphere(tree, n)), q - 1))
    fields = propagate_fields(tree, leaf, params)
    fields[sphere(tree, n - 1).start, 0] += perturb
    violation = check_consistency(tree, fields, params)
    assert type(violation) is float
    assert violation == consistency_whole(tree, fields, params)
    assert (violation > 1e-4) if perturb else (violation <= 1e-12)


def test_consistency_and_measure_leave_no_garbage_cycle():
    tree = build_tree(2, 3)
    params = ModelParams.from_theta(2, 2, 0.7)
    fields = propagate_fields(tree, np.zeros((12, 1)), params)
    gc.collect()
    gc.disable()
    try:
        check_consistency(tree, fields, params)
        finite_volume_measure(tree, fields[sphere(tree, 3)], params)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_consistency_validation():
    tree = build_tree(2, 0)
    params = ModelParams.from_theta(2, 3, 0.5)
    with pytest.raises(ValueError):
        check_consistency(tree, np.zeros((1, 2)), params)
    tree = build_tree(2, 1)
    with pytest.raises(ValueError):
        check_consistency(tree, np.zeros((3, 2)), params)
