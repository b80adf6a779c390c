"""q=3 parity structure: the 4-component map, scalar reduction, and
the critical activity."""

import math
import warnings

import numpy as np
import pytest

from cayley_potts.period2 import (DomainError, domain_bounds, f_scalar,
                                  h_scalar, period2_map, sign_relation_check,
                                  theta_cr)
from helpers import (descartes_positive_root_bound, g_scalar, h_prime,
                     p_coefficients)

# frozen extended-precision values (60 decimal digits, two methods agreeing)
F_AT_2 = 0.4754428983909113        # f(2), theta=0.1, k=3
G_AT_2 = 0.6155669670169225        # g(2), theta=0.1, k=3
H_AT_2 = -0.2582969534400262       # h(2), theta=0.1, k=3
HP_AT_08 = -0.7090360778376904     # h'(0.8), theta=0.1, k=3
HP_AT_12 = -0.3687696062598352     # h'(1.2), theta=0.1, k=3
HP_AT_1 = -0.5079365079365079      # h'(1) = -32/63, theta=0.1, k=3
X0_GOLDEN = 0.19649931210530602    # smaller orbit root, theta=0.1, k=3
X2_GOLDEN = 15.011479580653047     # larger orbit root, theta=0.1, k=3


# ---------------------------------------------------------------- theta_cr


def test_theta_cr_values():
    assert theta_cr(3) == 0.25
    assert theta_cr(4) == (4 - 2) / (4 + 1)
    assert theta_cr(4) == pytest.approx(0.4, abs=0)
    assert theta_cr(10) == 8 / 11


def test_theta_cr_monotone_to_one():
    values = [theta_cr(k) for k in range(3, 21)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(0 < v < 1 for v in values)


def test_theta_cr_rejects_small_or_non_integer_k():
    with pytest.raises(ValueError):
        theta_cr(2)
    with pytest.raises(ValueError):
        theta_cr(3.0)


# ------------------------------------------------------------------ domain


def test_domain_bounds_values():
    t1, t2 = domain_bounds(0.1, 3)
    assert t1 == pytest.approx(0.55**3, rel=1e-15)
    assert t2 == pytest.approx(1000.0, rel=1e-12)


@pytest.mark.parametrize("theta, k", [(0.01, 200), (0.01, np.int64(200)),
                                      (np.float64(0.01), np.int32(200))],
                         ids=["int", "np.int64", "np.float64-np.int32"])
def test_domain_overflow_is_named_for_numpy_scalars(theta, k):
    # numpy scalar powers return inf with a RuntimeWarning; the endpoints
    # are computed on plain floats so every caller meets the same error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"theta=0\.01, k=200"):
            domain_bounds(theta, k)
        bounds = domain_bounds(np.float64(0.1), np.int64(3))
    assert bounds == domain_bounds(0.1, 3)
    assert all(type(b) is float for b in bounds)


def test_domain_straddles_one():
    for theta in (0.05, 0.2, 0.5, 0.9):
        t1, t2 = domain_bounds(theta, 3)
        assert t1 < 1 < t2


# ------------------------------------------------------------- period2_map


def test_map_fixes_symmetric_point():
    for theta in (0.1, 0.5, 1.0, 3.0):
        out = period2_map(np.ones(4), theta, 3)
        assert np.array_equal(out, np.ones(4))


def test_map_restriction_to_invariant_set():
    rng = np.random.default_rng(31)
    for _ in range(100):
        x, y = np.exp(rng.uniform(-3, 3, 2))
        theta = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        k = int(rng.integers(1, 10))
        out = period2_map(np.array([x, x, y, y]), theta, k)
        # shared denominators make the paired components identical, not
        # merely close
        assert out[0] == out[1]
        assert out[2] == out[3]
        assert out[0] == pytest.approx(f_scalar(y, theta, k), rel=1e-14)
        assert out[2] == pytest.approx(f_scalar(x, theta, k), rel=1e-14)


def test_map_golden_point():
    out = period2_map(np.array([2.0, 1.0, 1.0, 3.0]), 0.5, 3)
    expected = np.array([1.0, 343 / 729, 216 / 343, 1.0])
    assert np.max(np.abs(out - expected)) <= 1e-15


def test_map_validation():
    with pytest.raises(ValueError):
        period2_map(np.array([1.0, 1.0, 1.0]), 0.5, 3)
    with pytest.raises(ValueError):
        period2_map(np.array([1.0, -1.0, 1.0, 1.0]), 0.5, 3)
    with pytest.raises(ValueError):
        period2_map(np.ones(4), -0.5, 3)


def test_map_leaving_float_range_raises():
    # ratio 1/theta = 10 to the 400th overflows; theta^400 underflows to 0
    with pytest.raises(OverflowError):
        period2_map(np.full(4, 1e-20), 0.1, 400)
    with pytest.raises(OverflowError):
        period2_map(np.array([1.0, 1.0, 1e200, 1.0]), 0.1, 400)


# ---------------------------------------------------------- sign relations


def test_sign_relations_example():
    z_in = np.array([1.0, 1.0, 2.0, 1.0])
    z_out = period2_map(z_in, 0.5, 3)
    a, b, c = sign_relation_check(z_in, z_out, 0.5)
    assert a and b and c
    assert z_out[0] < z_out[1]  # z3 > z4 forces the reversal


def test_sign_relations_on_invariant_set():
    z_in = np.array([0.7, 0.7, 2.0, 2.0])
    z_out = period2_map(z_in, 0.3, 4)
    assert sign_relation_check(z_in, z_out, 0.3) == (True, True, True)


def test_sign_relations_randomized():
    rng = np.random.default_rng(37)
    for _ in range(500):
        k = int(rng.integers(1, 9))
        theta = float(rng.uniform(1e-3, 1 - 1e-3))
        z = np.exp(rng.uniform(-4, 4, 4))
        out = period2_map(z, theta, k)
        assert sign_relation_check(z, out, theta) == (True, True, True)


def test_sign_relations_regime_guard():
    z = np.ones(4)
    with pytest.raises(ValueError):
        sign_relation_check(z, z, 1.0)
    with pytest.raises(ValueError):
        sign_relation_check(z, z, -0.2)
    with pytest.raises(ValueError, match="must have 4 components"):
        sign_relation_check(z[:3], z, 0.5)


# ---------------------------------------------------------------- scalars


def test_f_fixes_one():
    for theta in (0.05, 0.3, 0.9, 2.0):
        for k in (1, 3, 7):
            assert f_scalar(1.0, theta, k) == 1.0


def test_f_refuses_zero_and_infinite_x():
    for x in (0.0, math.inf):
        with pytest.raises(ValueError, match="x must be positive and finite"):
            f_scalar(x, 0.1, 3)


def test_f_large_x_limit():
    t1, _ = domain_bounds(0.1, 3)
    assert f_scalar(1e12, 0.1, 3) == pytest.approx(t1, rel=1e-10)


def test_f_golden_and_monotone():
    assert f_scalar(2.0, 0.1, 3) == pytest.approx(F_AT_2, rel=1e-14)
    xs = np.geomspace(0.01, 100, 50)
    vals = [f_scalar(float(x), 0.1, 3) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("theta, k", [(0.01, 200), (0.01, np.int64(200)),
                                      (np.float64(0.01), np.int32(200))],
                         ids=["int", "np.int64", "np.float64-np.int32"])
def test_f_overflow_is_named_for_numpy_scalars(theta, k):
    # f and theta_cr compute on plain floats, as domain_bounds does, so a
    # numpy scalar meets the named error and returns a plain float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError,
                           match=r"x=0\.001, theta=0\.01, k=200"):
            f_scalar(1e-3, theta, k)
        value = f_scalar(np.float64(0.5), theta, k)
        t_cr = theta_cr(k)
    assert type(value) is float and value == f_scalar(0.5, 0.01, 200)
    assert type(t_cr) is float and t_cr == theta_cr(200)


def test_g_fixes_one_and_golden():
    assert g_scalar(1.0, 0.1, 3) == pytest.approx(1.0, abs=1e-15)
    assert g_scalar(2.0, 0.1, 3) == pytest.approx(G_AT_2, rel=1e-14)


def test_g_inverts_f():
    for x in (0.5, 2.0, 7.0):
        assert g_scalar(f_scalar(x, 0.1, 3), 0.1, 3) == pytest.approx(
            x, rel=1e-12)
        assert f_scalar(g_scalar(x, 0.1, 3), 0.1, 3) == pytest.approx(
            x, rel=1e-12)


def test_g_vanishes_at_upper_endpoint():
    _, t2 = domain_bounds(0.1, 3)
    vals = [g_scalar(t2 * (1 - eps), 0.1, 3) for eps in (1e-4, 1e-6, 1e-8)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-8


def test_g_domain_errors():
    t1, t2 = domain_bounds(0.1, 3)
    with pytest.raises(DomainError):
        g_scalar(t1 * 0.99, 0.1, 3)
    with pytest.raises(DomainError):
        g_scalar(t2 * 1.01, 0.1, 3)
    with pytest.raises(DomainError):
        g_scalar(1.0, 1.2, 3)  # g needs the antiferromagnetic regime
    with pytest.raises(DomainError):
        g_scalar(0.0, 0.1, 3)
    with pytest.raises(DomainError):
        g_scalar(-1.0, 0.1, 3)
    with pytest.raises(ValueError) as info:
        g_scalar(math.nan, 0.1, 3)
    assert not isinstance(info.value, DomainError)


def test_kernel_needs_no_theta_power():
    # theta^-k = 1e400 leaves the float range, but x = 1 lies deep inside
    # the domain and g, h, h' there need no endpoint
    theta, k = 0.01, 200
    assert g_scalar(1.0, theta, k) == pytest.approx(1.0, rel=1e-15)
    assert abs(h_scalar(1.0, theta, k)) <= 1e-15
    slope = h_prime(1.0, theta, k)
    assert math.isfinite(slope) and slope < 0  # theta < theta_cr(200)


def test_h_root_at_one_and_golden():
    assert abs(h_scalar(1.0, 0.1, 3)) <= 1e-15
    assert h_scalar(2.0, 0.1, 3) == pytest.approx(H_AT_2, rel=1e-14)
    # both orbit members are roots of h
    assert abs(h_scalar(X0_GOLDEN, 0.1, 3)) <= 1e-13
    assert abs(h_scalar(X2_GOLDEN, 0.1, 3)) <= 1e-13


def test_h_prime_goldens():
    assert h_prime(0.8, 0.1, 3) == pytest.approx(HP_AT_08, rel=1e-13)
    assert h_prime(1.2, 0.1, 3) == pytest.approx(HP_AT_12, rel=1e-13)
    assert h_prime(1.0, 0.1, 3) == pytest.approx(HP_AT_1, rel=1e-13)


def test_h_prime_matches_finite_difference():
    t1, t2 = domain_bounds(0.1, 3)
    for x in np.geomspace(t1 * (1 + 1e-3), t2 * (1 - 1e-3), 40):
        x = float(x)
        s = 1e-6 * x
        fd = (h_scalar(x + s, 0.1, 3) - h_scalar(x - s, 0.1, 3)) / (2 * s)
        an = h_prime(x, 0.1, 3)
        assert abs(fd - an) <= 1e-6 * abs(an)


def test_h_prime_sign_at_one_flips_at_threshold():
    for k in (3, 4, 5):
        t_cr = theta_cr(k)
        for theta in (0.05, 0.5 * t_cr, 0.9 * t_cr):
            assert h_prime(1.0, theta, k) < 0
        assert h_prime(1.0, min(1.5 * t_cr, 0.95), k) > 0


def test_h_prime_positive_near_endpoints():
    for k in (3, 4, 5):
        for theta in (0.05, 0.5 * theta_cr(k)):
            t1, t2 = domain_bounds(theta, k)
            assert h_prime(t1 * (1 + 1e-4), theta, k) > 0
            assert h_prime(t2 * (1 - 1e-4), theta, k) > 0


# h_scalar's argument checks and their exact messages: a bad k, theta or x
# is a ValueError, and only a valid argument outside g's domain is a
# DomainError
H_BAD_ARGS = [
    ((1.0, 0.1, 0), ValueError, "k must be an integer >= 1, got 0"),
    ((1.0, 0.1, True), ValueError, "k must be an integer >= 1, got True"),
    ((1.0, 0.1, 2.0), ValueError, "k must be an integer >= 1, got 2.0"),
    ((1.0, 0, 3), ValueError, "theta must be positive and finite, got 0"),
    ((1.0, -0.1, 3), ValueError,
     "theta must be positive and finite, got -0.1"),
    ((1.0, math.inf, 3), ValueError,
     "theta must be positive and finite, got inf"),
    ((1.0, math.nan, 3), ValueError,
     "theta must be positive and finite, got nan"),
    ((math.nan, 0.1, 3), ValueError, "x must be finite, got nan"),
    ((math.inf, 0.1, 3), ValueError, "x must be finite, got inf"),
    ((-math.inf, 0.1, 3), ValueError, "x must be finite, got -inf"),
    ((math.nan, 1.5, 3), ValueError, "x must be finite, got nan"),
    ((1.0, 1.0, 3), DomainError, "inverse map needs theta < 1, got theta=1.0"),
    ((1.0, 1.5, 3), DomainError, "inverse map needs theta < 1, got theta=1.5"),
    ((0.0, 0.1, 3), DomainError, "x must be positive, got 0.0"),
    ((-1.0, 0.1, 3), DomainError, "x must be positive, got -1.0"),
    ((0.16471125000000006, 0.1, 3), DomainError,
     "x=0.16471125000000006 outside the open interval "
     "(((theta+1)/2)^k, theta^-k) at theta=0.1, k=3"),
    ((1009.9999999999999, 0.1, 3), DomainError,
     "x=1009.9999999999999 outside the open interval "
     "(((theta+1)/2)^k, theta^-k) at theta=0.1, k=3"),
]


@pytest.mark.parametrize("args, error, message", H_BAD_ARGS)
def test_h_argument_errors_and_messages(args, error, message):
    with pytest.raises(ValueError) as info:
        h_scalar(*args)
    assert type(info.value) is error
    assert str(info.value) == message


def test_h_numpy_scalars_give_the_plain_bits():
    # 4 activities x 12 points
    for theta, k in [(0.1, 3), (0.2, 4), (0.05, 10), (0.9, 50)]:
        t1, t2 = domain_bounds(theta, k)
        for x in np.geomspace(t1 * (1 + 1e-6), t2 * (1 - 1e-6), 12):
            x = float(x)
            plain = h_scalar(x, theta, k)
            assert type(plain) is float
            for args in [(np.float64(x), theta, k),
                         (x, np.float64(theta), k),
                         (x, theta, np.int64(k)),
                         (np.float64(x), np.float64(theta), np.int64(k))]:
                assert float(h_scalar(*args)).hex() == plain.hex(), \
                    (theta, k, x, args)


# ------------------------------------------------------------- polynomial


def test_p_coefficients_structure():
    coeffs = p_coefficients(0.5, 3)
    assert set(coeffs) == {6, 4, 3, 2, 0}
    assert coeffs[6] == pytest.approx(2 * 1.5)
    assert coeffs[4] == pytest.approx(2 * 0.5 * 9)
    assert coeffs[3] == pytest.approx(-8 * (0.25 + 0.5 + 2))
    assert coeffs[2] == pytest.approx(9 * 1.5)
    assert coeffs[0] == 0.5


def test_p_coefficient_signs():
    for theta in (0.05, 0.25, 0.7, 0.99):
        for k in (3, 5, 12):
            coeffs = p_coefficients(theta, k)
            degrees = sorted(coeffs, reverse=True)
            signs = [math.copysign(1, coeffs[d]) for d in degrees]
            assert signs == [1, 1, -1, 1, 1]


def test_p_value_at_one():
    theta, k = 0.1, 3
    coeffs = p_coefficients(theta, k)
    direct = (2 * (theta + 1) + 2 * theta * k**2
              - (k**2 - 1) * (theta**2 + theta + 2)
              + k**2 * (theta + 1) + theta)
    assert sum(coeffs.values()) == pytest.approx(direct, rel=1e-15)


def test_p_rejects_bad_args():
    with pytest.raises(ValueError):
        p_coefficients(0.5, 2)
    with pytest.raises(ValueError):
        p_coefficients(-0.5, 3)


# -------------------------------------------------------------- descartes


def test_descartes_on_p_is_two():
    for theta in np.linspace(0.02, 0.98, 25):
        for k in range(3, 13):
            assert descartes_positive_root_bound(
                p_coefficients(float(theta), k)) == 2


def test_descartes_simple_cases():
    assert descartes_positive_root_bound({2: 1.0, 1: 1.0, 0: 1.0}) == 0
    assert descartes_positive_root_bound(
        {3: 1.0, 2: -1.0, 1: 1.0, 0: -1.0}) == 3
    # zero coefficients are skipped, not counted
    assert descartes_positive_root_bound({3: 1.0, 2: 0.0, 0: -1.0}) == 1


def test_descartes_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        descartes_positive_root_bound({2: 0.0, 0: 0.0})
    with pytest.raises(ValueError):
        descartes_positive_root_bound({})
