"""Closed-form constants against their exact values and cross-identities."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special as scipy_special

from stabpp import special as sp
from stabpp.experiments import DEFAULT_T_GRID

# exact values of the limiting variance constant for the binomial case
V_EXACT = {
    1.0: 1.0 / 6.0,
    2.0: 85.0 / 108.0,
    3.0: 149.0 / 18.0,
    4.0: 135793.0 / 972.0,
}
# exact squared Poisson-excess coefficients
D2_EXACT = {
    0.5: math.pi / 32.0,
    1.0: 0.0,
    2.0: 0.25,
    3.0: 2.25,
    4.0: 20.25,
}


def _finite_sum_2f1(a, b, c, z, n_terms):
    # same term recurrence as the production series, summed to a fixed length
    total = 1.0
    term = 1.0
    for n in range(n_terms):
        term *= (a + n) * (b + n) / (c + n) * z / (n + 1)
        total += term
    return total


class TestGauss2F1:
    """The private series behind v_alpha, on arguments with known sums."""

    def test_empty_sum(self):
        assert sp._gauss_2f1(2.3, -1.7, 0.4, 0.0) == 1.0

    def test_terminating(self):
        # 1 + a b / c * z = 1 - 2/9
        assert sp._gauss_2f1(-1, 2, 3, 1.0 / 3.0) == pytest.approx(7.0 / 9.0, rel=1e-15)

    def test_log_identity(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        z = 1.0 / 3.0
        assert sp._gauss_2f1(1, 1, 2, z) == pytest.approx(-math.log(1 - z) / z, rel=1e-13)
        assert sp._gauss_2f1(1, 1, 2, z) == pytest.approx(1.2163953243244932, rel=1e-13)

    @given(
        m=st.integers(min_value=0, max_value=8),
        b=st.floats(min_value=0.25, max_value=5.0),
        c=st.floats(min_value=0.25, max_value=5.0),
        z=st.floats(min_value=-0.9, max_value=0.9),
    )
    def test_terminating_equals_finite_sum(self, m, b, c, z):
        # nonpositive-integer a terminates after m+1 terms; identical arithmetic
        val = sp._gauss_2f1(-float(m), b, c, z)
        assert val == _finite_sum_2f1(-float(m), b, c, z, m)

    def test_pole_avoided_by_termination(self):
        # a = -1 terminates before c = -2 is consumed
        assert sp._gauss_2f1(-1.0, 1.0, -2.0, 0.5) == pytest.approx(1.0 + 0.5 / 2.0)


class TestVAlpha:
    @pytest.mark.parametrize("alpha,expected", sorted(V_EXACT.items()))
    def test_exact_values(self, alpha, expected):
        assert sp.v_alpha(alpha) == pytest.approx(expected, rel=1e-12)

    def test_half_closed_form(self):
        closed = 0.5 + math.sqrt(2.0) * math.asin(1.0 / math.sqrt(3.0)) - 13.0 * math.pi / 32.0
        assert sp.v_alpha(0.5) == pytest.approx(closed, rel=1e-12)
        assert sp.v_alpha(0.5) == pytest.approx(0.094148, abs=5e-7)

    def test_positive_on_grid(self):
        for alpha in np.linspace(0.04, 4.0, 100):
            assert sp.v_alpha(float(alpha)) > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            sp.v_alpha(0.0)


class TestDeltaAlpha:
    def test_zero_at_one(self):
        assert sp.delta_alpha(1.0) == 0.0

    def test_signed_values(self):
        assert sp.delta_alpha(2.0) == pytest.approx(-0.5, rel=1e-13)
        assert sp.delta_alpha(0.5) == pytest.approx(
            math.sqrt(math.pi) / (4.0 * math.sqrt(2.0)), rel=1e-13)

    @pytest.mark.parametrize("alpha,expected", sorted(D2_EXACT.items()))
    def test_squared_exact_values(self, alpha, expected):
        if expected == 0.0:
            assert sp.delta_alpha_sq(alpha) == pytest.approx(0.0, abs=1e-12)
        else:
            assert sp.delta_alpha_sq(alpha) == pytest.approx(expected, rel=1e-12)

    @given(alpha=st.floats(min_value=1e-3, max_value=50.0))
    def test_sign_matches_one_minus_alpha(self, alpha):
        d = sp.delta_alpha(alpha)
        if alpha == 1.0:
            assert d == 0.0
        else:
            assert math.copysign(1.0, d) == math.copysign(1.0, 1.0 - alpha)


class TestLimits:
    def test_exp_moment(self):
        assert sp.exp_moment(1.0) == pytest.approx(0.5, rel=1e-14)
        assert sp.exp_moment(2.0) == pytest.approx(0.5, rel=1e-14)
        with pytest.raises(ValueError):
            sp.exp_moment(0.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    @pytest.mark.parametrize("constant", ["exp_moment", "delta_alpha", "v_alpha"])
    def test_non_finite_alpha_is_refused(self, constant, alpha):
        # each would return nan rather than a constant
        with pytest.raises(ValueError, match="positive and finite"):
            getattr(sp, constant)(alpha)

    @pytest.mark.parametrize("alpha, overflows", [
        (85.0, {"v_alpha"}),
        (120.0, {"v_alpha", "delta_alpha_sq"}),
        (171.0, {"v_alpha", "exp_moment", "delta_alpha", "delta_alpha_sq"}),
    ])
    def test_overflow_names_the_exponent(self, alpha, overflows):
        # Gamma(2 + 2 alpha) overflows a double from alpha ~ 84.8, the square
        # of delta_alpha from ~ 113.7 and Gamma(1 + alpha) from ~ 170.6;
        # math.gamma itself raises a bare range error
        for constant in ("v_alpha", "exp_moment", "delta_alpha", "delta_alpha_sq"):
            if constant in overflows:
                with pytest.raises(ValueError, match=f"overflows a double at "
                                                     f"weight exponent {alpha:g}"):
                    getattr(sp, constant)(alpha)
            else:
                assert math.isfinite(getattr(sp, constant)(alpha))

    def test_v1_consistency_identity(self):
        # binds gamma, the hypergeometric series, and the arithmetic at once
        assert sp.v_alpha(1.0) == pytest.approx(1.0 / 6.0, rel=1e-12)


def _ulps_around(x, count=8):
    """x and its ``count`` nearest doubles on each side."""
    below, above, out = x, x, [x]
    for _ in range(count):
        below = np.nextafter(below, -np.inf)
        above = np.nextafter(above, np.inf)
        out += [below, above]
    return out


class TestNdtr:
    """The numpy Phi must return the very doubles scipy's Cephes ndtr does."""

    def assert_bit_exact(self, a):
        a = np.asarray(a, dtype=float)
        ours, ref = sp.ndtr(a), scipy_special.ndtr(a)
        assert np.array_equal(ours, ref, equal_nan=True)
        assert np.array_equal(np.signbit(ours), np.signbit(ref))

    def test_random_inputs(self):
        rng = np.random.default_rng(20070)
        self.assert_bit_exact(rng.standard_normal(1_000_000))
        self.assert_bit_exact(rng.uniform(-9.0, 9.0, 200_000))
        self.assert_bit_exact(rng.uniform(-40.0, 40.0, 50_000))

    def test_threshold_grid(self):
        self.assert_bit_exact(DEFAULT_T_GRID)

    def test_branch_and_underflow_edges(self):
        # |a / sqrt 2| = 1 (erf | erfc), = 8 (P/Q | R/S), and the square of it
        # at MAXLOG (erfc underflows to 0)
        edges = [math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                 math.sqrt(2.0 * 7.09782712893383996843e2)]
        a = [v for e in edges for s in (1.0, -1.0) for v in _ulps_around(s * e)]
        self.assert_bit_exact(a)
        self.assert_bit_exact(np.linspace(37.0, 38.5, 20_001))
        self.assert_bit_exact(-np.linspace(37.0, 38.5, 20_001))

    def test_special_values(self):
        a = [38.0, -38.0, np.inf, -np.inf, 0.0, -0.0, np.nan, 1e300, -1e300,
             np.finfo(float).max, -np.finfo(float).max, 5e-324, -5e-324]
        self.assert_bit_exact(a)
        out = sp.ndtr(np.array(a))
        assert out[2] == 1.0 and out[3] == 0.0
        assert np.isnan(out[6])
        assert not np.isnan(out[:6]).any()

    def test_scalar_and_shape(self):
        assert isinstance(sp.ndtr(0.7), float)
        assert sp.ndtr(0.7) == scipy_special.ndtr(0.7)
        grid = np.linspace(-4.0, 4.0, 24).reshape(2, 3, 4)
        assert sp.ndtr(grid).shape == (2, 3, 4)
        self.assert_bit_exact(grid)
        assert sp.ndtr(np.empty(0)).shape == (0,)
