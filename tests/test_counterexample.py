import functools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import heatseries.counterexample as cx_mod
from heatseries.counterexample import (
    GROWTH_T_GRID,
    DerivativePolynomialTable,
    FlatBumpParams,
    _combined_poly,
    _flat_factor,
    _poly_eval,
    _v_exact,
    _v_mpf,
    default_theta,
    g_derivative,
    g_eval,
    growth_audit,
    heat_residual_1d,
    heat_residual_poly,
    huang_bound_audit,
    non_analyticity_witness,
    v_eval,
    v_time_derivative,
)
from heatseries.errors import AuditWindowEmptyError


@pytest.fixture(scope="module")
def beta2():
    return FlatBumpParams(beta=2)


@pytest.fixture(scope="module")
def beta4():
    return FlatBumpParams(beta=4)


class TestParams:
    def test_defaults(self):
        p = FlatBumpParams(beta=2)
        assert p.theta == pytest.approx(0.5)
        assert p.bump_ratio > 1

    def test_default_theta_beta4(self):
        assert default_theta(4) == pytest.approx(0.5 * 0.5**0.25)
        assert FlatBumpParams(beta=4).bump_ratio == pytest.approx(2.0)

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            FlatBumpParams(beta=2, theta=1.5)
        with pytest.raises(ValueError):
            FlatBumpParams(beta=4, theta=0.9)  # above (2/4)^(1/4)

    def test_integer_beta(self):
        with pytest.raises(ValueError):
            FlatBumpParams(beta=1)
        with pytest.raises(ValueError):
            FlatBumpParams(beta=2.5)

    @pytest.mark.parametrize("name", ["epsilon", "time_shift"])
    @pytest.mark.parametrize(
        "value", [math.inf, 10**400, Fraction(10**400, 3)], ids=["inf", "int", "fraction"]
    )
    def test_non_finite_refused(self, name, value):
        with pytest.raises(ValueError, match=name):
            FlatBumpParams(beta=4, **{name: value})

    @pytest.mark.parametrize("name", ["epsilon", "time_shift"])
    @pytest.mark.parametrize("value", [0.0, -1.0, -math.inf, math.nan])
    def test_nonpositive_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            FlatBumpParams(beta=4, **{name: value})


def _reference_poly_eval(poly, s):
    """Term-by-term Fraction sum: the reference for _poly_eval."""
    s = Fraction(s)
    acc = Fraction(0)
    power = Fraction(1)
    last = 0
    for e in sorted(poly):
        power *= s ** (e - last)
        last = e
        acc += poly[e] * power
    return acc


@functools.lru_cache(maxsize=None)
def _reference_exact(beta, x, s, order):
    """The combined polynomial at s, summed term by term in Fractions."""
    return _reference_poly_eval(_combined_poly(beta, x, order), s)


def _reference_v(params, x, t, order=0):
    """d^order/dt^order v(x, t) from the reference sum and an uncached exp."""
    if t <= 0:
        return 0.0
    with mp.workdps(40):
        s = 1 / Fraction(t)
        value = _reference_exact(params.beta, x if x >= 0 else -x - 1, s, order)
        flat = mp.exp(-(mp.mpf(s.numerator) / mp.mpf(s.denominator)) ** params.beta)
        return float(mp.mpf(value.numerator) / mp.mpf(value.denominator) * flat)


SPARSE_POLYS = st.dictionaries(
    st.integers(0, 400), st.integers(-(10**30), 10**30).filter(bool), max_size=40
)
RATIONALS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(2**30), Fraction(-3, 7)]),
    st.integers(1, 8).map(lambda i: Fraction(8, i)),
    st.integers(0, 30).map(lambda m: Fraction(1, 2**m)),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**9),
)


def _poly_value(poly, s):
    """poly(s) from the integer core: its poly(p/q) q^deg over q^deg."""
    got = _poly_eval(poly, s.numerator, s.denominator)
    assert type(got) is int
    return Fraction(got, s.denominator ** max(poly, default=0))


class TestPolyEval:
    @given(SPARSE_POLYS, RATIONALS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    @example({}, Fraction(3, 2))
    @example({0: -5}, Fraction(0))
    @example({0: 7, 3: -2}, Fraction(0))
    @example({400: 1, 0: -1}, Fraction(-1, 2**30))
    def test_equals_fraction_sum(self, poly, s):
        assert _poly_value(poly, s) == _reference_poly_eval(poly, s)

    @pytest.mark.parametrize("beta, x, order", [(5, 60, 0), (3, 40, 3), (4, 7, 2)])
    def test_combined_polynomials(self, beta, x, order):
        poly = _combined_poly(beta, x, order)
        for s in [Fraction(8, i) for i in range(1, 9)] + [Fraction(2**30), Fraction(-2, 3)]:
            assert _poly_value(poly, s) == _reference_poly_eval(poly, s)


class TestValueTable:
    """Values read off the shared per-time table equal the combined polynomial's."""

    PROBES = tuple(Fraction(1, 2**m) for m in (10, 15, 20, 25, 30))

    @pytest.mark.parametrize("beta", [2, 3, 4, 5])
    def test_growth_window(self, beta):
        params = FlatBumpParams(beta=beta)
        for t in GROWTH_T_GRID:
            for x in range(-61, 61):
                mirrored = x if x >= 0 else -x - 1
                assert _v_exact(beta, mirrored, 1 / t, 0) == _reference_exact(beta, mirrored, 1 / t, 0)
                assert v_eval(params, x, t) == _reference_v(params, x, t)

    @pytest.mark.parametrize("beta", [2, 3, 4, 5])
    def test_orders_at_the_dyadic_probes(self, beta):
        params = FlatBumpParams(beta=beta)
        for t in self.PROBES:
            for x in range(4):
                for order in range(13):
                    assert _v_exact(beta, x, 1 / t, order) == _reference_exact(beta, x, 1 / t, order)
                    assert v_time_derivative(params, x, t, order) == _reference_v(params, x, t, order)

    @given(
        st.integers(2, 5),
        st.integers(-20, 20),
        st.fractions(min_value=Fraction(1, 64), max_value=4, max_denominator=10**6),
        st.integers(0, 4),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    @example(3, 7, Fraction(999983, 1000003), 2)
    def test_drawn_rational_times(self, beta, x, t, order):
        params = FlatBumpParams(beta=beta)
        mirrored = x if x >= 0 else -x - 1
        assert _v_exact(beta, mirrored, 1 / t, order) == _reference_exact(beta, mirrored, 1 / t, order)
        assert v_time_derivative(params, x, t, order) == _reference_v(params, x, t, order)

    def test_each_value_is_evaluated_once(self, monkeypatch):
        seen = []
        poly_eval = cx_mod._poly_eval

        def counted(poly, p, q):
            seen.append((id(poly), p, q))  # the table keeps every R_j alive
            return poly_eval(poly, p, q)

        monkeypatch.setattr(cx_mod, "_poly_eval", counted)
        cx_mod._value_table.cache_clear()
        params = FlatBumpParams(beta=6)
        for _ in range(2):  # the second pass reads every value off the tables
            growth_audit(params, xmax=20)
            for x in range(4):
                non_analyticity_witness(params, x, 5)
            for k in range(1, 8):
                huang_bound_audit(params, k, (Fraction(1, 4), Fraction(1, 2), Fraction(1)))
            for x in range(-3, 4):
                heat_residual_1d(params, x, Fraction(1, 2))
        assert seen
        assert len(seen) == len(set(seen))


class TestBitIdentical:
    TIMES = (Fraction(1, 8), Fraction(1, 2), Fraction(1), Fraction(1, 2**30))

    @pytest.mark.parametrize("beta", [3, 4, 5])
    def test_against_reference(self, beta):
        params = FlatBumpParams(beta=beta)
        for t in self.TIMES:
            for x in (-12, -1, 0, 1, 7, 40, 60):
                assert v_eval(params, x, t) == _reference_v(params, x, t)
                for order in range(4):
                    want = _reference_v(params, x, t, order)
                    assert v_time_derivative(params, x, t, order=order) == want
            for k in range(4):
                assert g_derivative(params, k, t) == _reference_v(params, 0, t, k)

    def test_flat_factor_depends_on_precision(self):
        # a time no other test asks for, so the 15-digit call comes first
        s = Fraction(98765, 43211)
        with mp.workdps(15):
            _flat_factor(s, 4)
        with mp.workdps(40):
            got = _flat_factor(s, 4)
            want = mp.exp(-(mp.mpf(98765) / 43211) ** 4)
        assert got == want


class TestBump:
    def test_zero_for_nonpositive_time(self, beta2):
        assert g_eval(beta2, 0.0) == 0.0
        assert g_eval(beta2, -3.0) == 0.0

    def test_unit_time(self, beta2):
        assert g_eval(beta2, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_small_time(self, beta2):
        assert g_eval(beta2, 0.1) == pytest.approx(math.exp(-100), rel=1e-10)

    def test_derivative_order_zero(self, beta2):
        assert g_derivative(beta2, 0, 0.7) == g_eval(beta2, 0.7)

    def test_first_derivative_closed_form(self, beta2):
        # R_1(s) = 2 s^3 for the quadratic bump
        assert DerivativePolynomialTable(2).poly(1) == {3: 2}
        assert g_derivative(beta2, 1, 1.0) == pytest.approx(2 / math.e, rel=1e-12)

    def test_third_derivative_finite_difference(self, beta2):
        # Richardson-extrapolated central differences as independent oracle
        t, h = 0.5, 0.005

        def d3(step):
            return (
                g_eval(beta2, t + 2 * step)
                - 2 * g_eval(beta2, t + step)
                + 2 * g_eval(beta2, t - step)
                - g_eval(beta2, t - 2 * step)
            ) / (2 * step**3)

        oracle = (4 * d3(h / 2) - d3(h)) / 3
        assert g_derivative(beta2, 3, t) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("beta", [2, 3, 4])
    def test_recurrence_against_sympy(self, beta):
        t, s = sympy.symbols("t s", positive=True)
        g = sympy.exp(-(t**-beta))
        table = DerivativePolynomialTable(beta)
        for k in range(6):
            ratio = sympy.simplify(sympy.diff(g, t, k) / g)
            ours = sum(c * s**e for e, c in table.poly(k).items())
            assert sympy.simplify(ratio.subs(t, 1 / s) - ours) == 0

    @pytest.mark.parametrize("beta", [2, 4])
    def test_degree_invariant(self, beta):
        table = DerivativePolynomialTable(beta)
        for k in range(1, 12):
            assert max(table.poly(k)) == k * (beta + 1)

    def test_flatness_monotone_beta4(self, beta4):
        # derivative magnitudes decrease along t = 2^-m all the way down
        for j in range(11):
            with mp.workdps(60):
                vals = [
                    abs(_v_mpf(beta4, 0, Fraction(1, 2**m), order=j))
                    for m in range(1, 41)
                ]
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_flatness_monotone_beta2_tail(self, beta2):
        # the order-j magnitude peaks near t ~ j^(-1/2), which for mid j sits
        # inside the first dyadic step; monotonicity holds from m = 2 on
        for j in range(11):
            with mp.workdps(60):
                vals = [
                    abs(_v_mpf(beta2, 0, Fraction(1, 2**m), order=j))
                    for m in range(2, 41)
                ]
            assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestLatticeSolution:
    def test_origin_is_bump(self, beta2):
        for t in (0.3, 0.7, 1.0):
            assert v_eval(beta2, 0, t) == g_eval(beta2, t)

    def test_mirror(self, beta2):
        for t in (0.4, 1.0):
            assert v_eval(beta2, -1, t) == v_eval(beta2, 0, t)
            for x in range(-8, 0):
                assert v_eval(beta2, x, t) == v_eval(beta2, -x - 1, t)

    def test_hand_expansion_x1(self, beta2):
        # v(1,1) = g(1) + g'(1) = 3/e
        assert v_eval(beta2, 1, 1.0) == pytest.approx(3 / math.e, rel=1e-12)

    def test_zero_for_nonpositive_time(self, beta2):
        assert v_eval(beta2, 5, 0.0) == 0.0
        assert v_eval(beta2, 5, -1.0) == 0.0

    def test_term_product_vanishes_beyond_x(self):
        # the consecutive-integer product contains 0 once k exceeds x, so
        # the coefficients stop at k = x
        from heatseries.counterexample import _term_coefficients

        def product(x, k):
            return math.prod(range(x - k + 1, x + k + 1)) // math.factorial(2 * k)

        for x in range(0, 6):
            for k in range(x + 1, x + 5):
                assert product(x, k) == 0
            assert _term_coefficients(x) == tuple(product(x, k) for k in range(x + 1))
            assert all(c > 0 for c in _term_coefficients(x))


class TestResidual:
    def test_requires_positive_time(self, beta2):
        with pytest.raises(ValueError):
            heat_residual_1d(beta2, 0, 0.0)

    def test_origin_small(self, beta2):
        scale = abs(v_eval(beta2, 1, 1.0))
        assert abs(heat_residual_1d(beta2, 0, 1.0)) <= 1e-12 * max(scale, 1.0)

    def test_grid_sweep(self, beta4):
        max_res, max_val = 0.0, 0.0
        for x in range(-10, 11):
            for t in (0.25, 0.5, 1.0):
                max_res = max(max_res, abs(heat_residual_1d(beta4, x, t)))
                max_val = max(max_val, abs(v_eval(beta4, x, t)))
        assert max_res <= 1e-9 * max_val

    def test_symmetric_pair(self, beta2):
        # x = 1 residual agrees with its mirror bookkeeping at x = -2
        r1 = heat_residual_1d(beta2, 1, 1.0)
        r2 = heat_residual_1d(beta2, -2, 1.0)
        assert r1 == r2

    @pytest.mark.parametrize("beta", [2, 4])
    def test_zero_polynomial(self, beta):
        p = FlatBumpParams(beta=beta)
        for x in range(-12, 13):
            assert heat_residual_poly(p, x) == {}


class TestHuangAudit:
    def test_first_order_passes(self):
        p = FlatBumpParams(beta=2, theta=0.5)
        grid = [0.1 * i for i in range(1, 11)]
        report = huang_bound_audit(p, 1, grid)
        assert report.passed

    def test_order_zero_rejected(self, beta2):
        with pytest.raises(ValueError):
            huang_bound_audit(beta2, 0, [0.5])

    def test_sweep_produces_findings_report(self, beta4):
        grid = (0.25, 0.5, 1.0)
        reports = [huang_bound_audit(beta4, k, grid) for k in range(1, 31)]
        assert all(r.bound > 0 for r in reports)
        # found violations are honest: recomputing confirms them
        for r in reports:
            for t, value, bound in r.findings:
                assert value > bound
                assert abs(g_derivative(beta4, r.k, t)) == value

    def test_small_theta_passes(self):
        p = FlatBumpParams(beta=4, theta=0.05)
        grid = (0.25, 0.5, 1.0)
        for k in range(1, 11):
            assert huang_bound_audit(p, k, grid).passed

    @pytest.mark.parametrize("theta, k", [(1e-300, 1), (1e-300, 3), (1e-30, 20)])
    def test_bound_beyond_binary64_factors(self, theta, k):
        # theta^4 underflows, or the power overflows; the bound may still be finite
        p = FlatBumpParams(beta=4, theta=theta)
        with mp.workdps(30):
            want = mp.factorial(k) * (2 * k / (mp.e * 4 * mp.mpf(theta) ** 4)) ** (mp.mpf(k) / 4)
        got = huang_bound_audit(p, k, (0.5,)).bound
        if want > mp.mpf(2) ** 1024:
            assert got == math.inf
        else:
            assert got == pytest.approx(float(want), rel=1e-9)

    def test_tiny_theta_window_is_empty(self, beta4):
        # the admissible radius e^{(2/eps)(...)} overflows binary64
        with pytest.raises(AuditWindowEmptyError) as err:
            growth_audit(FlatBumpParams(beta=4, theta=1e-300), xmax=60)
        assert err.value.r0 == math.inf


class TestGrowthAudit:
    def test_beta4_epsilon1(self, beta4):
        report = growth_audit(beta4, xmax=40)
        assert report.passed
        assert report.window[0] == 7  # ceil of the admissible radius
        assert report.worst_margin <= 1.0

    def test_window_empty(self, beta4):
        with pytest.raises(AuditWindowEmptyError) as err:
            growth_audit(beta4, xmax=3)
        assert err.value.r0 > 3

    def test_epsilon_half_beta8(self):
        p = FlatBumpParams(beta=8, epsilon=0.5)
        report = growth_audit(p, xmax=78)
        assert report.passed

    def test_parameter_precondition(self):
        p = FlatBumpParams(beta=2, epsilon=0.5)  # needs beta > 4
        with pytest.raises(ValueError):
            growth_audit(p)


class TestNonAnalyticity:
    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
    def test_meaningless_tol_refused(self, beta4, tol):
        with pytest.raises(ValueError, match="tol"):
            non_analyticity_witness(beta4, 0, 3, tol=tol)

    def test_origin_witness(self, beta4):
        report = non_analyticity_witness(beta4, 0, 10)
        assert report.flat
        assert all(v <= 1e-8 for v in report.flat_values.values())
        sample = dict(report.positive_samples)
        assert sample[0.5] == g_eval(beta4, 0.5) > 0
        assert report.not_analytic

    def test_a_negative_sample_is_nonzero(self):
        # at beta 10, x = 3 the samples are 0, 0 and about -356.5
        report = non_analyticity_witness(FlatBumpParams(beta=10), 3, 3)
        samples = [v for _, v in report.positive_samples]
        assert samples[:2] == [0, 0] and samples[2] < 0
        assert report.flat and report.nonzero and report.not_analytic

    def test_x3_witness(self, beta4):
        report = non_analyticity_witness(beta4, 3, 10)
        assert report.flat and report.nonzero and report.not_analytic

    def test_time_derivative_consistency(self, beta2):
        # d/dt v at order 1 matches Richardson-extrapolated differences of v
        t, h = 0.8, 0.004

        def central(x, step):
            return (v_eval(beta2, x, t + step) - v_eval(beta2, x, t - step)) / (
                2 * step
            )

        for x in (0, 2, 5):
            fd = (4 * central(x, h / 2) - central(x, h)) / 3
            exact = v_time_derivative(beta2, x, t)
            assert exact == pytest.approx(fd, rel=1e-7)
