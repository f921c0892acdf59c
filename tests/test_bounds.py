import math
from fractions import Fraction

import mpmath
import pytest

from heatseries.bounds import (
    EXPONENT_GRID,
    FINITE_LOWER_BOUND,
    INFINITE,
    OUT_OF_HYPOTHESIS,
    DegreeGrowth,
    GrowthProfile,
    convexity_split,
    decay_envelope,
    decay_threshold,
    fit_degree_growth,
    fit_growth_profile,
    lagrange_gap_bound,
    radius_estimate,
    radius_report,
    remainder_bound,
    stirling_lower_holds,
    xlnx,
)
from heatseries.errors import GraphSchemaError, GrowthFitError
from heatseries.graphs import (
    FiniteGraph,
    IntegerLine,
    LocalFunction,
    RegularTree,
)


class TestRadiusEstimate:
    def test_strict_case_infinite(self):
        cert = radius_estimate(GrowthProfile(1.0, 0.5), DegreeGrowth(1.0, 0.3))
        assert cert.kind == INFINITE
        assert cert.radius == math.inf

    def test_equality_case(self):
        cert = radius_estimate(GrowthProfile(1.0, 1.0), DegreeGrowth(3.0, 0.0))
        assert cert.kind == FINITE_LOWER_BOUND
        assert cert.radius == 1.0 / (6.0 * math.e)

    def test_out_of_hypothesis(self):
        cert = radius_estimate(GrowthProfile(1.0, 0.9), DegreeGrowth(1.0, 0.5))
        assert cert.kind == OUT_OF_HYPOTHESIS
        assert cert.radius is None

    def test_exact_slack(self):
        cert = radius_estimate(
            GrowthProfile(2.0, Fraction(1, 3)), DegreeGrowth(1.0, Fraction(1, 3))
        )
        assert cert.slack == Fraction(1, 3)
        assert cert.kind == INFINITE

    def test_amplitude_invariance(self):
        # the certificate is a pure function of (rate + power, cap)
        for amp in (0.01, 1.0, 1e9):
            cert = radius_estimate(GrowthProfile(amp, 1.0), DegreeGrowth(2.0, 0.0))
            assert cert.kind == FINITE_LOWER_BOUND
            assert cert.radius == 1.0 / (4.0 * math.e)

    def test_admits(self):
        fin = radius_estimate(GrowthProfile(1.0, 1.0), DegreeGrowth(1.0, 0.0))
        assert fin.admits(0.9 / (2 * math.e))
        assert not fin.admits(1.1 / (2 * math.e))
        inf_cert = radius_estimate(GrowthProfile(1.0, 0.0), DegreeGrowth(1.0, 0.0))
        assert inf_cert.admits(1e6)
        oob = radius_estimate(GrowthProfile(1.0, 1.0), DegreeGrowth(1.0, 0.5))
        assert oob.admits(0.0) and not oob.admits(1e-9)


class TestRemainderBound:
    def test_collapse_case(self):
        q = remainder_bound(
            1, 1.0, DegreeGrowth(1.0, 0.0), GrowthProfile(1.0, 0.0), 1.0
        )
        assert q == pytest.approx(2.0, rel=1e-15)

    def test_against_mpmath_oracle(self):
        # independent high-precision evaluation of the closed form
        k, delta, big_r = 10, 0.01, 1.0
        growth = DegreeGrowth(1.0, 0.0)
        profile = GrowthProfile(1.0, 0.5)
        with mpmath.workdps(50):
            expected = (
                (2 * mpmath.mpf(delta)) ** k
                / mpmath.factorial(k)
                * mpmath.e ** (mpmath.mpf("0.5") * (k + big_r) * mpmath.log(k + big_r))
            )
            got = remainder_bound(k, delta, growth, profile, big_r)
            assert got == pytest.approx(float(expected), rel=1e-12)

    def test_zeta_zero_eventual_decay(self):
        # at the equality case, small enough windows force the tail to zero
        growth = DegreeGrowth(1.0, 0.0)
        profile = GrowthProfile(1.0, 1.0)
        delta = 0.9 / (2 * math.e)
        values = [
            remainder_bound(k, delta, growth, profile, 1.0) for k in range(1, 2001)
        ]
        tail = values[50:]
        assert all(b <= a for a, b in zip(tail, tail[1:]))
        assert values[-1] < 1e-30

    def test_preconditions(self):
        growth, profile = DegreeGrowth(1.0, 0.0), GrowthProfile(1.0, 0.0)
        with pytest.raises(ValueError):
            remainder_bound(0, 1.0, growth, profile, 1.0)
        with pytest.raises(ValueError):
            remainder_bound(1, 1.0, growth, profile, 0.5)

    def test_underflowing_window_scale(self):
        # 2 delta cap underflows to 0 in binary64, yet each factor is positive
        assert 2.0 * 5e-324 * 0.1 == 0
        growth = DegreeGrowth(0.1, 0.0)
        q = remainder_bound(1, 5e-324, growth, GrowthProfile(1e300, 0.0), 1.0)
        assert q == pytest.approx(2 * 0.1 * 1e300 * 5e-324, rel=1e-12)
        assert remainder_bound(3, 5e-324, growth, GrowthProfile(1.0, 0.0), 1.0) == 0

    @pytest.mark.parametrize("delta", (math.inf, 10 ** 400, Fraction(10 ** 400, 3)))
    def test_non_finite_delta_named(self, delta):
        growth, profile = DegreeGrowth(1.0, 0.0), GrowthProfile(1.0, 0.0)
        with pytest.raises(ValueError, match="non-finite delta"):
            remainder_bound(1, delta, growth, profile, 1.0)

    @pytest.mark.parametrize("delta", (0.0, -1.0, -math.inf, math.nan))
    def test_nonpositive_delta_keeps_its_message(self, delta):
        growth, profile = DegreeGrowth(1.0, 0.0), GrowthProfile(1.0, 0.0)
        with pytest.raises(ValueError, match="^delta must be positive$"):
            remainder_bound(1, delta, growth, profile, 1.0)


# nan fails the sign checks of amplitude and cap first, with their old message
OVERSIZED = (math.inf, 10 ** 400, Fraction(10 ** 400, 3))
NON_FINITE = OVERSIZED + (math.nan,)


class TestEnvelopeConstants:
    """Both envelopes take constants finite in binary64, refused by name."""

    @pytest.mark.parametrize("value", OVERSIZED)
    def test_non_finite_amplitude(self, value):
        with pytest.raises(ValueError, match="^non-finite amplitude "):
            GrowthProfile(value, 0.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_rate(self, value):
        with pytest.raises(ValueError, match="^non-finite rate "):
            GrowthProfile(1.0, value)

    @pytest.mark.parametrize("value", OVERSIZED)
    def test_non_finite_cap(self, value):
        with pytest.raises(ValueError, match="^non-finite cap "):
            DegreeGrowth(value, 0.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_power(self, value):
        with pytest.raises(ValueError, match="^non-finite power "):
            DegreeGrowth(2.0, value)

    @pytest.mark.parametrize("value", (math.nan, 0.0, -1.0, -math.inf))
    def test_sign_checks_keep_their_messages(self, value):
        with pytest.raises(ValueError, match="^amplitude must be positive$"):
            GrowthProfile(value, 0.0)
        with pytest.raises(ValueError, match="^cap must be positive$"):
            DegreeGrowth(value, 0.0)

    @pytest.mark.parametrize("value", (-1.0, -math.inf))
    def test_negative_exponents_keep_their_messages(self, value):
        with pytest.raises(ValueError, match="^rate must be nonnegative$"):
            GrowthProfile(1.0, value)
        with pytest.raises(ValueError, match="^power must be nonnegative$"):
            DegreeGrowth(2.0, value)

    def test_finite_rationals_accepted(self):
        profile = GrowthProfile(Fraction(1, 3), Fraction(1, 2))
        growth = DegreeGrowth(Fraction(5, 2), Fraction(1, 2))
        assert radius_estimate(profile, growth).slack == 0


class TestDecayThreshold:
    @pytest.mark.parametrize("slack", [0.2, 0.5])
    def test_envelope_beyond_threshold(self, slack):
        profile = GrowthProfile(1.0, 1.0 - slack)
        growth = DegreeGrowth(1.0, 0.0)
        delta = 0.9 / (2 * math.e)
        k0 = decay_threshold(slack, delta, 1.0, 1.0)
        start = int(math.ceil(k0)) + 1
        for k in range(start, start + 2000):
            q = remainder_bound(k, delta, growth, profile, 1.0)
            assert q <= decay_envelope(slack, 1.0, k)

    def test_requires_positive_slack(self):
        with pytest.raises(ValueError):
            decay_threshold(0.0, 0.1, 1.0, 1.0)


class TestStirling:
    def test_exact_certificate_spot(self):
        for k in (1, 2, 3, 10, 77, 250, 500):
            assert stirling_lower_holds(k)

    def test_certificate_is_not_vacuous(self):
        # the same rational machinery refutes a false strengthening
        from heatseries.bounds import _E_LOWER

        k = 20
        false_lhs = (math.factorial(k) * _E_LOWER**k) ** 2
        assert false_lhs < Fraction(3 * k) ** (2 * k + 1)


class TestLagrangeGap:
    def test_base_case(self):
        assert lagrange_gap_bound(1, 1.0) == pytest.approx(math.log(2) + 1)
        assert lagrange_gap_bound(1, 1.0) >= 2 * math.log(2)

    def test_precondition(self):
        with pytest.raises(ValueError):
            lagrange_gap_bound(3, 5.0)

    @pytest.mark.parametrize("big_r", [1, 2, 5, 10])
    def test_sweep(self, big_r):
        for k in range(big_r, 3000):
            gap = xlnx(k + big_r) - xlnx(k)
            assert gap <= lagrange_gap_bound(k, big_r) + 1e-12

    def test_asymptotic_ratio(self):
        for k in (10**3, 10**4, 10**5):
            gap = xlnx(k + 2) - xlnx(k)
            assert gap / lagrange_gap_bound(k, 2) <= 1.0


class TestConvexitySplit:
    def test_equality_case(self):
        assert convexity_split(1, 1) == pytest.approx(2 * math.log(2), rel=1e-15)
        assert xlnx(2) <= convexity_split(1, 1) + 1e-15

    def test_example(self):
        assert convexity_split(3, 5) >= xlnx(8)

    def test_sweep(self):
        for k in range(1, 200):
            for d in range(1, 200):
                assert xlnx(k + d) <= convexity_split(k, d) + 1e-9


class TestFits:
    def test_constant_function(self):
        z = IntegerLine()
        f = LocalFunction({x: 2.5 for x in z.ball(0, 6)})
        prof = fit_growth_profile(z, f, 6)
        assert prof.amplitude == 2.5
        assert prof.rate == 0.0

    def test_delta(self):
        z = IntegerLine()
        prof = fit_growth_profile(z, LocalFunction.delta(0), 5)
        assert (prof.amplitude, prof.rate) == (1.0, 0.0)

    def test_constructed_growth(self):
        z = IntegerLine()
        f = LocalFunction(
            {x: math.exp(xlnx(abs(x))) for x in z.ball(0, 8)}
        )
        prof = fit_growth_profile(z, f, 8)
        assert prof.rate <= 1.0 + 0.05 + 1e-12
        # round-trip soundness: the fit certifies on the same ball
        for x in z.ball(0, 8):
            assert abs(f(x)) <= prof.envelope(abs(x))

    def test_unfittable(self):
        z = IntegerLine()
        f = LocalFunction({0: 1e-9, 5: 1e9})
        with pytest.raises(GrowthFitError):
            fit_growth_profile(z, f, 6)

    def test_unfittable_on_a_finite_graph_is_flat(self):
        path = FiniteGraph(dict.fromkeys(range(7), 1), [(i, i + 1, 1) for i in range(6)], 0)
        f = LocalFunction({0: 1e-9, 5: 1e9})
        assert fit_growth_profile(path, f, 6) == GrowthProfile(1e9, 0.0)

    def test_flat_envelope_rounds_an_exact_maximum_up(self):
        path = FiniteGraph(dict.fromkeys(range(4), 1), [(i, i + 1, 1) for i in range(3)], 0)
        third = Fraction(10**9, 3)
        prof = fit_growth_profile(path, LocalFunction({0: Fraction(1, 10**9), 3: third}), 3)
        assert prof.rate == 0.0
        assert prof.amplitude >= third and prof.amplitude == math.nextafter(float(third), math.inf)

    def test_degree_line(self):
        growth = fit_degree_growth(IntegerLine(), 6)
        assert (growth.cap, growth.power) == (2.0, 0.0)

    def test_degree_tree(self):
        growth = fit_degree_growth(RegularTree(3), 5)
        assert (growth.cap, growth.power) == (3.0, 0.0)

    def test_degree_star(self):
        star = FiniteGraph(dict.fromkeys(range(10), 1), [(0, i, 1) for i in range(1, 10)], 0)
        growth = fit_degree_growth(star, 3)
        assert (growth.cap, growth.power) == (9.0, 0.0)
        # round-trip: envelope really covers the hub and the leaves
        assert growth.envelope(0) >= 9
        assert growth.envelope(1) >= 1

    def test_degree_beyond_the_grid_on_a_finite_graph_is_flat(self):
        # Deg = 1e6 + 1 at distance 2 outgrows 2 d^2, the largest grid envelope
        path = FiniteGraph(dict.fromkeys(range(5), 1),
                           [(i, i + 1, w) for i, w in enumerate((1, 1, 1e6, 1))], 0)
        assert fit_degree_growth(path, 4) == DegreeGrowth(1000001.0, 0.0)

    def test_flat_degree_envelope_rounds_an_exact_maximum_up(self):
        # Deg(2) = 2 / (3e-9) is no binary64 number; float() rounds it down
        measures = {0: 1, 1: 1, 2: Fraction(3, 10**9), 3: 1}
        path = FiniteGraph(measures, [(i, i + 1, 1) for i in range(3)], 0)
        deg = path.deg(2)
        assert deg == Fraction(2 * 10**9, 3) and float(deg) < deg
        growth = fit_degree_growth(path, 3)
        assert growth.power == 0.0
        assert growth.cap >= deg and growth.cap == math.nextafter(float(deg), math.inf)

    @pytest.mark.parametrize("measure, weight, error, message", [
        (1, None, GrowthFitError,
         "fitted degree cap .* is not positive and finite: the root 0 has no edges"),
        # a Deg beyond binary64 is refused when the graph is built
        (1e-308, 1e308, GraphSchemaError,
         "Deg = weight sum / measure at vertex 0 is not finite in binary64"),
    ])
    def test_degree_cap_outside_binary64_refused_by_name(self, measure, weight, error, message):
        edges = [] if weight is None else [(0, 1, weight)]
        with pytest.raises(error, match=f"^{message}$"):
            fit_degree_growth(FiniteGraph({0: measure, 1: measure}, edges, 0), 2)

    def test_grid_declared(self):
        assert EXPONENT_GRID[0] == 0.0
        assert EXPONENT_GRID[-1] == 2.0
        assert len(EXPONENT_GRID) == 41


class TestRadiusReport:
    def test_finite_lower_bound_window_is_half_the_radius(self):
        report, delta = radius_report(IntegerLine(), LocalFunction.delta(0, 1.0), 8, 3,
                                      GrowthProfile(1.0, 1.0), DegreeGrowth(3.0, 0.0))
        assert report["certificate"]["kind"] == FINITE_LOWER_BOUND
        assert delta == pytest.approx(1 / (12 * math.e), rel=1e-15)
        assert (report["profile"]["source"], report["degree_growth"]["source"]) == (
            "explicit", "explicit")
        assert [row["k"] for row in report["remainder_table"]] == [1, 2, 3]

    @pytest.mark.parametrize("profile, kind", [
        (None, INFINITE), (GrowthProfile(1.0, 2.0), OUT_OF_HYPOTHESIS),
    ])
    def test_otherwise_the_window_is_set_by_the_cap(self, profile, kind):
        report, delta = radius_report(IntegerLine(), LocalFunction.delta(0, 1.0), 4, 3, profile)
        assert report["certificate"]["kind"] == kind
        assert report["degree_growth"] == {"cap": 2.0, "power": 0.0, "source": "fitted"}
        assert delta == 0.9 / (2 * math.e * 2.0)
        assert len(report["remainder_table"]) == (0 if kind == OUT_OF_HYPOTHESIS else 3)

    def test_a_given_window_is_kept(self):
        _, delta = radius_report(IntegerLine(), LocalFunction.delta(0, 1.0), 4, 3, delta=0.25)
        assert delta == 0.25

    def test_a_bad_window_is_refused_out_of_hypothesis(self):
        with pytest.raises(ValueError, match="delta must be positive"):
            radius_report(IntegerLine(), LocalFunction.delta(0, 1.0), 4, 3,
                          GrowthProfile(1.0, 2.0), delta=-1.0)
