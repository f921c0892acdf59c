import functools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from conftest import tree_radial_reduction
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import heatseries.series
from heatseries.bounds import (
    DegreeGrowth,
    GrowthProfile,
    exp_or_inf,
    radius_estimate,
    root_distances,
    xlnx,
)
from heatseries.errors import (
    DegreeBoundError,
    RadiusExceededError,
    TruncationFailureError,
)
from heatseries.graphs import (
    FiniteGraph,
    Graph,
    IntegerLattice,
    IntegerLine,
    LocalFunction,
    RegularTree,
    complete_graph,
    cycle_graph,
    family_from_spec,
    float_or_inf,
    path_graph,
    random_weighted_graph,
    vertex_key,
)
from heatseries.laplacian import IteratedLaplacianTable, apply_laplacian
from heatseries.oracle import DenseOperator, dense_laplacian, expm_apply
from heatseries.series import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    SOLVABILITY_RATE_GRID,
    SOLVABILITY_SCALE_GRID,
    TERM_CAP,
    BackwardSolvabilityReport,
    CoefficientAuditReport,
    EvalResult,
    SeriesSolution,
    _chernoff_log_tail,
    _power_or_inf,
    audit_region,
    backward_solve,
    bessel_weights,
    chebyshev_rounding_bound,
    check_backward_solvability,
    coefficient_bound_audit,
    require_degree_cap,
    residual_check,
    series_eval,
)


def growing_comb(levels, arms):
    """Path 0-1-...-levels with `arms * j` pendant leaves at vertex j."""
    mu = {i: 1 for i in range(levels + 1)}
    edges = [(i, i + 1, 1) for i in range(levels)]
    nxt = levels + 1
    for j in range(1, levels + 1):
        for _ in range(arms * j):
            mu[nxt] = 1
            edges.append((j, nxt, 1))
            nxt += 1
    return FiniteGraph(mu, edges, 0)


class TestSeriesEval:
    def test_time_zero_identity(self, k2):
        sol = SeriesSolution(k2, LocalFunction({0: 3.25, 1: -1.0}))
        res = series_eval(sol, 0, 0.0)
        assert res == (3.25, 0.0, 0)

    def test_k2_closed_form(self, k2):
        sol = SeriesSolution(k2, LocalFunction.delta(0), tol=1e-12)
        for t in (-0.1, -0.05):
            res = series_eval(sol, 0, t)
            truth = (1 + math.exp(-2 * t)) / 2
            assert abs(res.value - truth) <= 1e-10
            assert abs(res.value - truth) <= res.tail_bound + 1e-15
            other = series_eval(sol, 1, t)
            assert abs(other.value - (1 - math.exp(-2 * t)) / 2) <= 1e-10

    def test_cycle_matches_exponential_oracle(self, c100):
        sol = SeriesSolution(c100, LocalFunction.delta(0), tol=1e-11)
        op = dense_laplacian(c100)
        ref = expm_apply(op, op.vector_of(sol.initial), -0.05)
        for x in (0, 1, 7, 50, 99):
            res = series_eval(sol, x, -0.05)
            diff = abs(res.value - ref[op.index[x]])
            assert diff <= 1e-10
            assert diff <= res.tail_bound + 1e-12

    def test_tail_bound_meets_tolerance(self, p10):
        sol = SeriesSolution(p10, LocalFunction.delta(0), tol=1e-9)
        res = series_eval(sol, 5, -0.1)
        assert 0 <= res.tail_bound <= 1e-9
        assert res.terms_used > 0

    def test_lazy_line_evaluation_terminates(self):
        z = IntegerLine()
        sol = SeriesSolution(z, LocalFunction.delta(0), tol=1e-11)
        res = series_eval(sol, 3, -0.1)
        seg_sol = SeriesSolution(path_graph(41, root=20), LocalFunction.delta(20))
        seg = series_eval(seg_sol, 23, -0.1)
        assert res.value == pytest.approx(seg.value, abs=1e-12)

    def test_radius_exceeded(self, k2):
        cert = radius_estimate(GrowthProfile(1.0, 1.0), DegreeGrowth(2.0, 0.0))
        sol = SeriesSolution(k2, LocalFunction.delta(0), certificate=cert)
        inside = 0.9 / (4 * math.e)
        series_eval(sol, 0, -inside)  # fine
        with pytest.raises(RadiusExceededError):
            series_eval(sol, 0, -1.1 / (4 * math.e))

    def test_out_of_hypothesis_certificate_refuses(self, k2):
        cert = radius_estimate(GrowthProfile(1.0, 1.5), DegreeGrowth(2.0, 0.0))
        sol = SeriesSolution(k2, LocalFunction.delta(0), certificate=cert)
        assert series_eval(sol, 0, 0.0).value == 1
        with pytest.raises(RadiusExceededError):
            series_eval(sol, 0, 1e-9)

    @pytest.mark.parametrize("tol, message", [
        (math.inf, "non-finite tolerance inf"),
        (Fraction(10) ** 400, "non-finite tolerance"),
        (math.nan, "tolerance must be positive"),
        (0.0, "tolerance must be positive"),
    ])
    def test_meaningless_tolerance_named(self, k2, tol, message):
        with pytest.raises(ValueError, match=message):
            SeriesSolution(k2, LocalFunction.delta(0, 1.0), tol=tol)

    def test_truncation_failure_carries_best_bound(self):
        g = cycle_graph(6)
        sol = SeriesSolution(g, LocalFunction.delta(0, Fraction(1)), tol=1e-300)
        with pytest.raises(TruncationFailureError) as err:
            series_eval(sol, 0, Fraction(-25))
        assert err.value.best_bound > 1e-300
        assert err.value.terms_used == 400

    def test_semigroup_consistency(self):
        g = cycle_graph(8)
        a = LocalFunction.delta(0)
        sol = SeriesSolution(g, a, tol=1e-12)
        s, t = -0.03, -0.02
        direct = series_eval(sol, 2, s + t)
        mid = LocalFunction({x: series_eval(sol, x, s).value for x in g.vertices()})
        two_step = series_eval(SeriesSolution(g, mid, tol=1e-12), 2, t)
        assert abs(direct.value - two_step.value) <= 5e-11


class TestBackward:
    def test_time_zero(self, k2):
        a = LocalFunction({0: 2.5})
        assert backward_solve(k2, a, 0, 0.0).value == 2.5

    def test_k2_closed_form(self, k2):
        res = backward_solve(k2, LocalFunction.delta(0), 0, 0.1)
        assert abs(res.value - (1 + math.exp(0.2)) / 2) <= 1e-10

    def test_duality_bit_identical(self, k2, p10, c100):
        for g in (k2, p10, c100):
            a = LocalFunction.delta(g.root)
            sol = SeriesSolution(g, a, tol=1e-11)
            for t in (0.1, 0.05, 0.01):
                fwd = series_eval(sol, g.root, -t)
                bwd = backward_solve(g, a, g.root, t, tol=1e-11)
                assert bwd == fwd  # bitwise: same tuple, same floats

    def test_eigenfunction_growth(self):
        c4 = cycle_graph(4)
        a = LocalFunction({0: 1.0, 1: -1.0, 2: 1.0, 3: -1.0})
        # eigenvalue of the Laplacian on the alternating function is -4
        for x in range(4):
            res = backward_solve(c4, a, x, 0.2)
            assert abs(res.value - math.exp(0.8) * a(x)) <= 1e-10

    def test_negative_time_rejected(self, k2):
        with pytest.raises(ValueError):
            backward_solve(k2, LocalFunction.delta(0), 0, -0.1)

    def test_matches_exponential(self, p10):
        # the backward solution at t is e^{-t L} applied to the data
        op = dense_laplacian(p10)
        a = LocalFunction.delta(0)
        ref = expm_apply(op, op.vector_of(a), -0.08)
        for x in p10.vertices():
            res = backward_solve(p10, a, x, 0.08)
            assert abs(res.value - ref[op.index[x]]) <= 1e-10


class TestResidual:
    def test_exact_zero_at_origin(self, c100):
        sol = SeriesSolution(c100, LocalFunction.delta(0))
        assert residual_check(sol, 0, 0.0) == 0

    def test_k2(self, k2):
        sol = SeriesSolution(k2, LocalFunction.delta(0), tol=1e-11)
        assert residual_check(sol, 0, -0.1) <= 1e-9

    def test_cycle(self, c100):
        sol = SeriesSolution(c100, LocalFunction.delta(0), tol=1e-11)
        assert residual_check(sol, 0, -0.05) <= 1e-9

    def test_bounded_by_combined_tails(self, p10):
        sol = SeriesSolution(p10, LocalFunction.delta(0), tol=1e-10)
        x, t = 4, -0.07
        res = residual_check(sol, x, t)
        dt_tail = series_eval(sol.derivative_solution(), x, t).tail_bound
        own_tail = series_eval(sol, x, t).tail_bound
        nbr_tails = sum(
            (w / p10.measure(x)) * series_eval(sol, y, t).tail_bound
            for y, w in p10.neighbors(x)
        )
        ceiling = dt_tail + float(p10.deg(x)) * own_tail + nbr_tails
        assert res <= ceiling + 1e-13

    def test_radius_margin_enforced(self, k2):
        cert = radius_estimate(GrowthProfile(1.0, 1.0), DegreeGrowth(2.0, 0.0))
        sol = SeriesSolution(k2, LocalFunction.delta(0), certificate=cert)
        r = cert.radius
        with pytest.raises(RadiusExceededError):
            residual_check(sol, 0, -0.9 * r, h=0.2 * r)


class TestBackwardSolvability:
    def test_delta_on_line_certified(self):
        z = IntegerLine()
        report = check_backward_solvability(z, LocalFunction.delta(0), 2.0, 20, 3)
        assert report.verdict == CERTIFIED
        assert report.rate == 0.0
        assert report.scale == 1.0
        # every audited iterate sits under scale * (2 D)^k
        k, x, value, bound = report.witnesses[0]
        assert value <= bound

    def test_zero_data_minimal_scale(self):
        z = IntegerLine()
        report = check_backward_solvability(z, LocalFunction({}), 2.0, 10, 2)
        assert report.verdict == CERTIFIED
        assert report.scale == pytest.approx(1e-6)
        assert report.witnesses == []

    def test_growing_degree_precondition(self):
        g = growing_comb(4, 3)
        with pytest.raises(DegreeBoundError) as err:
            check_backward_solvability(g, LocalFunction.delta(0), 2.0, 4, 2)
        assert err.value.vertex == 1
        assert err.value.degree > 2

    def test_scale_overflow_refuted(self):
        z = IntegerLine()
        big = LocalFunction.delta(0, 1e9)
        report = check_backward_solvability(z, big, 2.0, 5, 1)
        assert report.verdict == REFUTED
        assert report.witnesses
        k, x, value, bound = report.witnesses[0]
        assert value > bound

    @pytest.mark.parametrize("degree_cap", (2.0, 1e200))
    def test_iterate_beyond_binary64_inconclusive(self, degree_cap):
        # L^5 of 1e307 at 0 is -252e307; with 1e200 the envelope overflows too
        z = IntegerLine()
        report = check_backward_solvability(z, LocalFunction.delta(0, 1e307), degree_cap, 5, 1)
        assert report.verdict == INCONCLUSIVE
        assert "not finite" in report.note

    def test_disconnected_inconclusive(self):
        g = FiniteGraph(
            {0: 1, 1: 1, 5: 1, 6: 1},
            [(0, 1, 1), (5, 6, 1)],
            root=0,
        )
        report = check_backward_solvability(g, LocalFunction.delta(5), 2.0, 3, 1)
        assert report.verdict == INCONCLUSIVE
        # the first region vertex, in region order, off the root's component
        assert report.note == "audit region not connected to the root: no path from 5 to 0"
        assert math.isnan(report.scale) and math.isnan(report.rate) and report.witnesses == []

    def test_disconnected_note_names_vertices_by_repr(self):
        g = FiniteGraph(
            {"r": 1, "s": 1, "x": 1, "y": 1}, [("r", "s", 1), ("x", "y", 1)], root="r"
        )
        report = check_backward_solvability(g, LocalFunction.delta("y"), None, 2, 1)
        assert report.verdict == INCONCLUSIVE
        assert report.note == "audit region not connected to the root: no path from 'x' to 'r'"

    def test_audit_distances_come_from_one_root_walk(self, monkeypatch):
        g = path_graph(2000, root=1000)
        a = LocalFunction({1003: 1.0, 1004: -0.5})
        walks = []
        layers = Graph.layers

        def counted_layers(self, sources):
            walks.append(frozenset(sources))
            return layers(self, sources)

        def no_distance(self, x, y):
            raise AssertionError(f"per-vertex distance walk from {x!r}")

        monkeypatch.setattr(Graph, "layers", counted_layers)
        monkeypatch.setattr(Graph, "distance", no_distance)
        report = check_backward_solvability(g, a, None, 6, 3)
        assert report.verdict == CERTIFIED
        # audit_region's root ball and support spread, then the root walk
        assert sorted(walks, key=sorted) == [
            frozenset({1000}), frozenset({1000}), frozenset({1003, 1004})
        ]


    @pytest.mark.parametrize("cap", (math.nan, math.inf, -math.inf, Fraction(10 ** 400), "2"))
    def test_degree_cap_that_is_no_finite_number_named(self, cap):
        z, a = IntegerLine(), LocalFunction.delta(0)
        with pytest.raises(ValueError, match="degree cap"):
            check_backward_solvability(z, a, cap, 3, 1)

    @pytest.mark.parametrize("cap", (-1, -1e-300, Fraction(-1, 3)))
    def test_negative_degree_cap_named_before_any_graph_query(self, cap, monkeypatch):
        def no_query(*args):
            raise AssertionError("graph queried")

        monkeypatch.setattr(Graph, "layers", no_query)
        monkeypatch.setattr(Graph, "deg", no_query)
        z, a = IntegerLine(), LocalFunction.delta(0)
        with pytest.raises(ValueError) as refusal:
            check_backward_solvability(z, a, cap, 3, 1)
        assert str(refusal.value) == f"negative degree cap {cap!r}"

    @pytest.mark.parametrize("cap", (0, 0.0, Fraction(0)))
    def test_zero_degree_cap_is_met_by_an_edgeless_region(self, cap):
        g = FiniteGraph({"a": 1}, [], "a")
        report = check_backward_solvability(g, LocalFunction.delta("a"), cap, 2, 1)
        assert report.verdict == CERTIFIED and report.degree_cap == 0.0
        with pytest.raises(DegreeBoundError):
            check_backward_solvability(path_graph(2), LocalFunction.delta(0), cap, 2, 1)

    @pytest.mark.parametrize("kmax", (-1, -2, -5))
    def test_negative_kmax_named(self, kmax):
        z, a = IntegerLine(), LocalFunction.delta(0)
        with pytest.raises(ValueError, match="kmax"):
            audit_region(z, a, kmax, 1)
        with pytest.raises(ValueError, match="kmax"):
            check_backward_solvability(z, a, None, kmax, 1)


def _default_cap_cases():
    yield "z", IntegerLine(), LocalFunction.delta(0, 1.0), 8, 3
    yield "lattice2", IntegerLattice(2), LocalFunction({(0, 0): 1.0, (1, 0): -0.5}), 5, 2
    yield "tree3", RegularTree(3), LocalFunction.delta((), 1.0), 4, 2
    weighted = random_weighted_graph(15, seed=11)
    yield "weighted", weighted, LocalFunction({0: 0.75, 3: -1.0}), 6, 2
    exact = random_weighted_graph(12, seed=5, exact=True)
    yield "fraction", exact, LocalFunction({0: Fraction(1, 3), 2: Fraction(-5, 4)}), 6, 2
    yield "fraction-z", IntegerLine(), LocalFunction({0: Fraction(1, 2), 1: Fraction(-1, 3)}), 6, 1
    edgeless = FiniteGraph({"a": 1}, [], "a")
    yield "edgeless", edgeless, LocalFunction.delta("a", 1.0), 3, 1


DEFAULT_CAP_CASES = list(_default_cap_cases())


class TestDefaultDegreeCap:
    """degree_cap=None audits with the largest Deg over the audited region."""

    @pytest.mark.parametrize(
        "graph, a, kmax, rmax",
        [case[1:] for case in DEFAULT_CAP_CASES],
        ids=[case[0] for case in DEFAULT_CAP_CASES],
    )
    def test_equals_the_explicit_audited_maximum(self, graph, a, kmax, rmax):
        cap = max(graph.deg(x) for x in audit_region(graph, a, kmax, rmax))
        implicit = check_backward_solvability(graph, a, None, kmax, rmax)
        explicit = check_backward_solvability(graph, a, cap, kmax, rmax)
        assert implicit == explicit
        assert implicit.degree_cap == float(cap)


def reference_backward_audit(graph, a, degree_cap, kmax, rmax):
    """The backward audit as per-point loops over a list of points, before
    the matrix form."""
    if kmax < 0 or rmax < 0:
        raise ValueError("kmax and rmax must be nonnegative")
    if degree_cap is not None:
        require_degree_cap(degree_cap)
    region = audit_region(graph, a, kmax, rmax)
    if degree_cap is None:
        degree_cap = max(graph.degrees(region))
    else:
        for x, d in zip(region, graph.degrees(region)):
            if d > degree_cap:
                raise DegreeBoundError(x, d, degree_cap)
    verdict, scale, rate, witnesses, note = _reference_fit_envelope(
        graph, a, 2.0 * float(degree_cap), kmax, region
    )
    return BackwardSolvabilityReport(
        verdict=verdict,
        scale=scale,
        rate=rate,
        witnesses=witnesses,
        degree_cap=float(degree_cap),
        kmax=kmax,
        rmax=rmax,
        note=note,
    )


def _reference_fit_envelope(graph, a, base, kmax, region):
    dist = dict(zip(region, graph.distances_from_root(region)))
    for x in region:
        if dist[x] == math.inf:
            note = (
                "audit region not connected to the root: "
                f"no path from {x!r} to {graph.root!r}"
            )
            return INCONCLUSIVE, math.nan, math.nan, [], note

    table = IteratedLaplacianTable(graph, a)
    points = [
        (k, x, abs(float_or_inf(table.entry(k)(x))), _power_or_inf(base, k), dist[x])
        for k in range(kmax + 1)
        for x in region
    ]
    # an iterate beyond binary64 compares with no envelope, finite or not
    if not all(math.isfinite(v) for _, _, v, _, _ in points):
        note = "an audited iterate is not finite in binary64"
        return INCONCLUSIVE, math.nan, math.nan, [], note

    def envelope(rate, k, base_k, d):
        return base_k * exp_or_inf(rate * xlnx(k + d))

    for rate in SOLVABILITY_RATE_GRID:
        needed = 0.0
        worst = None
        for k, x, v, base_k, d in points:
            env = envelope(rate, k, base_k, d)
            # a zero cap gives a zero envelope for k >= 1, which only 0 meets
            ratio = v / env if env else (math.inf if v else 0.0)
            if ratio > needed:
                needed = ratio
                worst = (k, x, v, env)
        for scale in SOLVABILITY_SCALE_GRID:
            if needed <= scale:
                witnesses = []
                if worst is not None and worst[2] > 0:
                    k, x, v, env = worst
                    witnesses = [(k, x, v, scale * env)]
                return CERTIFIED, scale, rate, witnesses, ""

    top_scale = SOLVABILITY_SCALE_GRID[-1]
    top_rate = SOLVABILITY_RATE_GRID[-1]
    violations = [
        (k, x, v, top_scale * envelope(top_rate, k, base_k, d))
        for k, x, v, base_k, d in points
        if v > top_scale * envelope(top_rate, k, base_k, d)
    ]
    note = "no grid constants dominate the audited iterates"
    return REFUTED, top_scale, top_rate, violations[:20], note


BACKWARD_AUDIT_GRAPHS = {
    "z": IntegerLine(),
    "lattice:2": IntegerLattice(2),
    "tree:3": RegularTree(3),
    "float": random_weighted_graph(12, seed=3),
    "exact": random_weighted_graph(12, seed=5, exact=True),
    "isolated": FiniteGraph({0: 1}, [], 0),
}
#: vertices of z whose root distance no int64 holds, and no double
FAR_Z_VERTICES = (10 ** 30, -10 ** 400)


@st.composite
def backward_audit_cases(draw):
    """(graph name, data items, degree cap, kmax, rmax)."""
    name = draw(st.sampled_from(sorted(BACKWARD_AUDIT_GRAPHS)))
    graph = BACKWARD_AUDIT_GRAPHS[name]
    near = sorted(graph.ball(graph.root, 2), key=vertex_key)
    if name == "z":
        near += FAR_Z_VERTICES
    support = draw(st.lists(st.sampled_from(near), max_size=3, unique=True))
    value = st.one_of(
        st.floats(-4.0, 4.0),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
        st.sampled_from([1e9, -1e200, 1e200]),
    )
    items = tuple((x, draw(value)) for x in support)
    cap = draw(st.sampled_from([None, 0, 3, 1e200, 1e300]))
    # an edgeless graph takes long audits cheaply
    kmax = draw(st.integers(0, 200 if name == "isolated" else 5))
    return name, items, cap, kmax, draw(st.integers(0, 3))


def _backward_audit_outcome(audit, name, items, cap, kmax, rmax):
    graph = BACKWARD_AUDIT_GRAPHS[name]
    try:
        return repr(audit(graph, LocalFunction(dict(items)), cap, kmax, rmax))
    except (DegreeBoundError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


class TestBackwardAuditMatchesReference:
    @given(backward_audit_cases())
    # a zero cap's envelope 0 * e^{rate k ln k} is nan from k = 150 at the top rate
    @example(("isolated", ((0, 1e9),), 0, 200, 1))
    @example(("isolated", ((0, 1e9),), 0, 163, 1))
    # envelope products past binary64
    @example(("z", ((0, 1e200),), 1e300, 40, 1))
    @example(("lattice:2", (((0, 0), 1e200), ((1, 0), -0.5)), 1e200, 5, 2))
    # n = k + d past int64, then past binary64 (an OverflowError either way)
    @example(("z", ((10 ** 30, 0.5), (0, 1.0)), None, 3, 1))
    @example(("z", ((-10 ** 400, 1.0),), None, 2, 1))
    @example(("exact", ((0, Fraction(1, 3)), (2, Fraction(-5, 4))), None, 5, 2))
    # iterates past binary64: float, and exact ones read as inf
    @example(("z", ((0, 1e307),), None, 5, 1))
    @example(("z", ((0, 10 ** 308), (1, Fraction(1, 3))), None, 2, 1))
    @example(("exact", ((0, 10 ** 307), (1, Fraction(-1, 3))), None, 3, 1))
    @example(("tree:3", (((), Fraction(7, 2)),), 3, 4, 2))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_report_repr_equal(self, case):
        assert _backward_audit_outcome(check_backward_solvability, *case) == (
            _backward_audit_outcome(reference_backward_audit, *case)
        )


def reference_coefficient_audit(solution, profile, degree_growth, kmax, rmax):
    """The coefficient audit as a standalone loop, before the shared core."""
    dist = root_distances(solution.graph, rmax)
    order = sorted(dist, key=vertex_key)
    for x in order:
        if abs(solution.initial(x)) > profile.envelope(dist[x]):
            raise ValueError(
                f"initial data violates the growth profile at vertex {x!r}"
            )
    amp = float(profile.amplitude)
    rate = float(profile.rate) + float(degree_growth.power)
    base = 2.0 * float(degree_growth.cap)
    for k in range(kmax + 1):
        entry = solution.table.entry(k)
        for x in order:
            bound = amp * _power_or_inf(base, k) * exp_or_inf(rate * xlnx(k + dist[x]))
            v = abs(float(entry(x)))
            if v > bound:
                return CoefficientAuditReport(
                    passed=False, witness=(k, x, v, bound), kmax=kmax, rmax=rmax
                )
    return CoefficientAuditReport(passed=True, witness=None, kmax=kmax, rmax=rmax)


AUDIT_GRAPHS = (IntegerLine(), IntegerLattice(2), random_weighted_graph(12, seed=3))


def _audit_outcome(audit, graph, a, profile, growth, kmax, rmax):
    try:
        report = audit(SeriesSolution(graph, a), profile, growth, kmax, rmax)
    except ValueError as exc:
        return "refused", str(exc)
    return report.passed, report.witness


class TestCoefficientAuditMatchesReference:
    @given(
        st.sampled_from(AUDIT_GRAPHS),
        st.data(),
        st.floats(0.5, 10.0),
        st.floats(0.0, 1.5),
        st.floats(0.1, 4.0),
        st.floats(0.0, 1.0),
        st.integers(0, 8),
        st.integers(0, 4),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_passed_and_witness_equal(self, graph, data, amp, rate, cap, power, kmax, rmax):
        near = sorted(graph.ball(graph.root, 2), key=vertex_key)
        support = data.draw(
            st.lists(st.sampled_from(near), min_size=1, max_size=4, unique=True)
        )
        values = data.draw(
            st.lists(st.floats(-4.0, 4.0), min_size=len(support), max_size=len(support))
        )
        a = LocalFunction(dict(zip(support, values)))
        args = (graph, a, GrowthProfile(amp, rate), DegreeGrowth(cap, power), kmax, rmax)
        assert _audit_outcome(coefficient_bound_audit, *args) == _audit_outcome(
            reference_coefficient_audit, *args
        )


class TestCoefficientAudit:
    def test_delta_on_line_passes(self):
        z = IntegerLine()
        sol = SeriesSolution(z, LocalFunction.delta(0))
        report = coefficient_bound_audit(
            sol, GrowthProfile(1.0, 0.0), DegreeGrowth(2.0, 0.0), 20, 5
        )
        assert report.passed
        assert report.witness is None
        assert "initial data" in report.caveat

    def test_zero_data_passes(self):
        z = IntegerLine()
        sol = SeriesSolution(z, LocalFunction({}))
        report = coefficient_bound_audit(
            sol, GrowthProfile(1.0, 0.0), DegreeGrowth(2.0, 0.0), 10, 3
        )
        assert report.passed

    def test_corrupted_table_detected(self):
        z = IntegerLine()
        sol = SeriesSolution(z, LocalFunction.delta(0))
        entry = sol.table.entry(2)
        # fault injection: perturb the k = 2 entry at x = 1 where the audit reads it
        entry.vals[entry.pos == entry.index.positions[1]] = 1e9
        report = coefficient_bound_audit(
            sol, GrowthProfile(1.0, 0.0), DegreeGrowth(2.0, 0.0), 10, 4
        )
        assert not report.passed
        k, x, value, bound = report.witness
        assert k == 2 and x == 1
        assert value > bound

    def test_envelope_beyond_binary64_is_infinite(self):
        # (2 * 1e200)^k overflows from k = 2 on
        sol = SeriesSolution(IntegerLine(), LocalFunction.delta(0))
        report = coefficient_bound_audit(
            sol, GrowthProfile(1.0, 0.0), DegreeGrowth(1e200, 0.0), 4, 2
        )
        assert report.passed

    def test_profile_precondition_checked(self):
        z = IntegerLine()
        sol = SeriesSolution(z, LocalFunction.delta(0, 50.0))
        with pytest.raises(ValueError, match="growth profile"):
            coefficient_bound_audit(
                sol, GrowthProfile(1.0, 0.0), DegreeGrowth(2.0, 0.0), 5, 3
            )


class TestTailSoundness:
    def test_across_small_matrix(self):
        graphs = [cycle_graph(10), path_graph(12)]
        for g in graphs:
            sol = SeriesSolution(g, LocalFunction.delta(g.root), tol=1e-11)
            op = dense_laplacian(g)
            vec = op.vector_of(sol.initial)
            for t in (-0.1, -0.05, -0.01):
                ref = expm_apply(op, vec, t)
                for x in g.vertices():
                    res = series_eval(sol, x, t)
                    assert abs(res.value - ref[op.index[x]]) <= res.tail_bound + 1e-12


def naive_series_eval(solution, x, t):
    """EvalResult, or the exception series_eval must raise.

    The stopping rule and then the sum as plain loops, one term at a time
    and in order; the reference for the cached, array-based summation.  A
    float or int time t > 0 sums the Chebyshev series, and so does t < 0 on
    a regular graph with a measure floor; any other the Taylor series.
    """
    a = solution.initial
    if t == 0:
        return EvalResult(a(x), 0.0, 0)
    graph = solution.graph
    if not isinstance(t, Fraction) and (
            t > 0 or (graph.measure_floor() is not None and graph.is_regular)):
        return naive_chebyshev_eval(solution, x, float(t))
    rho = 2.0 * abs(float(t)) * float(solution.graph.uniform_degree_bound())
    tail_next = float(a.sup_norm()) * rho
    k, best = 0, math.inf
    while True:
        if not math.isfinite(tail_next):
            return TruncationFailureError("", best_bound=math.inf, terms_used=k)
        q = rho / (k + 2)
        if q < 0.5:
            bound = tail_next / (1.0 - q)
            best = min(best, bound)
            if bound <= solution.tol:
                break
        if k >= TERM_CAP:
            return TruncationFailureError("", best_bound=best, terms_used=k)
        k += 1
        tail_next = tail_next * rho / (k + 1)
    value, weight = a(x), 1
    try:
        for j in range(1, k + 1):
            weight = weight * t / j
            value = value + solution.table.entry(j)(x) * weight
    except OverflowError as exc:  # a huge Fraction times a float weight
        return exc
    return EvalResult(value, bound, k)


def naive_chebyshev_eval(solution, x, t):
    """The Chebyshev plan and sum as plain loops: the order by a linear scan
    of the tail bound, then w_0 T_0(x) + w_1 T_1(x) + ... term by term in
    binary64, the entries read off the solution's Chebyshev table.  Forward
    w_j = c_j at z = Dt; backward w_j = (-1)^j e^{2z} c_j at z = D|t|, and
    the tail is e^{2z} times the forward one."""
    graph, a, tol = solution.graph, solution.initial, solution.tol
    cap = graph.uniform_degree_bound()
    d = float(cap)
    if d < cap:
        d = math.nextafter(d, math.inf)
    norm = math.hypot(*(math.sqrt(graph.measure(y)) * abs(float(v)) for y, v in a.items()))
    if d == 0 or norm == 0:
        return EvalResult(a(x), 0.0, 0)
    z = d * abs(t) or 5e-324
    if not (math.isfinite(z) and math.isfinite(norm)):
        return TruncationFailureError("", best_bound=math.inf, terms_used=0)
    rise = 0.0 if t > 0 else 2 * z
    try:
        scale = math.exp(rise)
    except OverflowError:  # e^{2z} beyond binary64
        return TruncationFailureError("", best_bound=math.inf, terms_used=0)
    floor = graph.measure_floor()
    log_scale = math.log(norm) - 0.5 * math.log(floor) + rise
    log_scale += 2.0 ** -40 * (1 + abs(math.log(norm)) + abs(math.log(floor)) + rise)
    for k in range(TERM_CAP + 1):
        bound = math.nextafter(exp_or_inf(_chernoff_log_tail(k, z) + log_scale), math.inf)
        if bound <= tol:
            break
    else:
        return TruncationFailureError("", best_bound=bound, terms_used=TERM_CAP)
    if k == 0:
        return EvalResult(a(x), bound, 0)
    weights = bessel_weights(z, k)
    if t < 0:
        weights = [(-1) ** j * scale * c for j, c in enumerate(weights)]
    entry = solution.chebyshev_table.entry
    value = float(entry(0)(x)) * weights[0]
    for j in range(1, k + 1):
        value = value + float(entry(j)(x)) * weights[j]
    return EvalResult(value, bound, k)


def outcome(call):
    try:
        return call()
    except (TruncationFailureError, OverflowError) as exc:
        return exc


SUM_GRAPHS = {
    # name: (graph builder taking `exact`, data support, largest |t|)
    "z": (lambda exact: IntegerLine(), (-1, 0, 2), 20),
    # |t| <= 1 keeps the table near 2 * 45^2 vertices
    "lattice:2": (lambda exact: IntegerLattice(2), ((0, 0), (1, 0), (0, -1)), 1),
    "random": (lambda exact: random_weighted_graph(20, seed=3, exact=exact), (0, 3, 7), 20),
}
SUM_DATA = {
    # kind: (values on the support, the random graph's weights exact or not)
    "float": ((0.75, -1.25, 0.5), (False,)),
    "Fraction": ((Fraction(3, 4), Fraction(-5, 4), Fraction(1, 2)), (True,)),
    "int": ((3, -5, 2), (False, True)),
    "mixed": ((3, -1.25, Fraction(1, 2)), (False, True)),
    # ints beyond 2^53 round when they meet a float weight
    "mixed-big": ((10 ** 25 + 1, -0.75, Fraction(10 ** 15 + 1, 3)), (False, True)),
}


@functools.cache
def shared_solution(name, kind, exact):
    """One solution per graph and data kind, so its caches see many times."""
    build, support, _ = SUM_GRAPHS[name]
    data = LocalFunction(dict(zip(support, SUM_DATA[kind][0])))
    return SeriesSolution(build(exact), data)


def times_up_to(limit):
    return st.one_of(
        st.floats(min_value=-limit, max_value=limit),
        st.integers(min_value=-limit, max_value=limit),
        st.builds(Fraction, st.integers(min_value=-8 * limit, max_value=8 * limit), st.just(8)),
    )


@st.composite
def sum_cases(draw):
    name = draw(st.sampled_from(sorted(SUM_GRAPHS)))
    kind = draw(st.sampled_from(sorted(SUM_DATA)))
    solution = shared_solution(name, kind, draw(st.sampled_from(SUM_DATA[kind][1])))
    graph = solution.graph
    x = draw(st.sampled_from(sorted(graph.ball(graph.root, 3), key=repr)))
    return solution, x, draw(times_up_to(SUM_GRAPHS[name][2]))


def assert_same_as_the_naive_loop(solution, x, t):
    want = naive_series_eval(solution, x, t)
    got = outcome(lambda: series_eval(solution, x, t))
    assert type(got) is type(want)
    if isinstance(want, TruncationFailureError):
        assert (got.best_bound, got.terms_used) == (want.best_bound, want.terms_used)
    elif isinstance(want, EvalResult):
        # the huge terms of the random graph at large |t| can sum to nan
        assert got.value == want.value or (want.value != want.value and got.value != got.value)
        assert type(got.value) is type(want.value)
        assert got[1:] == want[1:]


class TestCachedSummation:
    @given(sum_cases())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_the_naive_loop(self, case):
        assert_same_as_the_naive_loop(*case)

    @pytest.mark.parametrize("name", sorted(SUM_GRAPHS))
    @pytest.mark.parametrize("kind, exact", [
        (kind, exact) for kind, (_, exacts) in SUM_DATA.items() for exact in exacts
    ])
    def test_every_data_kind_at_every_time_type(self, name, kind, exact):
        solution = shared_solution(name, kind, exact)
        limit = SUM_GRAPHS[name][2]
        times = (0.3, -0.75 * limit, 1, -limit, Fraction(3, 8), Fraction(-limit))
        for x in (solution.graph.root, *SUM_GRAPHS[name][1][1:]):
            for t in times:
                assert_same_as_the_naive_loop(solution, x, t)

    @pytest.mark.parametrize("data", (1, 1.0))
    @pytest.mark.parametrize("first, second", [(0.5, Fraction(1, 2)), (-0.0, 0)])
    def test_plan_key_separates_equal_times_of_different_types(self, data, first, second):
        z = IntegerLine()
        shared = SeriesSolution(z, LocalFunction.delta(0, data))
        for t in (first, second):
            for x in (0, 1, 5):
                fresh = series_eval(SeriesSolution(z, LocalFunction.delta(0, data)), x, t)
                res = series_eval(shared, x, t)
                assert res == fresh and type(res.value) is type(fresh.value)

    @pytest.mark.parametrize("name", sorted(SUM_GRAPHS))
    @pytest.mark.parametrize("kind, exact", [
        (kind, exact) for kind, (_, exacts) in SUM_DATA.items() for exact in exacts
    ])
    def test_int_times_sum_as_float_times(self, name, kind, exact):
        solution = shared_solution(name, kind, exact)
        limit = SUM_GRAPHS[name][2]
        for t in sorted({1, -1, -limit, limit}):
            plan = outcome(lambda: solution._plan(t))
            assert isinstance(plan, TruncationFailureError) or plan.weights.dtype == np.float64
            for x in (solution.graph.root, *SUM_GRAPHS[name][1][1:]):
                as_int = outcome(lambda: series_eval(solution, x, t))
                as_float = outcome(lambda: series_eval(solution, x, float(t)))
                assert type(as_int) is type(as_float)
                if isinstance(as_int, EvalResult):
                    assert type(as_int.value) is type(as_float.value) is float
                    assert repr(as_int.value) == repr(as_float.value)
                    assert as_int[1:] == as_float[1:]
                else:
                    assert repr(as_int) == repr(as_float)

    @pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf, Fraction(10 ** 400)))
    def test_non_finite_time_refused(self, t):
        sol = SeriesSolution(IntegerLine(), LocalFunction.delta(0, 1.0))
        with pytest.raises(ValueError, match="non-finite time"):
            series_eval(sol, 0, t)

    def test_table_grows_only_to_the_largest_order_used(self):
        sol = SeriesSolution(IntegerLine(), LocalFunction.delta(0, 1.0))
        forward = series_eval(sol, 3, 2.0).terms_used
        backward = series_eval(sol, 3, -2.0).terms_used
        for x in range(-3, 4):
            for t in (1.0, -1.0, 2.0, -2.0):
                series_eval(sol, x, t)
        # both signs read the Chebyshev table; the L^k table is never extended
        assert backward > forward
        assert len(sol.chebyshev_table) == backward + 1
        assert len(sol.table) == 1


# name: (graph builder, data support off the root, largest |t|); the limits
# keep the full tables these are compared with small
CONE_GRAPHS = {
    "z": (IntegerLine, (-2, 3), 2),
    "lattice:2": (lambda: IntegerLattice(2), ((2, -1), (0, 1)), 0.3),
    "lattice:3": (lambda: IntegerLattice(3), ((1, 0, -1), (0, 2, 0)), 0.1),
    "tree:3": (lambda: RegularTree(3), ((1,), (2, 0, 1)), 0.1),
    "random-float": (lambda: random_weighted_graph(20, seed=9), (4, 11), 1),
    "random-exact": (lambda: random_weighted_graph(16, seed=2, exact=True), (5, 9), 0.25),
    # two components; the root's is a path, the other a triangle
    "disconnected": (
        lambda: FiniteGraph(
            {i: 1 + (i % 2) for i in range(8)},
            [(0, 1, 1), (1, 2, 2), (2, 3, 1), (5, 6, 1), (6, 7, 3), (5, 7, 1)],
            root=0,
        ),
        (3, 6),
        1,
    ),
}


@st.composite
def cone_cases(draw):
    name = draw(st.sampled_from(sorted(CONE_GRAPHS)))
    build, support, limit = CONE_GRAPHS[name]
    graph = build()
    # the random graphs' weights fix the arithmetic; the families take either
    exact = {"random-float": False, "random-exact": True}.get(name)
    if exact is None:
        exact = draw(st.booleans())
    values = draw(st.lists(st.sampled_from((1, -3, 5)), min_size=len(support), max_size=len(support)))
    data = LocalFunction({x: Fraction(v, 4) if exact else v / 4 for x, v in zip(support, values)})
    return graph, data, draw(cone_windows(graph, support)), draw(cone_times(limit))


def cone_windows(graph, support):
    """Up to four vertices near the root or the data."""
    pool = sorted(graph.ball(graph.root, 3).union(*(graph.ball(x, 1) for x in support)), key=repr)
    return st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)


@st.composite
def cone_times(draw, limit):
    """Up to three times of |t| <= limit, int, float or Fraction, and repeats."""
    times = draw(st.lists(
        st.one_of(
            st.sampled_from((0, -0.0)),
            st.integers(-int(limit), int(limit)),
            st.floats(min_value=-limit, max_value=limit),
            st.builds(Fraction, st.integers(-int(8 * limit), int(8 * limit)), st.just(8)),
        ),
        min_size=1, max_size=3,
    ))
    return times + draw(st.lists(st.sampled_from(times), max_size=2))


#: Float data this large overflows to inf, then nan, within a few steps.
HUGE = 2.0 ** 1000


@st.composite
def grid_cases(draw):
    """A cone case with its float data made huge or not, and a second grid."""
    graph, data, window, times = draw(cone_cases())
    tol = 1e-11
    if all(type(v) is float for _, v in data.items()) and draw(st.booleans()):
        # a tolerance as large, so that the truncation orders stay small
        data, tol = data.scale(HUGE), HUGE * 1e-11
    limit = max(abs(float(t)) for t in times) or 0.1
    again = draw(cone_windows(graph, data.support)), draw(cone_times(limit))
    return graph, data, tol, (window, times), again


class TestLightCone:
    """`prefetch` sums what the full-table path sums, without extending the table."""

    @given(cone_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    # a window reaching into the component without the root
    @example((CONE_GRAPHS["disconnected"][0](), LocalFunction({3: 0.25, 6: -0.75}),
              [1, 7], [0.5, Fraction(-3, 8), 0]))
    def test_prefetched_sums_equal_the_full_table_sums(self, case):
        graph, data, window, times = case
        cone = SeriesSolution(graph, data)
        cone.prefetch(window, times)
        full = SeriesSolution(graph, data)
        assert len(cone.table) == 1
        for x in window:
            for t in times:
                got, want = series_eval(cone, x, t), series_eval(full, x, t)
                assert (type(got.value), repr(got.value)) == (type(want.value), repr(want.value))
                assert got[1:] == want[1:]
        assert len(cone.table) == 1

    @given(grid_cases())
    @settings(max_examples=40, deadline=None, derandomize=True)
    @example((IntegerLine(), LocalFunction({-2: 0.25 * HUGE, 3: -0.75 * HUGE}), HUGE * 1e-11,
              ([0, 3, -2], [2, -1.5, 2.0, -0.0]), ([1, 3], [Fraction(-3, 2), 2, 0, 1.25])))
    # huge data whose tail bound overflows before it reaches tol at |t| = 7/8
    @example((random_weighted_graph(20, seed=9), LocalFunction({4: 1.25 * HUGE, 11: 0.25 * HUGE}),
              HUGE * 1e-11, ([15, 18, 10], [Fraction(-7, 8), 0.5]), ([12, 4], [-0.25, 0])))
    def test_prefetched_sums_equal_fresh_per_point_sums(self, case):
        graph, data, tol, *grids = case
        solution = SeriesSolution(graph, data, tol=tol)
        fresh = SeriesSolution(graph, data, tol=tol)
        seen = ([], [])
        for window, times in grids:
            # prefetch refuses exactly when a point of its grid does
            refused = outcome(lambda: solution.prefetch(window, times))
            assert isinstance(refused, TruncationFailureError) == any(
                isinstance(outcome(lambda: series_eval(fresh, x, t)), TruncationFailureError)
                for x in window for t in times
            )
            seen[0].extend(window)
            seen[1].extend(times)
            for x in seen[0]:
                for t in seen[1]:
                    got = outcome(lambda: series_eval(solution, x, t))
                    want = outcome(lambda: series_eval(fresh, x, t))
                    if isinstance(want, EvalResult):
                        assert (type(got.value), repr(got.value)) == (type(want.value), repr(want.value))
                        assert got[1:] == want[1:]
                    else:
                        assert repr(got) == repr(want)

    def test_a_prefetched_pair_is_read_not_summed(self, monkeypatch):
        solution = SeriesSolution(IntegerLine(), LocalFunction({0: 1.0, 2: -0.5}))
        solution.prefetch([0, 1], [0.5, Fraction(1, 4)])
        calls = []
        sum_terms = heatseries.series._sum_terms

        def recording(columns, weights):
            calls.append(columns.shape)
            return sum_terms(columns, weights)

        monkeypatch.setattr(heatseries.series, "_sum_terms", recording)
        for x in (0, 1):
            for t in (0.5, Fraction(1, 4)):
                series_eval(solution, x, t)
        assert calls == []
        series_eval(solution, 2, 0.5)  # a vertex off the window
        series_eval(solution, 1, -0.5)  # a time off the grid
        assert len(calls) == 2

    @pytest.mark.parametrize("spec", ("lattice:2", "tree:3"))
    def test_lazy_family_expands_and_measures_in_bulk(self, spec, monkeypatch):
        graph = family_from_spec(spec)
        window = sorted(family_from_spec(spec).ball(graph.root, 2), key=vertex_key)
        calls = Counter()

        def counted(name):
            method = getattr(graph, name)

            def call(*args):
                calls[name] += 1
                return method(*args)
            return call

        for name in ("neighbors", "distance"):
            monkeypatch.setattr(graph, name, counted(name))
        cone = SeriesSolution(graph, LocalFunction.delta(graph.root, 1.0))
        cone.prefetch(window, [0.05, -0.02])
        # neither the per-vertex neighbor oracle nor the metric ran
        assert calls == Counter()
        monkeypatch.undo()
        full = SeriesSolution(family_from_spec(spec), cone.initial)
        for x in window:
            for t in (0.05, -0.02):
                assert series_eval(cone, x, t) == series_eval(full, x, t)

    @pytest.mark.parametrize("window", ([10 ** 400 - 1, 10 ** 400, 10 ** 400 + 2], [0, 1]),
                             ids=("near-the-data", "at-the-root"))
    def test_data_beyond_binary64(self, window):
        # root distances no double holds are cut exactly
        data = LocalFunction({10 ** 400: 1.0, 10 ** 400 + 3: -0.5, 1: 0.25})
        cone = SeriesSolution(IntegerLine(), data)
        cone.prefetch(window, [0.5, -0.2])
        full = SeriesSolution(IntegerLine(), data)
        for x in window:
            for t in (0.5, -0.2):
                assert series_eval(cone, x, t) == series_eval(full, x, t)

    def test_finite_graph_walks_from_the_root_once(self, monkeypatch):
        graph = path_graph(2000, root=1000)
        window = list(range(996, 1006))
        walks = []
        layers = Graph.layers

        def recording(self, sources):
            sources = tuple(sources)
            walks.append(sources)
            return layers(self, sources)

        def no_distance(self, x, y):
            raise AssertionError("per-vertex distance walk")

        monkeypatch.setattr(Graph, "layers", recording)
        monkeypatch.setattr(Graph, "distance", no_distance)
        cone = SeriesSolution(graph, LocalFunction({999: 1.0, 1003: -0.5}))
        cone.prefetch(window, [0.5, -1.0])
        assert walks == [(1000,)]
        monkeypatch.undo()
        full = SeriesSolution(graph, cone.initial)
        for x in window:
            for t in (0.5, -1.0):
                assert series_eval(cone, x, t) == series_eval(full, x, t)

    def test_refusals_are_those_of_series_eval(self):
        z = IntegerLine()
        sol = SeriesSolution(z, LocalFunction.delta(0, 1.0), tol=1e-300)
        with pytest.raises(TruncationFailureError):
            sol.prefetch([0, 1], [0.5, 1e3])
        with pytest.raises(ValueError, match="non-finite time"):
            sol.prefetch([0], [math.nan])
        cert = radius_estimate(GrowthProfile(1.0, 1.0), DegreeGrowth(2.0, 0.0))
        sol = SeriesSolution(z, LocalFunction.delta(0), certificate=cert)
        with pytest.raises(RadiusExceededError):
            sol.prefetch([0], [1.0])
        sol.prefetch([], [1.0])  # no vertex, no evaluation, nothing to refuse


def max_row(graph):
    """The longest kernel row of a finite graph: a vertex and its neighbours."""
    return 1 + max(len(graph.neighbors(x)) for x in graph.vertices())


def rounding_allowance(solution, x, t, terms, row):
    """`chebyshev_rounding_bound` at (x, t), in the units of a value."""
    z = solution.chebyshev_table.step.d * t
    scale = solution.l2_norm() / math.sqrt(solution.graph.measure(x))
    return chebyshev_rounding_bound(z, terms, row) * scale


def assert_within_certificate(solution, window, times, reference, row, slack=0.0):
    """Every prefetched forward value within its tail bound plus the rounding
    budget (plus `slack` for the reference's own error) of `reference(x, t)`."""
    solution.prefetch(window, times)
    for t in times:
        for x in window:
            res = series_eval(solution, x, t)
            allowed = res.tail_bound + rounding_allowance(solution, x, t, res.terms_used, row)
            assert abs(res.value - reference(x, t)) <= allowed + slack, (x, t)


def lattice_reference(data, absolute=False):
    """u(x, t) = sum_y a(y) prod_i e^{-2t} I_{x_i - y_i}(2t) on Z^d, from
    mpmath; on Z a vertex is an int, elsewhere a tuple.  With `absolute`,
    the magnitude sum M(x, t) = (e^{|t| |L|} |a|)(x) instead, |L| = 2d + A:
    the kernel is e^{2|t|} I_n(2|t|) and the data |a|."""
    if absolute:
        data = {y: abs(a) for y, a in data.items()}

    @functools.cache
    def kernel(n, t):
        if absolute:
            return mp.exp(2 * abs(t)) * mp.besseli(abs(n), 2 * abs(t))
        return mp.exp(-2 * t) * mp.besseli(abs(n), 2 * t)

    def value(x, t):
        with mp.workdps(40):
            total = mp.mpf(0)
            for y, a in data.items():
                term = mp.mpf(a)
                for xi, yi in zip(*((v,) if type(v) is int else v for v in (x, y))):
                    term *= kernel(xi - yi, mp.mpf(t))
                total += term
            return float(total)
    return value


def radial_tree_reference(degree, profile, t_max, absolute=False):
    """u on the k-regular tree for radial data `profile` (value by distance),
    summed as the exact Taylor series of the radial chain in
    `tree_radial_reduction` with mpmath at 40 digits.  The chain reaches past
    every order summed, so it is the tree's own radial part.  With
    `absolute`, the magnitude sum (e^{|t| |L|} |a|)(x) instead."""
    rho = 2 * degree * abs(t_max)
    order = 1
    while rho ** order / math.factorial(order) > 1e-30 or order < 2 * rho:
        order += 1
    op = dense_laplacian(tree_radial_reduction(degree, order + len(profile) + 1))
    n = op.n
    sign = abs if absolute else (lambda c: c)
    rows = [[(j, sign(mp.mpf(op.matrix[i, j].numerator) / op.matrix[i, j].denominator))
             for j in range(max(0, i - 1), min(n, i + 2)) if op.matrix[i, j]] for i in range(n)]

    @functools.cache
    def at(t):
        t = sign(t)
        with mp.workdps(40):
            term = [mp.mpf(sign(profile[d])) if d < len(profile) else mp.mpf(0)
                    for d in range(n)]
            total = list(term)
            for k in range(1, order + 1):
                term = [sum(c * term[j] for j, c in row) * t / k for row in rows]
                total = [s + v for s, v in zip(total, term)]
            return [float(v) for v in total]

    return lambda x, t: at(t)[len(x)]


def seeded_data(support, seed):
    rng = random.Random(seed)
    return LocalFunction({x: rng.uniform(-1.0, 1.0) for x in support})


FIVE_VALUES = (0.245803, 0.483574, 0.590387, 0.884901, 0.479797)


def five_point_data(spec):
    """(graph maker, data): five float values on vertices within distance 2
    of the root, in an order that no walk gives."""
    if spec == "random":
        return (lambda: random_weighted_graph(30, seed=3),
                LocalFunction(dict(zip((7, 0, 19, 3, 12), FIVE_VALUES))))
    dim = int(spec.partition(":")[2])
    unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    neg = [tuple(-c for c in e) for e in unit]
    support = (unit[0], (0,) * dim, neg[-1], unit[-1], neg[0])
    return lambda: family_from_spec(spec), LocalFunction(dict(zip(support, FIVE_VALUES)))


class TestValuesDependOnlyOnTheQuestion:
    """A float value depends on the graph, the data and t: not on the walks,
    degrees or kernel steps that ran on the graph before it."""

    @pytest.mark.parametrize("spec", ("lattice:2", "lattice:3", "random"))
    @pytest.mark.parametrize("times", ([1.0], [-0.5], [-3.0], [2.0, -1.0]),
                             ids=("t=1", "t=-0.5", "t=-3", "grid"))
    def test_prefetched_values_ignore_earlier_queries(self, spec, times):
        make, data = five_point_data(spec)

        def values(before):
            graph = make()
            root = graph.root
            before(graph, root)
            solution = SeriesSolution(graph, data)
            window = sorted(graph.ball(root, 2), key=vertex_key)
            solution.prefetch(window, times)
            return [repr(series_eval(solution, x, t).value) for x in window for t in times]

        fresh = values(lambda graph, root: None)
        assert values(lambda graph, root: graph.ball(root, 4)) == fresh
        assert values(lambda graph, root: [graph.deg(x) for x in graph.ball(root, 3)]) == fresh
        # a kernel step that numbers the vertices of another datum first
        probe = make()
        far = max(probe.sphere(probe.root, 3), key=vertex_key)
        assert values(lambda graph, root: apply_laplacian(
            graph, LocalFunction.delta(far, 1.0))) == fresh


class TestChebyshevForward:
    """Forward float rows within `tail_bound` plus the rounding budget of the
    closed forms, and the forward path's degenerate cases."""

    @pytest.mark.parametrize("data", ["delta", "float"])
    def test_lattice2_closed_form(self, data):
        graph = IntegerLattice(2)
        a = (LocalFunction.delta((0, 0), 1.0) if data == "delta"
             else seeded_data(sorted(graph.ball((0, 0), 1)), 11))
        window = sorted(graph.ball((0, 0), 2), key=vertex_key)
        times = [0.01, 0.7, 3.0, 12.5, 50.0]
        assert_within_certificate(SeriesSolution(graph, a), window, times,
                                  lattice_reference(dict(a.items())), row=5)

    def test_z_term_counts(self):
        sol = SeriesSolution(IntegerLine(), LocalFunction.delta(0, 1.0))
        assert [series_eval(sol, 0, t).terms_used for t in (2.0, 20.0, 50.0)] == [19, 48, 74]
        assert_within_certificate(sol, list(range(-3, 4)), [0.5, 20.0, 50.0],
                                  lattice_reference({0: 1.0}), row=3)

    @pytest.mark.parametrize("profile", [(1.0,), (0.75, -0.5, 0.25)])
    def test_tree3_radial_chain(self, profile):
        graph = RegularTree(3)
        a = LocalFunction({w: profile[len(w)] for w in graph.ball((), len(profile) - 1)})
        window = sorted(graph.ball((), 2), key=vertex_key)
        times = [0.05, 0.5, 1.0, 2.0]
        reference = radial_tree_reference(3, profile, max(times))
        assert_within_certificate(SeriesSolution(graph, a), window, times, reference, row=4)

    @pytest.mark.parametrize("graph", [random_weighted_graph(20, seed=5), cycle_graph(12),
                                       path_graph(9)], ids=["random", "cycle", "path"])
    def test_finite_graphs_against_the_oracle(self, graph):
        a = seeded_data(graph.vertices()[::3], 7)
        op = dense_laplacian(graph)
        vec = op.vector_of(a)
        times = [0.05, 1.0, 5.0, 20.0, 50.0]
        refs = {t: expm_apply(op, vec, t) for t in times}
        # the oracle's own error, far below 1e-13 of the data's size by its docstring
        assert_within_certificate(SeriesSolution(graph, a), graph.vertices(), times,
                                  lambda x, t: refs[t][op.index[x]], row=max_row(graph),
                                  slack=1e-13)

    @pytest.mark.parametrize("case", ["lattice:2", "random"])
    def test_budget_bounds_the_measured_rounding(self, case):
        """Against the exact partial sum sum_{j<=K} c_j T_j(S) a of the same
        data, mpmath at 60 digits, the error is the rounding alone."""
        if case == "lattice:2":
            graph, t, row = IntegerLattice(2), 1.0, 5
            a = seeded_data(sorted(graph.ball((0, 0), 1)), 3)
            window = sorted(graph.ball((0, 0), 2), key=vertex_key)
        else:
            graph, t = random_weighted_graph(16, seed=21), 3.0
            row = max_row(graph)
            a = seeded_data(graph.vertices()[::2], 4)
            window = list(graph.vertices())
        sol = SeriesSolution(graph, a)
        sol.prefetch(window, [t])
        terms = series_eval(sol, window[0], t).terms_used
        d = sol.chebyshev_table.step.d
        with mp.workdps(60):
            z = mp.mpf(d) * t
            coefs = [mp.exp(-z) * mp.besseli(j, z) * (2 if j else 1) for j in range(terms + 1)]
            d = mp.mpf(d)

            def s_of(f):
                out = dict(f)
                for x, v in f.items():
                    for y, w in graph.neighbors(x):
                        out[y] = out.get(y, 0) + mp.mpf(w) * v / (mp.mpf(graph.measure(y)) * d)
                    out[x] -= sum(mp.mpf(w) for _, w in graph.neighbors(x)) * v / (
                        mp.mpf(graph.measure(x)) * d)
                return out

            prev, cur = None, {x: mp.mpf(v) for x, v in a.items()}
            exact = {x: coefs[0] * cur.get(x, 0) for x in window}
            for j in range(1, terms + 1):
                nxt = s_of(cur)
                if prev is not None:
                    nxt = {x: 2 * nxt.get(x, 0) - prev.get(x, 0) for x in nxt.keys() | prev.keys()}
                prev, cur = cur, nxt
                for x in window:
                    exact[x] += coefs[j] * cur.get(x, 0)
            worst = 0.0
            for x in window:
                err = abs(mp.mpf(series_eval(sol, x, t).value) - exact[x])
                allowed = rounding_allowance(sol, x, t, terms, row)
                assert err <= allowed, (x, float(err), allowed)
                worst = max(worst, float(err / allowed))
        assert worst > 0  # the check has something to bound

    @pytest.mark.parametrize("z", [1e-300, 1e-5, 0.3, 4.0, 40.0, 600.0])
    def test_bessel_weights_and_chernoff_tail(self, z):
        k = 5 if z < 1 else int(2 * math.sqrt(z)) + 10
        weights = bessel_weights(z, k)
        with mp.workdps(40):
            true = [mp.exp(-z) * mp.besseli(j, z) * (2 if j else 1) for j in range(k + 1)]
            assert sum(abs(w - c) for w, c in zip(weights, true)) <= 1e-13
            for j in (0, 1, k // 2, k):
                tail = 1 - sum(true[: j + 1])
                if tail > 0:  # else below the working precision
                    assert mp.log(tail) <= _chernoff_log_tail(j, z)

    def test_edgeless_graph_returns_the_data(self):
        graph = FiniteGraph({0: 1, 1: 2.5}, [], 0)
        sol = SeriesSolution(graph, LocalFunction({0: 3, 1: -0.5}))
        assert series_eval(sol, 0, 1e300) == (3, 0.0, 0)
        assert series_eval(sol, 1, 2) == (-0.5, 0.0, 0)
        assert sol.chebyshev_table is None

    @pytest.mark.parametrize("data", [{}, {0: 0.0}, {0: 0, 3: Fraction(0)}])
    def test_zero_data_returns_the_data(self, data):
        sol = SeriesSolution(IntegerLine(), LocalFunction(data))
        for t in (0.5, 1e300, 5e-324):
            res = series_eval(sol, 0, t)
            assert res == (data.get(0, 0), 0.0, 0)

    @pytest.mark.parametrize("t, message", [
        (1e308, r"\|\|a\|\|_2 = 1, z = Dt = inf is not finite"),
        (1e6, r"within 400 terms: \|\|a\|\|_2 = 1, z = Dt = 2e\+06"),
    ])
    def test_time_beyond_reach_named(self, t, message):
        sol = SeriesSolution(IntegerLine(), LocalFunction.delta(0, 1.0))
        with pytest.raises(TruncationFailureError, match=message):
            series_eval(sol, 0, t)
        assert len(sol.chebyshev_table) == 1

    def test_norm_beyond_binary64_named(self):
        big = LocalFunction({x: 1e308 for x in range(4)})
        sol = SeriesSolution(IntegerLine(), big)
        with pytest.raises(TruncationFailureError, match=r"\|\|a\|\|_2 = inf, z = Dt = 2 "):
            series_eval(sol, 0, 1.0)
        with pytest.raises(TruncationFailureError,
                           match=r"\|\|a\|\|_2 = inf, z = D\|t\| = 2 "):
            series_eval(sol, 0, -1.0)
        assert len(sol.table) == len(sol.chebyshev_table) == 1

    def test_table_that_can_overflow_named(self):
        sol = SeriesSolution(IntegerLine(), LocalFunction({0: 1e308}))
        with pytest.raises(TruncationFailureError, match=r"the Chebyshev table can overflow "
                           r"binary64: \|\|a\|\|_2 = 1e\+308, z = Dt = 2, D = 2$"):
            series_eval(sol, 0, 1.0)
        assert len(sol.chebyshev_table) == 1

    def test_tiny_time_sums_the_data(self):
        sol = SeriesSolution(IntegerLattice(2), LocalFunction({(0, 0): 0.5, (1, 0): -2.0}))
        for t in (5e-324, 1e-310, 1e-200):
            res = series_eval(sol, (1, 0), t)
            assert (res.value, res.terms_used) == (-2.0, 1)
            assert 0 < res.tail_bound <= 1e-190

    def test_graph_without_measure_floor_refused_forward(self):
        class Weighted(IntegerLine):
            def _measure(self, x):
                return 2

        sol = SeriesSolution(Weighted(), LocalFunction.delta(0, 1.0))
        # backward, such a graph keeps the Taylor series and its L^k table
        for x in (0, 1, 4):
            assert series_eval(sol, x, -0.5) == naive_series_eval(sol, x, -0.5)
        assert sol._plan(-0.5).table is sol.table and sol._chebyshev is None
        with pytest.raises(ValueError, match="no measure floor"):
            series_eval(sol, 0, 0.5)
        big = SeriesSolution(Weighted(), LocalFunction({x: 1e308 for x in range(4)}))
        with pytest.raises(TruncationFailureError,
                           match=r"sup\|a\| = 1e\+308, 2\|t\|D = 4$"):
            series_eval(big, 0, -1.0)


def hub_graph(leaves, hub_measure):
    """A star: hub 0 joined to `leaves` leaves by unit weights, the hub of
    measure `hub_measure` and each leaf of measure 1.  With `hub_measure`
    equal to `leaves` every Deg is 1, so the graph is regular."""
    return FiniteGraph({0: hub_measure, **dict.fromkeys(range(1, leaves + 1), 1)},
                       [(0, i, 1) for i in range(1, leaves + 1)], 0)


def mp_heat_reference(graph, data, t):
    """{x: u(x, t)} on a finite graph as floats, from the Taylor series of
    e^{tL} a in mpmath at a precision past its cancellation."""
    vertices = graph.vertices()
    rows = {x: [(y, mp.mpf(w) / graph.measure(x)) for y, w in graph.neighbors(x)]
            for x in vertices}
    rho = abs(t) * 2 * float(graph.uniform_degree_bound())
    with mp.workdps(30 + int(rho / math.log(10))):
        term = {x: mp.mpf(data(x)) for x in vertices}
        total = dict(term)
        k = 0
        while k < 2 * rho + 2 or max(map(abs, term.values())) > mp.mpf(10) ** -40:
            k += 1
            term = {x: mp.mpf(t) / k * mp.fsum(c * (term[y] - term[x]) for y, c in rows[x])
                    for x in vertices}
            for x in vertices:
                total[x] += term[x]
        return {x: float(v) for x, v in total.items()}


def assert_within_envelope(solution, window, times, reference, magnitude, deg):
    """Every prefetched value within its tail bound plus the rounding envelope
    2 ((deg + 6) K + 1) u M(x, t) of `reference(x, t)`, M(x, t) being
    `magnitude(x, t)` = (e^{|t| |L|} |a|)(x) and u = 2^-53, as in
    heatbench/reference.py."""
    solution.prefetch(window, times)
    for t in times:
        for x in window:
            res = series_eval(solution, x, t)
            m = magnitude(x, t)
            allowed = res.tail_bound + 2 * ((deg + 6) * res.terms_used + 1) * 2.0 ** -53 * m
            assert abs(res.value - reference(x, t)) <= allowed, (x, t, res)


class TestChebyshevBackward:
    """Float t < 0 on a regular graph sums e^{2z} sum_k (-1)^k c_k T_k(S) a,
    z = D|t|, on the forward table: rows within the envelope of the closed
    forms.  Other graphs keep the Taylor series."""

    def test_z_term_counts_and_closed_form(self):
        sol = SeriesSolution(IntegerLine(), LocalFunction.delta(0, 1.0))
        times = [-2.0, -5.0, -10.0, -20.0]
        assert [series_eval(sol, 0, t).terms_used for t in times] == [22, 37, 61, 106]
        # 25 and 30 lie past the cone at t = -2 (K = 22): the value is 0 there
        window = list(range(-3, 4)) + [25, 30]
        assert_within_envelope(sol, window, [-0.01, -0.5] + times, lattice_reference({0: 1.0}),
                               lattice_reference({0: 1.0}, absolute=True), deg=2)
        assert series_eval(sol, 30, -2.0).value == 0.0

    def test_z_answered_where_taylor_gave_up(self):
        sol = SeriesSolution(IntegerLine(), LocalFunction.delta(0, 1.0))
        res = series_eval(sol, 0, -60.0)
        assert res.terms_used == 285
        assert res.value == pytest.approx(float(mp.exp(120) * mp.besseli(0, 120)), rel=1e-14)

    @pytest.mark.parametrize("data", ["delta", "float"])
    def test_lattice2_closed_form(self, data):
        graph = IntegerLattice(2)
        a = (LocalFunction.delta((0, 0), 1.0) if data == "delta"
             else seeded_data(sorted(graph.ball((0, 0), 1)), 11))
        window = sorted(graph.ball((0, 0), 2), key=vertex_key)
        values = dict(a.items())
        assert_within_envelope(SeriesSolution(graph, a), window, [-0.01, -0.7, -3.0, -12.5, -20.0],
                               lattice_reference(values),
                               lattice_reference(values, absolute=True), deg=4)

    @pytest.mark.parametrize("profile", [(1.0,), (0.75, -0.5, 0.25)])
    def test_tree3_radial_chain(self, profile):
        graph = RegularTree(3)
        a = LocalFunction({w: profile[len(w)] for w in graph.ball((), len(profile) - 1)})
        window = sorted(graph.ball((), 2), key=vertex_key)
        # the tree's balls grow as 2^r, so the times stop at -1 (K = 19)
        times = [-0.05, -0.5, -1.0]
        value = radial_tree_reference(3, profile, -1.0)
        magnitude = radial_tree_reference(3, profile, -1.0, absolute=True)
        assert_within_envelope(SeriesSolution(graph, a), window, times,
                               value, magnitude, deg=3)

    @pytest.mark.parametrize("graph, times, chebyshev", [
        (cycle_graph(12), [-0.05, -1.0, -5.0, -20.0], True),
        (complete_graph(5), [-0.05, -1.0, -5.0], True),
        (hub_graph(6, 6), [-0.05, -1.0, -5.0, -20.0], True),
        # the L^k table overflows past these times (see `CHANGES.md`)
        (random_weighted_graph(20, seed=5), [-0.05, -1.0], False),
        (path_graph(9), [-0.05, -1.0, -5.0, -20.0], False),
        (hub_graph(40, 1), [-0.05, -0.3, -0.6], False),
    ], ids=["cycle", "complete", "hub-regular", "random", "path", "hub"])
    def test_finite_graphs_within_the_envelope(self, graph, times, chebyshev):
        """Against the Taylor series in mpmath.  A regular graph sums on the
        Chebyshev table; a graph of uneven degrees keeps the Taylor series,
        since the Chebyshev sum cancels on the scale e^{2D|t|} ||a||, while
        M = e^{|t| |L|} |a| grows only like e^{|t| lambda}, lambda the top
        eigenvalue of |L|, which is 2D on a regular graph alone (40 + 1 on
        the 40-leaf hub, D = 40: at t = -0.6 the Chebyshev sum would miss by
        about e^{0.6 (80 - 41)} = 1.5e10)."""
        a = seeded_data(graph.vertices()[::3], 7)
        op = dense_laplacian(graph)
        absolute = DenseOperator(abs(op.matrix), op.order, op.index)
        deg = max_row(graph) - 1
        sol = SeriesSolution(graph, a)
        sol.prefetch(graph.vertices(), times)
        for t in times:
            assert (sol._plan(t).table is sol.chebyshev_table) is chebyshev
            want = mp_heat_reference(graph, a, t)
            mag = expm_apply(absolute, abs(op.vector_of(a)), -t)
            for x in graph.vertices():
                res = series_eval(sol, x, t)
                allowed = (res.tail_bound
                           + 2 * ((deg + 6) * res.terms_used + 1) * 2.0 ** -53 * mag[op.index[x]])
                assert abs(res.value - want[x]) <= allowed, (x, t, res)

    @pytest.mark.parametrize("size, t, message", [
        (1.0, -200.0, r"the backward scale e\^\(2z\) is not finite in binary64: "
                      r"\|\|a\|\|_2 = 1, z = D\|t\| = 400$"),
        # data so small that the tail alone would reach tol, with weights of inf
        (1e-300, -180.0, r"the backward scale e\^\(2z\) is not finite in binary64: "
                         r"\|\|a\|\|_2 = 1e-300, z = D\|t\| = 360$"),
        (1.0, -100.0, r"within 400 terms: \|\|a\|\|_2 = 1, z = D\|t\| = 200$"),
    ])
    def test_time_beyond_reach_named(self, size, t, message):
        sol = SeriesSolution(IntegerLine(), LocalFunction.delta(0, size))
        with pytest.raises(TruncationFailureError, match=message):
            series_eval(sol, 0, t)
        assert len(sol.chebyshev_table) == len(sol.table) == 1

    def test_weights_alternate_around_the_forward_ones(self):
        sol = SeriesSolution(IntegerLattice(2), LocalFunction.delta((0, 0), 1.0))
        back, fwd = sol._plan(-1.5), sol._plan(1.5)
        z = sol.chebyshev_table.step.d * 1.5
        assert back.table is fwd.table is sol.chebyshev_table
        assert back.k > fwd.k
        want = [(-1) ** j * math.exp(2 * z) * c for j, c in enumerate(bessel_weights(z, back.k))]
        assert back.weights.tolist() == want
        assert back.bound > 0 and back.bound <= sol.tol
