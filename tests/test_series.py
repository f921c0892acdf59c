import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    cycle_graph,
    path_graph,
    random_weighted_graph,
    vertex_key,
)
from heatseries.oracle import dense_laplacian, expm_apply
from heatseries.series import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    TERM_CAP,
    CoefficientAuditReport,
    EvalResult,
    SeriesSolution,
    _power_or_inf,
    audit_region,
    backward_solve,
    check_backward_solvability,
    coefficient_bound_audit,
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
        entry._values[1] = 1e9  # fault injection: perturb the k = 2 entry
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
    and in order; the reference for the cached, array-based summation.
    """
    a = solution.initial
    if t == 0:
        return EvalResult(a(x), 0.0, 0)
    rho = 2.0 * abs(float(t)) * float(solution.graph.uniform_degree_bound())
    tail_next = float(a.sup_norm()) * rho
    k, best = 0, math.inf
    while True:
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
        big_k = series_eval(sol, 3, 2.0).terms_used
        for x in range(-3, 4):
            series_eval(sol, x, 1.0)
            series_eval(sol, x, -2.0)
        assert len(sol.table) == big_k + 1


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
