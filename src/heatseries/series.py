"""Time power series u(x,t) = sum_k L^k a(x) t^k / k! with certified tails.

The coefficient sequence is the iterated-Laplacian table of the initial
data; every evaluation reports a rigorous tail bound derived from the
chained one-ring estimate, so a returned value is always accompanied by the
radius of trust around it.  The backward Cauchy problem is the same series
at negated time.

Besides its iterate table, a solution caches one plan per distinct time:
the truncation order K and its tail bound, which depend on t alone, the
weights t^k / k! for k <= K, and the values of the last grid `prefetch`
summed at that time, which `series_eval` reads.  Any other evaluation is
one sequential sum of the coefficients L^k a(x), k <= K, read off the full
iterate table, times the weights, in the arithmetic of its time: Python
objects when t is a `Fraction`, binary64 otherwise.  An int time is summed
in binary64 too, since t^k / k! is a float for k >= 1 when t is an int.  At such a time
every term but the first is a float whatever the data, since Python rounds
an int or Fraction coefficient to the nearest double when it multiplies it
by a float weight, so the binary64 sum gives the bits the term-by-term loop
gives.  A Fraction time keeps exact data exact.  `prefetch` evaluates a
whole grid of vertices and times in one pass that computes L^k a only where
it can still reach those vertices by step K, with the values the full
table gives, and sums it with one array accumulate per time that adds each
vertex's terms left to right as the sequential sum does, so the values are
the same too.  The plans grow with the distinct times asked for and live as
long as the solution.  Like its graph, a solution is filled on demand
without locks and must not be shared between threads.

Two audits check the growth envelope |L^k a(x)| <= A (2C)^k
e^{rate (k+d) ln(k+d)} of the coefficients: the backward-solvability audit
fits A and rate on grids, the coefficient audit checks given constants.
Both read one point source, `_envelope_points`, which yields
(k, x, |L^k a(x)|, (2C)^k, d(x)) k-major over a fixed vertex order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

import numpy as np

from .bounds import exp_or_inf, root_distances, xlnx
from .errors import DegreeBoundError, RadiusExceededError, TruncationFailureError
from .graphs import LocalFunction, float_or_inf, require_finite, vertex_key
from .laplacian import (
    IteratedLaplacianTable,
    apply_laplacian,
    laplacian_at,
    light_cone_iterates,
    window_values,
)

#: Hard cap on the number of series terms per evaluation.
TERM_CAP = 400

#: Grids over which the backward-solvability audit fits its two constants.
SOLVABILITY_RATE_GRID = tuple(i / 20 for i in range(20))
SOLVABILITY_SCALE_GRID = tuple(10.0 ** i for i in range(-6, 7))

CERTIFIED = "certified"
REFUTED = "refuted-up-to-K"
INCONCLUSIVE = "inconclusive"


class EvalResult(NamedTuple):
    value: object
    tail_bound: float
    terms_used: int


class _Plan:
    """The summation at one time: its order `k` = K, tail `bound` and
    `weights` t^j / j! for j <= K, plus the sums the last `prefetch` of
    this time made, the value at x being `sums[slots[x]]`."""

    __slots__ = ("k", "bound", "weights", "slots", "sums")

    def __init__(self, k, bound, weights):
        self.k = k
        self.bound = bound
        self.weights = weights
        self.slots = {}
        self.sums = None


@dataclass
class SeriesSolution:
    """A series propagator for one graph and one finitely supported datum.

    Evaluations at distinct (vertex, time) pairs are independent; they share
    one coefficient table that extends on demand and the per-time plans,
    with the sums `prefetch` keeps on them.  The graph must report a uniform
    degree bound (all built-in graphs do), since that constant drives the
    certified truncation.  `tol` must be positive and finite in binary64.
    The type of the time alone picks the arithmetic of a sum: Python objects
    when t is a `Fraction`, binary64 otherwise.
    """

    graph: object
    initial: LocalFunction
    tol: float = 1e-11
    certificate: object = None
    table: IteratedLaplacianTable = field(init=False, repr=False)

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        require_finite("tolerance", self.tol)
        self.table = IteratedLaplacianTable(self.graph, self.initial)
        self._sup = float(self.initial.sup_norm())
        cap = self.graph.uniform_degree_bound()
        if cap is None:
            raise ValueError(
                "graph reports no uniform degree bound; implement "
                "uniform_degree_bound() to enable certified truncation"
            )
        self._deg_cap = float(cap)
        self._derivative = None
        self._plans = {}

    def derivative_solution(self):
        """Series for the time derivative: same machinery, initial data L a."""
        if self._derivative is None:
            self._derivative = SeriesSolution(
                self.graph,
                apply_laplacian(self.graph, self.initial),
                tol=self.tol,
            )
        return self._derivative

    def _plan(self, t):
        """The `_Plan` of the time `t`.

        Keyed on the type as well as the value, since 0.5 and Fraction(1, 2)
        are equal but sum in different arithmetic.  A time outside a finite
        certified radius is refused first.
        """
        cert = self.certificate
        if cert is not None and not cert.admits(t):
            raise RadiusExceededError(
                f"t = {t} lies outside the certified interval "
                f"(kind={cert.kind}, radius={cert.radius})"
            )
        key = (type(t), t)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._make_plan(t)
        return plan

    def _make_plan(self, t):
        require_finite("time", t)
        if t == 0:
            return _Plan(0, 0.0, None)
        rho = 2.0 * abs(float(t)) * self._deg_cap
        weights = [1]  # t^k / k!, in the arithmetic of t
        tail_next = self._sup * rho  # T(k+1) for the current k = 0
        k = 0
        best = math.inf
        while True:
            q = rho / (k + 2)
            if q < 0.5:
                bound = tail_next / (1.0 - q)
                best = min(best, bound)
                if bound <= self.tol:
                    break
            if k >= TERM_CAP:
                raise TruncationFailureError(
                    f"tail bound {best} did not reach tolerance {self.tol} "
                    f"within {TERM_CAP} terms",
                    best_bound=best,
                    terms_used=k,
                )
            k += 1
            weights.append(weights[-1] * t / k)
            tail_next = tail_next * rho / (k + 1)
        dtype = object if isinstance(t, Fraction) else np.float64
        return _Plan(k, bound, np.array(weights, dtype=dtype))

    def prefetch(self, vertices, times):
        """Evaluate the grid `vertices` x `times` ahead of `series_eval`.

        Checks every vertex, then plans every time in order, refusing as
        `series_eval` would.  With K the largest truncation order among the
        plans, it computes L^k a only on the light cone of the vertices (see
        `light_cone_iterates`) and reads the window's coefficients for k <= K
        off the iterates' arrays, with the values the full table gives.
        `table` is not extended and no coefficient is kept.  Then it sums
        each distinct time's coefficients in one accumulate and keeps the
        values on the time's plan, replacing those of an earlier call: the
        same operations in the same order as `series_eval`'s single sum, so
        the same bits, or the same Python objects at a `Fraction` time.
        """
        graph = self.graph
        vertices = list(dict.fromkeys(vertices))
        if not vertices:
            return
        for x in vertices:
            graph.check_vertex(x)
        plans = [plan for plan in dict.fromkeys(map(self._plan, times)) if plan.k]
        if not plans:
            return
        big_k = max(plan.k for plan in plans)
        reach = max(graph.distances_from_root(vertices))
        iterates = light_cone_iterates(graph, self.initial, big_k, reach)
        tables = {dtype: window_values(iterates, vertices, dtype).T
                  for dtype in {plan.weights.dtype for plan in plans}}
        del iterates  # freed first, so that making the sums adds no peak memory
        slots = {x: i for i, x in enumerate(vertices)}
        for plan in plans:
            plan.slots = slots
            plan.sums = _sum_terms(tables[plan.weights.dtype][:, : plan.k + 1], plan.weights)


@np.errstate(all="ignore")  # overflow gives inf or nan silently, as in Python
def _sum_terms(columns, weights):
    """column[0] w_0 + column[1] w_1 + ..., added strictly left to right.

    A column gives its sum as a Python number, a matrix of columns by rows
    gives the list of its rows' sums.
    """
    return np.add.accumulate(columns * weights, axis=-1)[..., -1].tolist()


def series_eval(solution, x, t):
    """Evaluate the series at (x, t) with a certified truncation error.

    Terms are added until the dominating tail T(K+1)/(1-q), with
    T(k) = (2|t| D)^k/k! * sup|a| and ratio q = T(K+2)/T(K+1) < 1/2, drops
    to the solution's tolerance.  Outside a finite certified radius the
    evaluation refuses rather than extrapolate; a time that is not finite
    in binary64 raises ValueError.  A value `prefetch` made is read, not
    summed again.
    """
    solution.graph.check_vertex(x)
    plan = solution._plan(t)
    big_k = plan.k
    if big_k == 0:
        return EvalResult(solution.initial(x), plan.bound, 0)
    slot = plan.slots.get(x)
    if slot is not None:
        return EvalResult(plan.sums[slot], plan.bound, big_k)
    entry = solution.table.entry
    column = np.array([entry(k)(x) for k in range(big_k + 1)], dtype=plan.weights.dtype)
    return EvalResult(_sum_terms(column, plan.weights), plan.bound, big_k)


def backward_solve(graph, a, x, t, tol=1e-11):
    """Solve the backward Cauchy problem at (x, t >= 0).

    By construction this is exactly the forward series at time -t (the same
    code path, hence bit-identical results).
    """
    if t < 0:
        raise ValueError("backward time must be nonnegative")
    return series_eval(SeriesSolution(graph, a, tol=tol), x, -t)


def residual_check(solution, x, t, h=0.0):
    """|d_t u(x,t) - L u(x,t)| with both sides evaluated from the series.

    The time derivative comes from the differentiated series (initial data
    L a), not finite differences; the spatial side applies the Laplacian to
    the evaluated neighbor values.  `h` is a margin: times t and t +- h must
    all lie inside the certified region.
    """
    cert = solution.certificate
    if cert is not None:
        for s in (t, t - h, t + h):
            if not cert.admits(s):
                raise RadiusExceededError(
                    f"t = {s} lies outside the certified interval"
                )
    dt_value = series_eval(solution.derivative_solution(), x, t).value
    lap_value = laplacian_at(
        solution.graph, lambda y: series_eval(solution, y, t).value, x
    )
    return abs(dt_value - lap_value)


def _power_or_inf(base, k):
    """base ** k for a nonnegative float base, inf where binary64 overflows."""
    try:
        return base ** k
    except OverflowError:
        return math.inf


def audit_region(graph, a, kmax, rmax):
    """The vertices the backward audit checks, in `vertex_key` order.

    That is the radius-rmax root ball united with the kmax-neighborhood of
    the support of `a`.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be nonnegative, not {kmax!r}")
    spread = islice(graph.layers(a.support), kmax + 1)
    region = graph.ball(graph.root, rmax).union(*spread)
    return sorted(region, key=vertex_key)


def _envelope_points(table, order, dist, base, kmax):
    """Yield (k, x, |L^k a(x)|, base^k, d(x)) for k <= kmax, x in `order`.

    The point source of both envelope audits, k-major and lazy: an entry of
    the table is computed only when its first point is requested.
    """
    for k in range(kmax + 1):
        entry = table.entry(k)
        base_k = _power_or_inf(base, k)
        for x in order:
            yield k, x, abs(float_or_inf(entry(x))), base_k, dist[x]


@dataclass
class BackwardSolvabilityReport:
    """Outcome of the bounded backward-solvability audit.

    The audit is a finite check up to (kmax, rmax): `certified` means some
    pair of grid constants dominates every checked iterate; `refuted-up-to-K`
    means not even the largest grid envelope does, with the offending
    entries listed; it is never a proof about all orders.
    """

    verdict: str
    scale: float
    rate: float
    witnesses: list
    degree_cap: float
    kmax: int
    rmax: int
    note: str = ""

    @property
    def certified(self):
        return self.verdict == CERTIFIED


def require_degree_cap(cap):
    """Refuse, by name, a degree cap that is not a finite number >= 0.

    No Deg is negative, so no graph meets a negative cap; 0 is met by an
    edgeless region.
    """
    require_finite("degree cap", cap)
    if cap < 0:
        raise ValueError(f"negative degree cap {cap!r}")


def check_backward_solvability(graph, a, degree_cap, kmax, rmax):
    """Audit |L^k a| against scale * (2 D)^k e^{rate (k+d) ln(k+d)}.

    Checks every k <= kmax and every vertex of the audited region (the
    radius-rmax root ball united with the kmax-neighborhood of the support).
    A `degree_cap` of None audits with the largest Deg over that region,
    taken exactly; any other cap must be a finite number >= 0 and is first
    verified against Deg there.  Constants are fitted on the declared
    grids, smallest rate first.
    """
    if kmax < 0 or rmax < 0:
        raise ValueError("kmax and rmax must be nonnegative")
    if degree_cap is not None:
        require_degree_cap(degree_cap)
    region = audit_region(graph, a, kmax, rmax)
    degrees = ((x, graph.deg(x)) for x in region)
    if degree_cap is None:
        degree_cap = max(d for _, d in degrees)
    else:
        for x, d in degrees:
            if d > degree_cap:
                raise DegreeBoundError(x, d, degree_cap)
    verdict, scale, rate, witnesses, note = _fit_envelope(
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


def _fit_envelope(graph, a, base, kmax, region):
    """(verdict, scale, rate, witnesses, note) of the backward audit."""
    dist = dict(zip(region, graph.distances_from_root(region)))
    for x in region:
        if dist[x] == math.inf:
            note = (
                "audit region not connected to the root: "
                f"no path from {x!r} to {graph.root!r}"
            )
            return INCONCLUSIVE, math.nan, math.nan, [], note

    table = IteratedLaplacianTable(graph, a)
    points = list(_envelope_points(table, region, dist, base, kmax))
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


@dataclass
class CoefficientAuditReport:
    passed: bool
    witness: object
    kmax: int
    rmax: int
    caveat: str = (
        "bound checked on iterates of the supplied initial data over the "
        "audited window; these coincide with the Taylor coefficients of a "
        "solution exactly when the data is the time-zero slice of one"
    )


def coefficient_bound_audit(solution, profile, degree_growth, kmax, rmax):
    """Check |L^k a(x)| <= A (2 C)^k e^{(rate+power)(k+d) ln(k+d)}.

    Runs over k <= kmax and the radius-rmax root ball, after verifying the
    initial data itself sits under the growth envelope there; reads the
    same point source as the backward audit and stops at the first
    violation.
    """
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
    witness = None
    for k, x, v, base_k, d in _envelope_points(solution.table, order, dist, base, kmax):
        bound = amp * base_k * exp_or_inf(rate * xlnx(k + d))
        if v > bound:
            witness = (k, x, v, bound)
            break
    return CoefficientAuditReport(
        passed=witness is None, witness=witness, kmax=kmax, rmax=rmax
    )
