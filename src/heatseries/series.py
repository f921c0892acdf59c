"""Time power series u(x,t) = sum_k L^k a(x) t^k / k! with certified tails.

The coefficient sequence is the iterated-Laplacian table of the initial
data; every evaluation reports a rigorous tail bound derived from the
chained one-ring estimate, so a returned value is always accompanied by the
radius of trust around it.  The backward Cauchy problem is the same series
at negated time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from .bounds import root_distances, xlnx
from .errors import (
    DegreeBoundError,
    RadiusExceededError,
    TruncationFailureError,
    UnreachableVertexError,
)
from .graphs import LocalFunction, vertex_key
from .laplacian import IteratedLaplacianTable, apply_laplacian, laplacian_at

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


@dataclass
class SeriesSolution:
    """A series propagator for one graph and one finitely supported datum.

    Evaluations at distinct (vertex, time) pairs are independent; they share
    one coefficient table that extends on demand.  The graph must report a
    uniform degree bound (all built-in graphs do), since that constant
    drives the certified truncation.
    """

    graph: object
    initial: LocalFunction
    tol: float = 1e-11
    certificate: object = None
    table: IteratedLaplacianTable = field(init=False, repr=False)

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
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

    def derivative_solution(self):
        """Series for the time derivative: same machinery, initial data L a."""
        if self._derivative is None:
            self._derivative = SeriesSolution(
                self.graph,
                apply_laplacian(self.graph, self.initial),
                tol=self.tol,
            )
        return self._derivative


def series_eval(solution, x, t):
    """Evaluate the series at (x, t) with a certified truncation error.

    Terms are added until the dominating tail T(K+1)/(1-q), with
    T(k) = (2|t| D)^k/k! * sup|a| and ratio q = T(K+2)/T(K+1) < 1/2, drops
    to the solution's tolerance.  Outside a finite certified radius the
    evaluation refuses rather than extrapolate.
    """
    solution.graph.check_vertex(x)
    cert = solution.certificate
    if cert is not None and not cert.admits(t):
        raise RadiusExceededError(
            f"t = {t} lies outside the certified interval "
            f"(kind={cert.kind}, radius={cert.radius})"
        )
    a = solution.initial
    if t == 0:
        return EvalResult(a(x), 0.0, 0)

    rho = 2.0 * abs(float(t)) * solution._deg_cap
    value = a(x)
    weight = 1  # t^k / k!, in the ambient arithmetic
    tail_next = solution._sup * rho  # T(k+1) for the current k = 0
    k = 0
    best = math.inf
    while True:
        q = rho / (k + 2)
        if q < 0.5:
            bound = tail_next / (1.0 - q)
            best = min(best, bound)
            if bound <= solution.tol:
                return EvalResult(value, bound, k)
        if k >= TERM_CAP:
            raise TruncationFailureError(
                f"tail bound {best} did not reach tolerance {solution.tol} "
                f"within {TERM_CAP} terms",
                best_bound=best,
                terms_used=k,
            )
        k += 1
        weight = weight * t / k
        value = value + solution.table.entry(k)(x) * weight
        tail_next = tail_next * rho / (k + 1)


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


def audit_region(graph, a, kmax, rmax):
    """The vertices the backward audit checks, in `vertex_key` order.

    That is the radius-rmax root ball united with the kmax-neighborhood of
    the support of `a`.
    """
    spread = islice(graph.layers(a.support), kmax + 1)
    region = graph.ball(graph.root, rmax).union(*spread)
    return sorted(region, key=vertex_key)


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


def check_backward_solvability(graph, a, degree_cap, kmax, rmax):
    """Audit |L^k a| against scale * (2 D)^k e^{rate (k+d) ln(k+d)}.

    Checks every k <= kmax and every vertex of the audited region (the
    radius-rmax root ball united with the kmax-neighborhood of the support),
    after verifying Deg <= degree_cap there.  Constants are fitted on the
    declared grids, smallest rate first.
    """
    if kmax < 0 or rmax < 0:
        raise ValueError("kmax and rmax must be nonnegative")
    root = graph.root
    region = audit_region(graph, a, kmax, rmax)
    for x in region:
        d = graph.deg(x)
        if d > degree_cap:
            raise DegreeBoundError(x, d, degree_cap)

    try:
        dist = {x: graph.distance(x, root) for x in region}
    except UnreachableVertexError as exc:
        return BackwardSolvabilityReport(
            verdict=INCONCLUSIVE,
            scale=math.nan,
            rate=math.nan,
            witnesses=[],
            degree_cap=float(degree_cap),
            kmax=kmax,
            rmax=rmax,
            note=f"audit region not connected to the root: {exc}",
        )

    table = IteratedLaplacianTable(graph, a)
    points = []
    for k in range(kmax + 1):
        entry = table.entry(k)
        base = (2.0 * float(degree_cap)) ** k
        for x in region:
            v = abs(float(entry(x)))
            points.append((k, x, v, base, dist[x]))

    def envelope(rate, k, base, d):
        return base * math.exp(rate * xlnx(k + d))

    for rate in SOLVABILITY_RATE_GRID:
        needed = 0.0
        worst = None
        for k, x, v, base, d in points:
            env = envelope(rate, k, base, d)
            ratio = v / env
            if ratio > needed:
                needed = ratio
                worst = (k, x, v, env)
        for scale in SOLVABILITY_SCALE_GRID:
            if needed <= scale:
                witnesses = []
                if worst is not None and worst[2] > 0:
                    k, x, v, env = worst
                    witnesses = [(k, x, v, scale * env)]
                return BackwardSolvabilityReport(
                    verdict=CERTIFIED,
                    scale=scale,
                    rate=rate,
                    witnesses=witnesses,
                    degree_cap=float(degree_cap),
                    kmax=kmax,
                    rmax=rmax,
                )

    top_scale = SOLVABILITY_SCALE_GRID[-1]
    top_rate = SOLVABILITY_RATE_GRID[-1]
    violations = [
        (k, x, v, top_scale * envelope(top_rate, k, base, d))
        for k, x, v, base, d in points
        if v > top_scale * envelope(top_rate, k, base, d)
    ]
    return BackwardSolvabilityReport(
        verdict=REFUTED,
        scale=top_scale,
        rate=top_rate,
        witnesses=violations[:20],
        degree_cap=float(degree_cap),
        kmax=kmax,
        rmax=rmax,
        note="no grid constants dominate the audited iterates",
    )


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
    initial data itself sits under the growth envelope there; stops at the
    first violation.
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
    for k in range(kmax + 1):
        entry = solution.table.entry(k)
        for x in order:
            bound = amp * (base ** k) * math.exp(rate * xlnx(k + dist[x]))
            v = abs(float(entry(x)))
            if v > bound:
                return CoefficientAuditReport(
                    passed=False, witness=(k, x, v, bound), kmax=kmax, rmax=rmax
                )
    return CoefficientAuditReport(passed=True, witness=None, kmax=kmax, rmax=rmax)
