"""The heat semigroup u(x,t) = (e^{tL} a)(x) as a series, with certified tails.

The time and the graph pick the series; there is no option.

* `float-chebyshev`, a float or int t > 0, or t < 0 on a regular graph
  (`Graph.is_regular`) with a measure floor: sum_k w_k T_k(S) a in binary64, S = I + L/D, D the
  uniform degree bound, z = D|t|, forward w_k = c_k = (2 - [k=0]) e^{-z}
  I_k(z) and backward w_k = (-1)^k e^{2z} c_k, as e^{tL} = e^{2z}
  e^{-z(I+S)}.  |T_k(S)| <= 1 on l^2(mu), and K is the least order whose
  Chernoff tail 2 exp(-K asinh(K/z) + sqrt(z^2 + K^2) - z) ||a||_{2,mu} /
  sqrt(min mu), times e^{2z} backward and rounded up, is at most `tol`.
  The backward sum cancels on the scale e^{2z} ||a||, which the values
  reach only where every Deg is D.
* `float-taylor`, any other float or int t < 0: sum_k L^k a t^k / k!.
  K is the least order whose tail T(K+1)/(1-q), with T(k) = (2|t| D)^k /
  k! sup|a| and q = T(K+2)/T(K+1) < 1/2, is at most `tol`; a tail not
  finite in binary64 is refused at once.  The weights are floats from
  k = 1 on, so an int time and int or Fraction data sum as their doubles.
* `exact`, a `Fraction` t: the Taylor series in Python objects.

At t = 0 the value is the data.  A solution caches one plan per distinct
time, keyed on its type too: K, the tail bound, the weights, the table they
read and the sums of the last `prefetch` grid, which `series_eval` reads.
Any other evaluation is one sequential sum of the table's entries at x
times the weights; `prefetch` computes each table on the light cone of a
whole grid and sums it with one accumulate per time in the same order, so
to the same bits.  Like its graph, a solution must not be shared between
threads.

Two audits check the growth envelope |L^k a(x)| <= A (2C)^k
e^{rate (k+d) ln(k+d)} of the coefficients: the backward-solvability audit
fits A and rate on grids, the coefficient audit checks given constants.
Each reads |L^k a(x)| once, as a binary64 matrix of rows k <= kmax and
columns x in a fixed vertex order, and compares it with an envelope
matrix per rate, (2C)^k g(k + d(x)) with g(n) = e^{rate n ln n} taken
once per distinct n; k-major order is the matrix's flat order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from operator import mul
from typing import NamedTuple

import numpy as np

from .bounds import exp_or_inf, root_distances, xlnx
from .errors import DegreeBoundError, RadiusExceededError, TruncationFailureError
from .graphs import LocalFunction, float_or_inf, require_finite, vertex_key
from .laplacian import (
    ChebyshevStep,
    IteratedLaplacianTable,
    apply_laplacian,
    laplacian_at,
    light_cone_iterates,
    window_values,
)

#: Hard cap on the number of series terms per evaluation.
TERM_CAP = 400

UNIT_ROUNDOFF = 2.0 ** -53
LN2 = math.log(2.0)
#: Miller's recurrence starts at an order whose Chernoff tail is below
#: 2^-MILLER_BITS, so the start moves the weights by far less than an ulp.
MILLER_BITS = 70

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
    """The summation at one time: its order `k` = K, tail `bound`, `weights`
    for j <= K and the `table` whose entries they weigh, plus the sums the
    last `prefetch` of this time made, the value at x being `sums[slots[x]]`."""

    __slots__ = ("k", "bound", "weights", "table", "slots", "sums")

    def __init__(self, k, bound, weights, table):
        self.k = k
        self.bound = bound
        self.weights = weights
        self.table = table
        self.slots = {}
        self.sums = None


@dataclass
class SeriesSolution:
    """A series propagator for one graph and one finitely supported datum.

    Evaluations at distinct (vertex, time) pairs are independent; they share
    the iterate tables, which extend on demand, and the per-time plans,
    with the sums `prefetch` keeps on them.  `table` holds L^k a for the
    Taylor series, `chebyshev_table` T_k(S) a.  The graph must report a
    uniform degree bound (all built-in graphs do), since that constant
    drives the certified truncation, and for a forward time a measure
    floor.  `tol` must be positive and finite in binary64.  The time and
    the graph pick the series and the arithmetic of a sum (see the module).
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
        # S = I + L/d needs d >= Deg everywhere: a rational cap rounds up
        self._d = self._deg_cap if self._deg_cap >= cap else math.nextafter(self._deg_cap, math.inf)
        self._chebyshev = None
        self._norm = None
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

    @property
    def chebyshev_table(self):
        """The table of T_k(S) a, made on first use; None on a graph without
        edges, where u = a."""
        if self._chebyshev is None and self._d:
            self._chebyshev = IteratedLaplacianTable(self.graph, self.initial, ChebyshevStep(self._d))
        return self._chebyshev

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
            return _Plan(0, 0.0, None, self.table)
        if not isinstance(t, Fraction):
            floor = self.graph.measure_floor()
            if t > 0 or (floor is not None and self.graph.is_regular):
                return self._chebyshev_plan(float(t), floor)
        rho = 2.0 * abs(float(t)) * self._deg_cap
        weights = [1]  # t^k / k!, in the arithmetic of t
        tail_next = self._sup * rho  # T(k+1) for the current k = 0
        k = 0
        best = math.inf
        while True:
            if not math.isfinite(tail_next):
                raise TruncationFailureError(
                    f"tail bound is not finite in binary64: sup|a| = {self._sup:g}, "
                    f"2|t|D = {rho:g}",
                    best_bound=math.inf,
                    terms_used=k,
                )
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
        return _Plan(k, bound, np.array(weights, dtype=dtype), self.table)

    def l2_norm(self):
        """||a||_{2,mu} = sqrt(sum_x mu(x) a(x)^2) in binary64, by `math.hypot`,
        so no square overflows; inf only when the norm itself is beyond
        binary64."""
        if self._norm is None:
            graph = self.graph
            self._norm = math.hypot(*(math.sqrt(graph.measure(x)) * abs(float(v))
                                      for x, v in self.initial.items()))
        return self._norm

    def _chebyshev_plan(self, t, floor):
        """The plan of a float time t != 0 on a graph of measure floor `floor`
        (see the module)."""
        table = self.chebyshev_table
        if table is None:  # no edge, so L = 0 and u = a
            return _Plan(0, 0.0, None, self.table)
        if floor is None:
            raise ValueError("graph reports no measure floor; implement "
                             "measure_floor() to sum forward in time")
        norm = self.l2_norm()
        if norm == 0:
            return _Plan(0, 0.0, None, table)
        d = table.step.d
        # a product below the least subnormal is raised to it, which only
        # widens the tail
        z = d * abs(t) or math.ulp(0.0)
        where = f"||a||_2 = {norm:g}, z = {'Dt' if t > 0 else 'D|t|'} = {z:g}"
        if not math.isfinite(z) or not math.isfinite(norm):
            raise TruncationFailureError(
                f"tail bound cannot reach tolerance {self.tol}: {where} is not finite "
                "in binary64", best_bound=math.inf, terms_used=0)
        # backward, e^{tL} = e^{2z} sum_k (-1)^k c_k T_k(S)
        rise = 0.0 if t > 0 else 2.0 * z
        scale = exp_or_inf(rise)
        if scale == math.inf:
            raise TruncationFailureError(
                f"the backward scale e^(2z) is not finite in binary64: {where}",
                best_bound=math.inf, terms_used=0)
        # |T_k| <= ||a||_2 / sqrt(min mu) at a vertex, |L T_k| <= 2D times
        # that and a step's other parts <= 7 times that
        if not max(2 * d, 7.0) * norm / math.sqrt(floor) < math.inf:
            raise TruncationFailureError(
                f"the Chebyshev table can overflow binary64: {where}, D = {d:g}",
                best_bound=math.inf, terms_used=0)
        log_scale = math.log(norm) - 0.5 * math.log(floor) + rise
        log_scale += 2.0 ** -40 * (1 + abs(math.log(norm)) + abs(math.log(floor)) + rise)

        def bound(k):
            return math.nextafter(exp_or_inf(_chernoff_log_tail(k, z) + log_scale), math.inf)

        last = bound(TERM_CAP)
        if not last <= self.tol:
            raise TruncationFailureError(
                f"tail bound {last} did not reach tolerance {self.tol} within {TERM_CAP} "
                f"terms: {where}", best_bound=last, terms_used=TERM_CAP)
        k = _least(lambda j: bound(j) <= self.tol, 0, TERM_CAP)
        if not k:
            return _Plan(0, bound(0), None, table)
        weights = scale * np.array(bessel_weights(z, k))
        if t < 0:
            weights[1::2] *= -1.0
        return _Plan(k, bound(k), weights, table)

    def prefetch(self, vertices, times):
        """Evaluate the grid `vertices` x `times` ahead of `series_eval`.

        Checks every vertex, then plans every time in order, refusing as
        `series_eval` would.  For each table the plans read, with K the
        largest order among them, it computes the entries only on the light
        cone of the vertices (see `light_cone_iterates`) and reads the
        window's entries for k <= K off their arrays, with the values the
        full table gives.  No table is extended and no entry is kept.  Then
        it sums each distinct time's terms in one accumulate and keeps the
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
        reach = max(graph.distances_from_root(vertices))
        slots = {x: i for i, x in enumerate(vertices)}
        for table in dict.fromkeys(plan.table for plan in plans):
            group = [plan for plan in plans if plan.table is table]
            big_k = max(plan.k for plan in group)
            iterates = light_cone_iterates(graph, table.base, big_k, reach, table.step)
            columns = {dtype: window_values(iterates, vertices, dtype).T
                       for dtype in {plan.weights.dtype for plan in group}}
            del iterates  # freed first, so that making the sums adds no peak memory
            for plan in group:
                plan.slots = slots
                plan.sums = _sum_terms(columns[plan.weights.dtype][:, : plan.k + 1], plan.weights)


def _least(holds, lo, hi):
    """The least k in [lo, hi] for which `holds(k)`, given that it holds at
    `hi` and, once it holds, holds for every larger k."""
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _chernoff_log_tail(k, z):
    """ln of 2 exp(-k asinh(k/z) + sqrt(z^2 + k^2) - z) >= sum_{j>k} c_j.

    asinh(k/z) is taken as ln(k + h) - ln z and sqrt(z^2 + k^2) - z as
    k^2 / (h + z), h = hypot(z, k), so nothing overflows or cancels for any
    z > 0.  The result is raised by 2^-40 times the size of its parts,
    which covers the rounding of every operation here and of `exp` after.
    """
    h = math.hypot(z, k)
    top, bottom = math.log(k + h), math.log(z)
    rest = k * k / (h + z)
    slack = 2.0 ** -40 * (1 + k * (abs(top) + abs(bottom)) + rest)
    return LN2 - k * (top - bottom) + rest + slack


def _miller_start(z, k):
    """An order n > k whose Chernoff tail is at most 2^-MILLER_BITS.

    The exponent is concave in k with slope -asinh(k/z), so one step of
    that slope from k >= 1 overshoots the target; the least order up to
    there is found by bisection.
    """
    excess = _chernoff_log_tail(k, z) + MILLER_BITS * LN2
    far = k + 1 + max(0, math.ceil(excess / math.asinh(k / z)))
    return _least(lambda n: _chernoff_log_tail(n, z) <= -MILLER_BITS * LN2, k + 1, far)


def bessel_weights(z, k):
    """[c_0, ..., c_k] for c_0 = e^{-z} I_0(z) and c_j = 2 e^{-z} I_j(z), k >= 1.

    Miller's backward recurrence in ratio form: r_j = I_j / I_{j-1} =
    1 / (2j/z + r_{j+1}) from r_{n+1} = 0 at n = `_miller_start(z, k)`;
    then I_j / I_0 = r_1 ... r_j, and I_0 + 2 sum_j I_j = e^z gives c_0.
    Every ratio lies in [0, 1], so nothing overflows, and for a tiny z a
    ratio 2j/z = inf gives r_j = 0.
    """
    r = 0.0
    ratios = []
    for j in range(_miller_start(z, k), 0, -1):
        r = 1.0 / (2 * j / z + r)
        ratios.append(r)
    rel = list(accumulate(reversed(ratios), mul))  # I_j / I_0 for j = 1, 2, ...
    c0 = 1.0 / (1.0 + 2.0 * math.fsum(rel))
    return [c0] + [2.0 * c0 * q for q in rel[:k]]


def chebyshev_rounding_bound(z, k, row):
    """A factor B: a forward float sum of order k >= 1 at z = Dt, whose
    kernel rows hold at most `row` entries (a vertex and its neighbours),
    differs from the exact sum_{j<=k} c_j T_j(S) a by at most
    B ||a||_{2,mu} / sqrt(mu(x)) at x, the rounding of the data and of z
    included.  The README derives it ("Rounding budget"); it assumes
    7 gamma_{2 row + 4} k (k + 1) / 2 < 1.
    """
    u = UNIT_ROUNDOFF

    def gamma(m):
        return m * u / (1 - m * u)

    n = _miller_start(z, k)
    g = 7 * gamma(2 * row + 4)
    eta = g * k * (k + 1) / 2
    e_c = gamma(12 * n + 4) + (2 * n + 4) * 2.0 ** -MILLER_BITS
    table = g * ((z + math.sqrt(z)) / 2 + e_c * k * (k + 1) / 2)
    return u + 2 * z * u + e_c + (table + gamma(k + 1) * (1 + e_c)) / (1 - eta)


@np.errstate(all="ignore")  # overflow gives inf or nan silently, as in Python
def _sum_terms(columns, weights):
    """column[0] w_0 + column[1] w_1 + ..., added strictly left to right.

    A column gives its sum as a Python number, a matrix of columns by rows
    gives the list of its rows' sums.
    """
    return np.add.accumulate(columns * weights, axis=-1)[..., -1].tolist()


def series_eval(solution, x, t):
    """Evaluate the series at (x, t) with a certified truncation error.

    The plan of t (see the module) fixes the order K and its tail bound.
    Outside a finite certified radius the evaluation refuses rather than
    extrapolate; a time that is not finite in binary64 raises ValueError.
    A value `prefetch` made is read, not summed again.
    """
    solution.graph.check_vertex(x)
    plan = solution._plan(t)
    big_k = plan.k
    if big_k == 0:
        return EvalResult(solution.initial(x), plan.bound, 0)
    slot = plan.slots.get(x)
    if slot is not None:
        return EvalResult(plan.sums[slot], plan.bound, big_k)
    entry = plan.table.entry
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


def _audit_matrices(entries, order, dists, base):
    """(values, powers, growth) of an envelope audit over rows k < len(entries)
    and columns x in `order`, at root distances `dists`.

    `values` holds |f_k(x)| for f_k in `entries`, in binary64 and inf past
    it as `float_or_inf` reads it; `powers` is the column base^k, inf past
    binary64; `growth(rate)` is the matrix e^{rate n ln n}, n = k + d(x),
    taken once per distinct n in Python numbers (ints where no int64 holds
    an n).
    """
    try:
        values = window_values(entries, order, np.float64)
    except OverflowError:  # an exact value beyond binary64
        values = window_values(entries, order, object)
        values = np.array([float_or_inf(v) for v in values.ravel().tolist()]).reshape(values.shape)
    powers = np.array([_power_or_inf(base, k) for k in range(len(entries))])[:, None]
    dtype = np.int64 if max(dists) + len(entries) < 2 ** 63 else object
    ds, column = np.unique(np.array(dists, dtype=dtype), return_inverse=True)
    n = np.arange(len(entries), dtype=dtype)[:, None] + ds
    distinct, at = np.unique(n.ravel(), return_inverse=True)
    distinct, at = distinct.tolist(), at.reshape(n.shape)

    def growth(rate):
        return np.array([exp_or_inf(rate * xlnx(m)) for m in distinct])[at][:, column]

    return np.abs(values), powers, growth


def _point(values, order, i, bound):
    """(k, x, |L^k a(x)|, bound) at the flat index `i` of `values`."""
    k, j = divmod(int(i), len(order))
    return k, order[j], values[k, j].item(), bound


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
    if degree_cap is None:
        degree_cap = max(graph.degrees(region))
    else:
        for x, d in zip(region, graph.degrees(region)):
            if d > degree_cap:
                raise DegreeBoundError(x, d, degree_cap)
    degree_cap = float(degree_cap)
    verdict, scale, rate, witnesses, note = _fit_envelope(graph, a, 2.0 * degree_cap, kmax, region)
    return BackwardSolvabilityReport(verdict, scale, rate, witnesses, degree_cap, kmax, rmax, note)


def _fit_envelope(graph, a, base, kmax, region):
    """(verdict, scale, rate, witnesses, note) of the backward audit."""
    dists = graph.distances_from_root(region)
    off = [x for x, d in zip(region, dists) if d == math.inf]
    if off:
        note = f"audit region not connected to the root: no path from {off[0]!r} to {graph.root!r}"
        return INCONCLUSIVE, math.nan, math.nan, [], note
    table = IteratedLaplacianTable(graph, a)
    values, powers, growth = _audit_matrices(
        [table.entry(k) for k in range(kmax + 1)], region, dists, base)
    del table  # no longer read: its entries go before the envelope matrices come
    # an iterate beyond binary64 compares with no envelope, finite or not
    if not np.isfinite(values).all():
        return INCONCLUSIVE, math.nan, math.nan, [], "an audited iterate is not finite in binary64"
    # overflow gives inf, and 0 * inf or 0 / 0 nan, silently
    with np.errstate(all="ignore"):
        for rate in SOLVABILITY_RATE_GRID:
            env = powers * growth(rate)
            # a nan ratio (0 / 0, or over a zero cap's 0 * inf) exceeds
            # nothing; in place, so that one matrix fewer is live
            ratio = values / env
            np.fmax(ratio, 0.0, out=ratio)
            worst = ratio.argmax()  # the first maximum in k-major order
            needed = ratio.flat[worst]
            scale = next((s for s in SOLVABILITY_SCALE_GRID if needed <= s), None)
            if scale is not None:
                witness = _point(values, region, worst, scale * env.flat[worst].item())
                return CERTIFIED, scale, rate, [witness] if needed > 0 else [], ""
        scale, rate = SOLVABILITY_SCALE_GRID[-1], SOLVABILITY_RATE_GRID[-1]
        bound = scale * (powers * growth(rate))
        hits = np.flatnonzero(values > bound)[:20]
    violations = [_point(values, region, i, bound.flat[i].item()) for i in hits]
    return REFUTED, scale, rate, violations, "no grid constants dominate the audited iterates"


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
    initial data itself sits under the growth envelope there; the witness
    is the first violation in k-major order over `vertex_key` order, its
    bound formed as (A (2C)^k) e^{...} in binary64.
    """
    dist = root_distances(solution.graph, rmax)
    order = sorted(dist, key=vertex_key)
    for x in order:
        if abs(solution.initial(x)) > profile.envelope(dist[x]):
            raise ValueError(f"initial data violates the growth profile at vertex {x!r}")
    values, powers, growth = _audit_matrices(
        [solution.table.entry(k) for k in range(kmax + 1)], order, [dist[x] for x in order],
        2.0 * float(degree_growth.cap))
    rate = float(profile.rate) + float(degree_growth.power)
    with np.errstate(all="ignore"):
        bound = (float(profile.amplitude) * powers) * growth(rate)
    hits = np.flatnonzero(values > bound)
    witness = _point(values, order, hits[0], bound.flat[hits[0]].item()) if len(hits) else None
    return CoefficientAuditReport(passed=witness is None, witness=witness, kmax=kmax, rmax=rmax)
