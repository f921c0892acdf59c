"""The sharpness construction on the integer line.

The seed is the flat bump g(t) = exp(-t^-beta) for t > 0 (zero otherwise),
whose derivatives all vanish at 0.  Each derivative is g^(k)(t) =
R_k(1/t) e^{-t^-beta} for an integer-coefficient polynomial R_k obtained
from the recurrence R_0 = 1, R_{k+1}(s) = beta s^{beta+1} R_k(s)
- s^2 R_k'(s).  The lattice solution v(x, t) combines finitely many
derivatives with consecutive-integer products, so every value is an exact
rational times the common flat factor; numerics go through rational
polynomial evaluation and an arbitrary-precision exponential, which
sidesteps the catastrophic cancellation a plain float path would hit.

Values are exact at a time t = 1/s with s = p/q and are evaluated one
column of (x, order) points per time.  For each beta and s a
DerivativeValueTable holds the integers N_j = R_j(p/q) q^(j(beta+1)), each
found once by Horner's rule in Python ints.  A column looks up its table,
the step q^(beta+1) and the flat factor e^{-s^beta} (cached per time, beta
and working precision) once; each value sums C(x+k, 2k) N_(k+order) over
k <= x by Horner's rule in the step and costs one gcd over step^(x+order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp
from mpmath.libmp import from_int, mpf_div, mpf_mul

from .bounds import exp_or_inf
from .errors import AuditWindowEmptyError
from .graphs import number_problem, require_finite

_WORK_DPS = 40

#: Times at which the growth audit samples each x of its window.
GROWTH_T_GRID = tuple(Fraction(i, 8) for i in range(1, 9))

#: The flatness probes descend to t = 2^-MAX_DYADIC.
MAX_DYADIC = 30

#: Unshifted times at which the flatness witness samples positivity.
SAMPLE_TIMES = (0.25, 0.5, 1.0)


def default_theta(beta):
    """Midpoint-ish admissible theta: half of min(1, (2/beta)^(1/beta))."""
    return 0.5 * min(1.0, (2.0 / beta) ** (1.0 / beta))


@dataclass(frozen=True)
class FlatBumpParams:
    """Parameters of the flat bump and the derived lattice solution.

    beta: integer >= 2 steepness of the bump (integer so the derivative
    polynomials stay over the integers).  theta: auxiliary constant in
    (0, min(1, (2/beta)^(1/beta))), defaulting to half of the upper end so
    the induced ratio constant stays comfortably above 1.  epsilon: growth
    slack used by the growth audit (which needs beta > max(1, 2/epsilon)).
    time_shift: how far the solution is translated back in time; audits are
    shift-invariant.
    """

    beta: int
    theta: float = None
    epsilon: float = 1.0
    time_shift: float = 1.0

    def __post_init__(self):
        if int(self.beta) != self.beta or self.beta < 2:
            raise ValueError("beta must be an integer >= 2")
        object.__setattr__(self, "beta", int(self.beta))
        if self.theta is None:
            object.__setattr__(self, "theta", default_theta(self.beta))
        upper = min(1.0, (2.0 / self.beta) ** (1.0 / self.beta))
        if not 0 < self.theta < upper:
            raise ValueError(f"theta must lie in (0, {upper})")
        for name in ("epsilon", "time_shift"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive")
            require_finite(name, value)

    @property
    def bump_ratio(self):
        """(2/beta)^(1/beta) / theta; > 1 for admissible theta."""
        return (2.0 / self.beta) ** (1.0 / self.beta) / self.theta


class DerivativePolynomialTable:
    """Append-only table of the derivative polynomials R_k for one beta.

    Entries are dicts {exponent: integer coefficient}; deg R_k = k(beta+1).
    """

    def __init__(self, beta):
        if int(beta) != beta or beta < 2:
            raise ValueError("beta must be an integer >= 2")
        self.beta = int(beta)
        self._polys = [{0: 1}]

    def poly(self, k):
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        while k >= len(self._polys):
            beta = self.beta
            cur = self._polys[-1]
            nxt = {}
            for e, c in cur.items():
                top = e + beta + 1
                nxt[top] = nxt.get(top, 0) + beta * c
                if e:
                    nxt[e + 1] = nxt.get(e + 1, 0) - e * c
            self._polys.append({e: c for e, c in nxt.items() if c})
        return self._polys[k]


@lru_cache(maxsize=None)
def _table(beta):
    return DerivativePolynomialTable(beta)


def _poly_eval(poly, p, q):
    """The integer poly(p/q) q^d, d = deg poly, of a sparse integer polynomial.

    Horner's rule over the exponents from the top builds sum c_e p^e q^(d-e)
    in Python ints; the empty polynomial gives 0.
    """
    if not poly:
        return 0
    exponents = sorted(poly, reverse=True)
    acc, q_power, last = 0, 1, exponents[0]
    for e in exponents:
        acc *= p ** (last - e)
        q_power *= q ** (last - e)
        acc += poly[e] * q_power
        last = e
    return acc * p**last


class DerivativeValueTable:
    """Append-only list of N_j = R_j(p/q) q^(j(beta+1)) for one beta and s = p/q.

    deg R_j = j(beta+1), so each N_j is an integer.
    """

    def __init__(self, beta, s):
        self.beta = beta
        self.p, self.q = s.numerator, s.denominator
        self.step = self.q ** (beta + 1)
        self._values = []

    def values(self, j):
        """The list N_0, ..., N_j (at least), extended on demand."""
        polys = _table(self.beta)
        while j >= len(self._values):
            poly = polys.poly(len(self._values))
            self._values.append(_poly_eval(poly, self.p, self.q))
        return self._values


@lru_cache(maxsize=1024)  # keyed by time, so bounded like _flat_factor_at
def _value_table(beta, s):
    return DerivativeValueTable(beta, s)


def _poly_add(target, poly, factor):
    for e, c in poly.items():
        target[e] = target.get(e, 0) + factor * c
    return target


def _mirror(x):
    return x if x >= 0 else -x - 1


@lru_cache(maxsize=None)
def _term_coefficients(x):
    """Consecutive-integer products (x+k)...(x-k+1) over (2k)!, k = 0..x.

    Each equals C(x+k, 2k); it vanishes for k > x >= 0, which is what
    truncates the lattice sum.
    """
    return tuple(math.comb(x + k, 2 * k) for k in range(x + 1))


@lru_cache(maxsize=None)
def _combined_poly(beta, x, order):
    """Polynomial P with d^order/dt^order v(x,t) = P(1/t) e^{-t^-beta}.

    Values go through _column; the polynomial itself serves the exact
    residual identity of heat_residual_poly.
    """
    table = _table(beta)
    out = {}
    for k, c in enumerate(_term_coefficients(x)):
        _poly_add(out, table.poly(k + order), c)
    return {e: c for e, c in out.items() if c}


def _flat_factor(s, beta):
    """e^{-s^beta} for rational s, as an mpf (never under/overflows)."""
    return _flat_factor_at(s, beta, mp.prec)


@lru_cache(maxsize=1024)
def _flat_factor_at(s, beta, prec):
    # the value depends on the working precision, so it is part of the key
    return mp.exp(-(mp.mpf(s.numerator) / mp.mpf(s.denominator)) ** beta)


def _reduced(values, step, x, order):
    """P(s) with d^order/dt^order v(x, 1/s) = P(s) e^{-s^beta}, x >= 0, reduced:
    sum_k C(x+k, 2k) N_(k+order) step^(x-k) over step^(x+order)."""
    acc = 0
    for k, c in enumerate(_term_coefficients(x)):
        acc = acc * step + c * values[k + order]
    den = step ** (x + order)
    g = math.gcd(acc, den)
    return acc // g, den // g


def _column(beta, t, points):
    """The mpf d^order/dt^order v(x, t) of each (x, order) in points, at t > 0,
    rounded as mp.mpf(num) / mp.mpf(den) * flat factor at the working precision."""
    s = 1 / Fraction(t)
    prec, rnd = mp._prec_rounding  # what mp.mpf arithmetic rounds with
    table, flat = _value_table(beta, s), _flat_factor(s, beta)._mpf_
    points = [(_mirror(x), order) for x, order in points]
    values = table.values(max(x + order for x, order in points))
    out = []
    for x, order in points:
        num, den = _reduced(values, table.step, x, order)
        quotient = mpf_div(from_int(num, prec, rnd), from_int(den, prec, rnd), prec, rnd)
        out.append(mp.make_mpf(mpf_mul(quotient, flat, prec, rnd)))
    return out


def _v_mpf(params, x, t, order=0):
    """Arbitrary-precision d^order/dt^order v(x, t); 0 for t <= 0."""
    return _column(params.beta, t, [(x, order)])[0] if t > 0 else mp.mpf(0)


def _v_exact(beta, x, s, order):
    table = _value_table(beta, s)
    return Fraction(*_reduced(table.values(x + order), table.step, x, order))


def g_eval(params, t):
    """The flat bump: exp(-t^-beta) for t > 0, exactly 0 for t <= 0."""
    return v_eval(params, 0, t)


def g_derivative(params, k, t):
    """k-th derivative of the bump via the exact polynomial recurrence.

    Returns 0.0 for t <= 0 (all one-sided derivatives vanish there); for
    t > 0 the polynomial part is evaluated exactly and only the flat
    exponential factor is approximate.  The bump is the lattice solution
    at x = 0, whose combined polynomial is R_k itself.
    """
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    return v_time_derivative(params, 0, t, order=k)


def v_eval(params, x, t):
    """The lattice solution: g at x = 0, the finite derivative sum for
    x >= 1, and the mirror value v(-x-1, t) for x <= -1; 0 for t <= 0."""
    return v_time_derivative(params, x, t, order=0)


def v_time_derivative(params, x, t, order=1):
    """Term-wise time derivative of the finite lattice sum."""
    with mp.workdps(_WORK_DPS):
        return float(_v_mpf(params, x, t, order=order))


def heat_residual_1d(params, x, t):
    """d/dt v + 2 v(x) - v(x-1) - v(x+1) from separately evaluated pieces.

    Vanishes up to arithmetic rounding; the exact-polynomial statement is
    heat_residual_poly.
    """
    if not t > 0:
        raise ValueError("residual is defined for t > 0")
    return _residual_column(params.beta, t, range(x, x + 1))[0][1]


def _residual_column(beta, t, xs):
    """(v(x, t), d/dt v + 2 v(x) - v(x-1) - v(x+1)) in floats for each x of the
    range xs, from one column at t > 0 of v over xs widened by one and d/dt v."""
    n = len(xs)
    points = [(x, 0) for x in range(xs[0] - 1, xs[-1] + 2)] + [(x, 1) for x in xs]
    with mp.workdps(_WORK_DPS):
        col = [float(v) for v in _column(beta, t, points)]
    return [(col[i + 1], col[n + 2 + i] + 2.0 * col[i + 1] - col[i] - col[i + 2]) for i in range(n)]


def heat_residual_poly(params, x):
    """The residual as an exact polynomial in s = 1/t (flat factor removed).

    The construction solves the lattice heat equation identically, so this
    is the zero polynomial (empty dict) at every x.
    """
    beta = params.beta
    out = {}
    _poly_add(out, _combined_poly(beta, _mirror(x), 1), 1)
    _poly_add(out, _combined_poly(beta, _mirror(x), 0), 2)
    _poly_add(out, _combined_poly(beta, _mirror(x - 1), 0), -1)
    _poly_add(out, _combined_poly(beta, _mirror(x + 1), 0), -1)
    return {e: c for e, c in out.items() if c}


@dataclass
class HuangAuditReport:
    k: int
    bound: float
    findings: list

    @property
    def passed(self):
        return not self.findings


def huang_bound_audit(params, k, t_grid):
    """Check |g^(k)| <= k! (2k / (e beta theta^beta))^(k/beta) on a grid.

    Violations are reported as findings about the parameter range, not
    raised: the bound's admissible range is part of what is being probed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    beta = params.beta
    try:
        bound = math.factorial(k) * (
            2.0 * k / (math.e * beta * params.theta ** beta)
        ) ** (k / beta)
    except (ZeroDivisionError, OverflowError):
        bound = math.inf
    if bound == math.inf:  # theta^beta underflowed or a factor overflowed
        log_base = math.log(2.0 * k) - 1.0 - math.log(beta) - beta * math.log(params.theta)
        bound = exp_or_inf(math.lgamma(k + 1) + (k / beta) * log_base)
    findings = []
    for t in t_grid:
        value = abs(g_derivative(params, k, t))
        if value > bound:
            findings.append((float(t), value, bound))
    return HuangAuditReport(k=k, bound=bound, findings=findings)


@dataclass
class GrowthAuditReport:
    passed: bool
    r0: float
    window: tuple
    worst_margin: float
    violations: list


def growth_audit(params, xmax=60):
    """Check |v(x,t)| <= 4 sqrt(2 pi) e^{(1+eps) x ln x} on [ceil(R0), xmax].

    Each x of the window is sampled at the times GROWTH_T_GRID.

    R0 = max{e, k0, e^{(2/eps)(3/2 - (1+1/beta) + ln C0)}} with the audited
    factorial threshold k0 = 1.  Raises AuditWindowEmptyError when the
    window closes before it opens.
    """
    beta, eps = params.beta, params.epsilon
    if not beta > max(1.0, 2.0 / eps):
        raise ValueError("growth audit needs beta > max(1, 2/epsilon)")
    c0 = params.bump_ratio
    r0 = max(
        math.e,
        1.0,
        exp_or_inf((2.0 / eps) * (1.5 - (1.0 + 1.0 / beta) + math.log(c0))),
    )
    if xmax < r0:  # for an integer xmax, the same as xmax < ceil(r0)
        raise AuditWindowEmptyError(r0, xmax)
    start = math.ceil(r0)
    xs = range(start, xmax + 1)
    worst = 0.0
    violations = []
    with mp.workdps(_WORK_DPS):
        columns = [_column(beta, t, [(x, 0) for x in xs]) for t in GROWTH_T_GRID]
        prefactor = 4 * mp.sqrt(2 * mp.pi)
        for i, x in enumerate(xs):
            envelope = prefactor * mp.e ** ((1.0 + eps) * x * mp.log(x))
            for t, column in zip(GROWTH_T_GRID, columns):
                value = abs(column[i])
                worst = max(worst, float(value / envelope))
                if value > envelope:
                    violations.append((x, float(t), float(value), float(envelope)))
    return GrowthAuditReport(passed=not violations, r0=r0, window=(start, xmax),
                             worst_margin=worst, violations=violations)


@dataclass
class NonAnalyticityReport:
    """Numeric witness that the shifted solution is not time analytic.

    flat_values[j] is |d_t^j v(x, s)| at the smallest dyadic s probed: all
    of them under the tolerance means every Taylor coefficient of
    u(x, t) = v(x, t + shift) vanishes at t = -shift, while a nonzero
    sample, of either sign, shows u is not the zero function.
    """

    x: int
    flat: bool
    flat_values: dict
    flat_trace: dict
    smallest_s: float
    positive_samples: list
    nonzero: bool
    time_shift: float

    @property
    def not_analytic(self):
        return self.flat and self.nonzero


def _check_witness_input(kmax, tol):
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if number_problem(tol) or not tol > 0:
        raise ValueError(f"tol must be finite and positive, not {tol!r}")


def non_analyticity_witness(params, x, kmax, tol=1e-8):
    """Probe flatness at 0+ of all derivatives up to kmax, plus nonzero samples.

    Derivative magnitudes are sampled along the geometric grid t = 2^-m
    (the recorded trace covers the last stretch of the descent); flat means
    every probed magnitude sits under the tolerance.  Sample times are
    relative to the unshifted solution, i.e. at shift + t for the shifted
    one.
    """
    _check_witness_input(kmax, tol)
    probes = sorted({max(1, MAX_DYADIC - step) for step in (20, 15, 10, 5, 0)})
    points = [(x, j) for j in range(kmax + 1)]
    with mp.workdps(_WORK_DPS):
        columns = [[float(abs(v)) for v in _column(params.beta, Fraction(1, 2**m), points)]
                   for m in probes]
    flat_trace = {j: [(m, col[j]) for m, col in zip(probes, columns)] for j in range(kmax + 1)}
    flat_values = {j: trace[-1][1] for j, trace in flat_trace.items()}
    samples = [(float(t), v_eval(params, x, t)) for t in SAMPLE_TIMES]
    flat = all(v <= tol for trace in flat_trace.values() for _, v in trace)
    nonzero = any(v != 0 for _, v in samples)
    return NonAnalyticityReport(
        x=x,
        flat=flat,
        flat_values=flat_values,
        flat_trace=flat_trace,
        smallest_s=float(2.0 ** -MAX_DYADIC),
        positive_samples=samples,
        nonzero=nonzero,
        time_shift=params.time_shift,
    )


def audit_report(params, xmax, kmax, tol):
    """The `counterexample` report, its conclusion and its residual rows.

    The solution is not time analytic when the residual polynomial is zero,
    the evaluated residual is rounding-sized against the values, the growth
    audit passes and every witness at x = 0..3 is flat and nonzero.  kmax
    and tol are checked first, then the growth audit's preconditions and
    window, so bad input is refused before any value is evaluated.  The
    residual rows read one column per time.
    """
    _check_witness_input(kmax, tol)
    growth = growth_audit(params, xmax=xmax)
    witnesses = [non_analyticity_witness(params, x, kmax, tol=tol) for x in (0, 1, 2, 3)]
    t_grid = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 1))
    xs = range(-10, 11)
    columns = [_residual_column(params.beta, t, xs) for t in t_grid]
    cells = [(x, t, col[i]) for i, x in enumerate(xs) for t, col in zip(t_grid, columns)]
    residual_rows = [{"x": x, "t": float(t), "residual": abs(r)} for x, t, (_, r) in cells]
    max_residual = max([0.0] + [row["residual"] for row in residual_rows])
    max_value = max([0.0] + [abs(value) for _, _, (value, _) in cells])
    zero_poly = all(heat_residual_poly(params, x) == {} for x in xs)
    huang = [huang_bound_audit(params, k, t_grid) for k in range(1, 21)]
    conclusion = (
        zero_poly
        and max_residual <= 1e-9 * max(max_value, 1e-300)
        and growth.passed
        and all(w.not_analytic for w in witnesses)
    )
    report = {
        "params": {
            "beta": params.beta,
            "theta": params.theta,
            "epsilon": params.epsilon,
            "T": params.time_shift,
        },
        "grid": {"x": [min(xs), max(xs)], "t": [float(t) for t in t_grid]},
        "max_residual": max_residual,
        "max_value": max_value,
        "residual_poly_zero": zero_poly,
        "growth_pass": growth.passed,
        "growth": {
            "r0": growth.r0,
            "window": list(growth.window),
            "worst_margin": growth.worst_margin,
            "violations": growth.violations,
        },
        "huang_findings": [
            {"k": h.k, "bound": h.bound, "findings": h.findings} for h in huang if h.findings
        ],
        "flatness_table": [
            {
                "x": w.x,
                "smallest_s": w.smallest_s,
                "values": {str(j): v for j, v in w.flat_values.items()},
                "flat": w.flat,
            }
            for w in witnesses
        ],
        "positivity": [{"x": w.x, "samples": w.positive_samples} for w in witnesses],
        "conclusion": {
            "not_time_analytic": conclusion,
            "statement": (
                "every probed Taylor coefficient at the shifted origin "
                "vanishes while the solution is positive later, so the "
                "series cannot represent the solution there"
            ),
        },
    }
    return report, conclusion, residual_rows
