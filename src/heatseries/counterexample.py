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

Values are exact at a time t = 1/s with s = p/q.  For each beta and s a
DerivativeValueTable holds the integers N_j = R_j(p/q) q^(j(beta+1)), each
found once by Horner's rule in Python ints and shared by every x and
derivative order asked for at that time.  A value sums C(x+k, 2k)
N_(k+order) over k <= x by Horner's rule in q^(beta+1) and becomes one
Fraction over q^((beta+1)(x+order)), so it costs one gcd.  The flat factor
e^{-s^beta} is computed once per time, beta and working precision in a
process and then reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .bounds import exp_or_inf
from .errors import AuditWindowEmptyError
from .graphs import number_problem

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
            problem = number_problem(value)
            if problem:
                raise ValueError(f"{problem} {name} {value!r}")

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

    Values go through _v_exact; the polynomial itself serves the exact
    residual identity of heat_residual_poly.
    """
    table = _table(beta)
    out = {}
    for k, c in enumerate(_term_coefficients(x)):
        _poly_add(out, table.poly(k + order), c)
    return {e: c for e, c in out.items() if c}


def _exact_to_mpf(v):
    v = Fraction(v)
    return mp.mpf(v.numerator) / mp.mpf(v.denominator)


def _flat_factor(s, beta):
    """e^{-s^beta} for rational s, as an mpf (never under/overflows)."""
    return _flat_factor_at(s, beta, mp.prec)


@lru_cache(maxsize=1024)
def _flat_factor_at(s, beta, prec):
    # the value depends on the working precision, so it is part of the key
    return mp.exp(-_exact_to_mpf(s) ** beta)


def _v_mpf(params, x, t, order=0):
    """Arbitrary-precision d^order/dt^order v(x, t); 0 for t <= 0."""
    if t <= 0:
        return mp.mpf(0)
    s = 1 / Fraction(t)
    exact = _v_exact(params.beta, _mirror(x), s, order)
    return _exact_to_mpf(exact) * _flat_factor(s, params.beta)


def _v_exact(beta, x, s, order):
    """The rational P(s) with d^order/dt^order v(x, 1/s) = P(s) e^{-s^beta}.

    Horner's rule in q^(beta+1) over the shared values N_(k+order) builds
    sum_k C(x+k, 2k) N_(k+order) q^((beta+1)(x-k)); one Fraction over
    q^((beta+1)(x+order)) reduces it, so the result is the same rational as
    the combined polynomial at s.
    """
    table = _value_table(beta, s)
    values = table.values(x + order)
    acc = 0
    for k, c in enumerate(_term_coefficients(x)):
        acc = acc * table.step + c * values[k + order]
    return Fraction(acc, table.step ** (x + order))


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
    with mp.workdps(_WORK_DPS):
        return float(_v_mpf(params, x, t))


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
    return (
        v_time_derivative(params, x, t)
        + 2.0 * v_eval(params, x, t)
        - v_eval(params, x - 1, t)
        - v_eval(params, x + 1, t)
    )


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
    worst = 0.0
    violations = []
    with mp.workdps(_WORK_DPS):
        prefactor = 4 * mp.sqrt(2 * mp.pi)
        for x in range(start, xmax + 1):
            envelope = prefactor * mp.e ** ((1.0 + eps) * x * mp.log(x))
            for t in GROWTH_T_GRID:
                value = abs(_v_mpf(params, x, t))
                margin = float(value / envelope)
                worst = max(worst, margin)
                if value > envelope:
                    violations.append((x, float(t), float(value), float(envelope)))
    return GrowthAuditReport(
        passed=not violations,
        r0=r0,
        window=(start, xmax),
        worst_margin=worst,
        violations=violations,
    )


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


def non_analyticity_witness(params, x, kmax, tol=1e-8):
    """Probe flatness at 0+ of all derivatives up to kmax, plus nonzero samples.

    Derivative magnitudes are sampled along the geometric grid t = 2^-m
    (the recorded trace covers the last stretch of the descent); flat means
    every probed magnitude sits under the tolerance.  Sample times are
    relative to the unshifted solution, i.e. at shift + t for the shifted
    one.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if number_problem(tol) or not tol > 0:
        raise ValueError(f"tol must be finite and positive, not {tol!r}")
    probes = sorted({max(1, MAX_DYADIC - step) for step in (20, 15, 10, 5, 0)})
    flat_values = {}
    flat_trace = {}
    with mp.workdps(_WORK_DPS):
        for j in range(kmax + 1):
            trace = [
                (m, float(abs(_v_mpf(params, x, Fraction(1, 2 ** m), order=j))))
                for m in probes
            ]
            flat_trace[j] = trace
            flat_values[j] = trace[-1][1]
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
