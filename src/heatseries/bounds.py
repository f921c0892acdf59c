"""Quantitative estimates: analytic-radius trichotomy, Taylor remainder
envelope, and the elementary inequalities the certificates rest on.

All operations are pure.  The trichotomy preserves exact (rational) inputs
so equality cases can be tested with zero tolerance; the large-k envelopes
are evaluated in log space to stay finite far beyond float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import GrowthFitError
from .graphs import LocalFunction, number_problem

#: Exponent grid shared by the profile fitters, declared so fits reproduce.
EXPONENT_GRID = tuple(i / 20 for i in range(41))

#: Rational lower bound of e used by the exact factorial certificate.
_E_LOWER = Fraction(2718281828459045, 10 ** 15)

INFINITE = "infinite"
FINITE_LOWER_BOUND = "finite-lower-bound"
OUT_OF_HYPOTHESIS = "out-of-hypothesis"


def xlnx(x):
    """x ln x extended by its limit 0 at x = 0."""
    return 0.0 if x == 0 else x * math.log(x)


def exp_or_inf(log_value):
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _require_finite(**values):
    """Refuse, by name, any value that is not a number finite in binary64."""
    for name, value in values.items():
        problem = number_problem(value)
        if problem:
            raise ValueError(f"{problem} {name} {value!r}")


@dataclass(frozen=True)
class GrowthProfile:
    """Envelope |f(x)| <= amplitude * e^{rate * d ln d} with d = d(x, root).

    The exponential is read as 1 on the spheres d = 0 and d = 1 (where
    d ln d degenerates), i.e. the envelope there is the bare amplitude.
    Both constants must be finite in binary64.
    """

    amplitude: float
    rate: float

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        _require_finite(amplitude=self.amplitude, rate=self.rate)

    def envelope(self, d):
        if d <= 1:
            return self.amplitude
        return self.amplitude * max(1.0, exp_or_inf(float(self.rate) * xlnx(d)))


@dataclass(frozen=True)
class DegreeGrowth:
    """Envelope Deg(x) <= cap * d(x, root)^power, with Deg(root) <= cap.

    Both constants must be finite in binary64.
    """

    cap: float
    power: float

    def __post_init__(self):
        if not self.cap > 0:
            raise ValueError("cap must be positive")
        if self.power < 0:
            raise ValueError("power must be nonnegative")
        _require_finite(cap=self.cap, power=self.power)

    def envelope(self, d):
        if d == 0:
            return self.cap
        return self.cap * d ** self.power


@dataclass(frozen=True)
class RadiusCertificate:
    """Outcome of the convergence-radius trichotomy.

    kind=infinite when the combined exponent sum is < 1 (radius unbounded),
    kind=finite-lower-bound at the equality case (radius at least
    1/(2 e cap)), kind=out-of-hypothesis beyond it (no claim made; radius is
    None).  `slack` records 1 - rate - power in the input arithmetic.
    """

    kind: str
    radius: object
    slack: object

    def admits(self, t):
        """Whether |t| lies strictly inside the certified interval."""
        if self.kind == INFINITE:
            return True
        if self.kind == FINITE_LOWER_BOUND:
            return abs(t) < self.radius
        return t == 0


def radius_estimate(profile, degree_growth):
    """Trichotomy on rate + power versus 1.

    Pure in (rate + power, cap); rational inputs keep the comparison and the
    recorded slack exact.
    """
    total = profile.rate + degree_growth.power
    slack = 1 - total
    if total < 1:
        return RadiusCertificate(INFINITE, math.inf, slack)
    if total == 1:
        return RadiusCertificate(
            FINITE_LOWER_BOUND, 1.0 / (2.0 * math.e * degree_growth.cap), slack
        )
    return RadiusCertificate(OUT_OF_HYPOTHESIS, None, slack)


def _check_delta(delta):
    """Refuse a remainder window half-width that is not positive and finite."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    _require_finite(delta=delta)


def remainder_bound(k, delta, degree_growth, profile, big_r):
    """Envelope on the k-th Taylor remainder over a radius-big_r window.

    (2 delta cap)^k / k! * amplitude * e^{(rate+power)(k+R) ln(k+R)},
    evaluated in log space; dominates |d_t^k u(x,s) (t-t0)^k / k!| for any
    solution obeying both envelopes, any x within distance big_r of the
    root, and any |t - t0| <= delta.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if big_r < 1:
        raise ValueError("window radius must be >= 1")
    _check_delta(delta)
    rate = float(profile.rate) + float(degree_growth.power)
    log_q = (
        k * math.log(2.0 * delta * degree_growth.cap)
        - math.lgamma(k + 1)
        + math.log(profile.amplitude)
        + rate * xlnx(k + big_r)
    )
    return exp_or_inf(log_q)


def decay_threshold(slack, delta, cap, big_r, k0=1):
    """Term index beyond which the remainder envelope obeys super-log decay.

    max{k0, R, e^{2(1-slack)(ln2+1)R}, (2 delta cap e)^{3/slack},
    3(1-slack)R/slack}; requires slack > 0.  k0 defaults to 1, the audited
    threshold of the factorial lower bound.
    """
    if not slack > 0:
        raise ValueError("decay threshold needs positive slack")
    slack = float(slack)
    return max(
        k0,
        big_r,
        exp_or_inf(2.0 * (1.0 - slack) * (math.log(2.0) + 1.0) * big_r),
        (2.0 * delta * cap * math.e) ** (3.0 / slack),
        3.0 * (1.0 - slack) * big_r / slack,
    )


def decay_envelope(slack, amplitude, k):
    """amplitude * e^{-(slack/3) k ln k}: the certified decay shape."""
    return amplitude * exp_or_inf(-(float(slack) / 3.0) * xlnx(k))


def stirling_lower_holds(k):
    """Exact certificate that k! >= k^k sqrt(k) / e^k.

    Verifies the sufficient inequality (k! * e_lower^k)^2 >= k^(2k+1) over
    the rationals, with e_lower a decimal truncation of e; the slack of the
    true inequality (a factor sqrt(2 pi)) absorbs the truncation error.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = (math.factorial(k) * _E_LOWER ** k) ** 2
    return lhs >= Fraction(k) ** (2 * k + 1)


def lagrange_gap_bound(k, big_r):
    """(ln 2 + 1 + ln k) R, dominating (k+R) ln(k+R) - k ln k for k >= R >= 1."""
    if big_r < 1:
        raise ValueError("R must be >= 1")
    if k < big_r:
        raise ValueError("bound is only valid for k >= R")
    return (math.log(2.0) + 1.0 + math.log(k)) * big_r


def convexity_split(k, d):
    """k ln k + k ln 2 + d ln(2d), dominating (k+d) ln(k+d) for k, d >= 1."""
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    return xlnx(k) + k * math.log(2.0) + d * math.log(2.0 * d)


def root_distances(graph, rmax):
    """Map vertex -> distance from the root, over the radius-rmax ball."""
    spheres = islice(graph.layers((graph.root,)), rmax + 1)
    return {x: r for r, sphere in enumerate(spheres) for x in sphere}


def fit_growth_profile(graph, f, rmax):
    """Fit the smallest envelope certifying `f` on the radius-rmax root ball.

    The amplitude is pinned by the two innermost spheres (where the envelope
    is flat), then the smallest grid rate whose envelope dominates every
    sampled sphere is selected; the fit is re-certified by exhaustive check.
    When no grid rate certifies, a finite graph gets the flat envelope at
    the largest sampled |f| (rounded up into binary64), which dominates the
    ball by construction; on an infinite graph this raises GrowthFitError.
    """
    if rmax < 2:
        raise ValueError("rmax must be >= 2")
    values = f if isinstance(f, LocalFunction) else LocalFunction(f)
    dist = root_distances(graph, rmax)
    amplitude = max(
        (abs(values(x)) for x, d in dist.items() if d <= 1), default=0
    )
    if amplitude == 0:
        amplitude = 1.0
    amplitude = float(amplitude)
    for rate in EXPONENT_GRID:
        profile = GrowthProfile(amplitude, rate)
        if all(abs(values(x)) <= profile.envelope(d) for x, d in dist.items()):
            return profile
    if graph.is_finite:
        top = max(abs(values(x)) for x in dist)
        amplitude = float(top)
        if amplitude < top:
            amplitude = math.nextafter(amplitude, math.inf)
        return GrowthProfile(amplitude, 0.0)
    raise GrowthFitError(
        f"no grid rate up to {EXPONENT_GRID[-1]} certifies the sampled data "
        f"with amplitude {amplitude}"
    )


def fit_degree_growth(graph, rmax):
    """Fit the smallest degree envelope holding on the radius-rmax root ball.

    The cap is pinned by the innermost spheres, mirroring the growth-profile
    fit; the smallest certifying grid power is selected.
    """
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    dist = root_distances(graph, rmax)
    degs = {x: graph.deg(x) for x in dist}
    cap = float(max(degs[x] for x, d in dist.items() if d <= 1))
    if cap == 0:
        raise GrowthFitError(f"fitted degree cap {cap!r} is not positive and finite: "
                             f"the root {graph.root!r} has no edges")
    for power in EXPONENT_GRID:
        growth = DegreeGrowth(cap, power)
        if all(degs[x] <= growth.envelope(d) for x, d in dist.items()):
            return growth
    raise GrowthFitError(
        f"no grid power up to {EXPONENT_GRID[-1]} certifies the degrees "
        f"with cap {cap}"
    )
