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
from .graphs import LocalFunction, require_finite

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
        require_finite("amplitude", self.amplitude)
        require_finite("rate", self.rate)

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
        require_finite("cap", self.cap)
        require_finite("power", self.power)

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


def check_delta(delta):
    """Refuse a remainder window half-width that is not positive and finite."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    require_finite("delta", delta)


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
    check_delta(delta)
    rate = float(profile.rate) + float(degree_growth.power)
    scale = 2.0 * delta * degree_growth.cap
    if scale:
        log_scale = math.log(scale)
    else:  # the product underflowed, its factors did not
        log_scale = math.log(2.0) + math.log(delta) + math.log(degree_growth.cap)
    log_q = (
        k * log_scale
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


def _fit_on_grid(graph, sizes, dist, make, constant, refusal):
    """The smallest envelope `make(constant, e)`, e in EXPONENT_GRID, that
    dominates `sizes` (vertex -> number) at every vertex of `dist`.

    When no grid exponent certifies, a finite graph gets the flat envelope
    at the largest size, rounded up into binary64, which dominates the ball
    by construction; on an infinite graph this raises GrowthFitError with
    the text `refusal`.
    """
    for exponent in EXPONENT_GRID:
        envelope = make(constant, exponent)
        if all(sizes[x] <= envelope.envelope(d) for x, d in dist.items()):
            return envelope
    if graph.is_finite:
        top = max(sizes.values())
        flat = float(top)
        if flat < top:
            flat = math.nextafter(flat, math.inf)
        return make(flat, 0.0)
    raise GrowthFitError(refusal)


def fit_growth_profile(graph, f, rmax):
    """Fit the smallest envelope certifying `f` on the radius-rmax root ball.

    The amplitude is pinned by the two innermost spheres (where the envelope
    is flat), then the smallest grid rate whose envelope dominates every
    sampled sphere is selected, or on a finite graph the flat envelope of
    `_fit_on_grid`.
    """
    if rmax < 2:
        raise ValueError("rmax must be >= 2")
    values = f if isinstance(f, LocalFunction) else LocalFunction(f)
    dist = root_distances(graph, rmax)
    sizes = {x: abs(values(x)) for x in dist}
    amplitude = max((sizes[x] for x, d in dist.items() if d <= 1), default=0)
    amplitude = float(amplitude) if amplitude else 1.0
    return _fit_on_grid(graph, sizes, dist, GrowthProfile, amplitude,
                        f"no grid rate up to {EXPONENT_GRID[-1]} certifies the sampled data "
                        f"with amplitude {amplitude}")


def fit_degree_growth(graph, rmax):
    """Fit the smallest degree envelope holding on the radius-rmax root ball.

    The cap is pinned by the innermost spheres, mirroring the growth-profile
    fit; the smallest certifying grid power is selected, or on a finite
    graph the flat envelope of `_fit_on_grid`.
    """
    if rmax < 1:
        raise ValueError("rmax must be >= 1")
    dist = root_distances(graph, rmax)
    degs = dict(zip(dist, graph.degrees(dist)))
    cap = float(max(degs[x] for x, d in dist.items() if d <= 1))
    if cap == 0:
        raise GrowthFitError(f"fitted degree cap {cap!r} is not positive and finite: "
                             f"the root {graph.root!r} has no edges")
    return _fit_on_grid(graph, degs, dist, DegreeGrowth, cap,
                        f"no grid power up to {EXPONENT_GRID[-1]} certifies the degrees "
                        f"with cap {cap}")


def radius_report(graph, f, rmax, kmax, profile=None, growth=None, delta=None):
    """The `radius` report of data `f` on `graph`, and its window half-width.

    An envelope not given is fitted on the root ball of radius rmax (at
    least 2 for the profile, 1 for the degrees).  The default window is
    radius / 2 for a finite lower bound, else 0.9 / (2 e cap), and must be
    positive and finite.  The table holds Q for k = 1..kmax over the radius
    max(1, rmax) window, and nothing out of hypothesis.
    """
    if delta is not None:
        check_delta(delta)
    profile_src = growth_src = "explicit"
    if profile is None:
        profile, profile_src = fit_growth_profile(graph, f, max(2, rmax)), "fitted"
    if growth is None:
        growth, growth_src = fit_degree_growth(graph, max(1, rmax)), "fitted"
    cert = radius_estimate(profile, growth)
    if delta is None:
        if cert.kind == FINITE_LOWER_BOUND:
            delta, rule = cert.radius / 2.0, "radius / 2"
        else:
            delta, rule = 0.9 / (2.0 * math.e * float(growth.cap)), "0.9 / (2 e cap)"
        # an extreme cap under- or overflows the window; name what set it
        if not 0 < delta < math.inf:
            raise ValueError(
                f"derived window delta = {rule} = {delta!r} is not positive and "
                f"finite for degree cap {float(growth.cap)!r}; give --delta"
            )
    table = []
    if cert.kind != OUT_OF_HYPOTHESIS:
        big_r = max(1, rmax)
        table = [{"k": k, "Q": remainder_bound(k, delta, growth, profile, big_r)}
                 for k in range(1, kmax + 1)]
    report = {
        "profile": {
            "amplitude": float(profile.amplitude),
            "rate": float(profile.rate),
            "source": profile_src,
            "grid": list(EXPONENT_GRID),
        },
        "degree_growth": {
            "cap": float(growth.cap),
            "power": float(growth.power),
            "source": growth_src,
        },
        "certificate": {
            "kind": cert.kind,
            "radius": float(cert.radius) if cert.radius is not None else None,
            "slack": float(cert.slack),
        },
        "remainder_table": table,
    }
    return report, delta
