"""Independent references for every checked value, and the report checks.

None of these comes from the series path under test:

* `z` and `lattice:d`: the closed form prod_i e^{-2t} I_{x_i - y_i}(2t),
  convolved with the initial data, from mpmath `besseli` at 50 digits.  At
  t = 0 the value is the data itself (`besseli` does not converge there).
* `tree:k` with radial data: the radial half-line reduction (one parent and
  k-1 children per sphere step), exponentiated densely with `mpmath.expm`.
* finite graph documents: the dense oracle `heatseries.oracle`.
* exact `laplacian` on `z`: L^k delta_y(x) = (-1)^(k+x-y) C(2k, k+x-y);
  on a graph document: the oracle's exact rational matrix powers.
* `counterexample`, `verify`, `radius`: the verdicts the theory predicts.

Each row reference carries, next to its value, the magnitude sum
M(x, t) = sum_k (|L|^k |a|)(x) |t|^k / k! = (e^{|t| |L|} |a|)(x), where |L|
is the Laplacian with every entry made nonnegative.  A binary64 evaluation
of the series rounds each table entry L^k a with error below
k (deg + 3) u (|L|^k |a|)(x), each weight t^k / k! with relative error below
2k u, and the running sum with relative error below (K + 1) u, for the unit
roundoff u = 2^-53 (Higham, "Accuracy and Stability of Numerical
Algorithms", sections 3.1 and 4.2).  So the rounding error of a row summed
to order K is at most ((deg + 6) K + 1) u M; doubled to cover second-order
terms and the reference's own error, this is the row's rounding envelope.
Exact arithmetic (`--exact`) has none.

An evaluation fails when its invocation raises or exits nonzero, or when
its value is wrong: its error exceeds its reported `tail_bound` plus its
rounding envelope, which no binary64 evaluation of the series may do.  A
value within that but with an error above its `tail_bound` alone is a
certificate violation: the certificate under-reports the rounding error.
Violations are counted and reported on their own, not as failures.
"""

from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction

from mpmath import mp

from plan import lattice_ball, tree_ball

DPS = 50
UNIT_ROUNDOFF = 2.0 ** -53
#: Radial chain length beyond the window; e^{tL} leaks ~(2kt)^m/m! across m steps.
TREE_MARGIN = 20


def _key(vertex, t):
    return json.dumps([vertex, float(t)])  # canonical JSON prints 1.0 as 1


def _time(t_str, exact):
    """The time the CLI evaluates at: the exact decimal, or its binary64."""
    return mp.mpf(t_str) if exact else mp.mpf(float(t_str))


def _envelope_scale(degree, magnitude, exact):
    """Rounding envelope per order: the envelope is (K + 1) times this."""
    return mp.mpf(0) if exact else 2 * (degree + 6) * UNIT_ROUNDOFF * magnitude


class _Kernel:
    """Memoized 1-D heat kernel p_t(n) = e^{-2t} I_n(2t) on Z.

    With `absolute`, the kernel of |L| = 2 + A instead: e^{2|t|} I_n(2|t|).
    """

    def __init__(self):
        self._memo = {}

    def __call__(self, n, t, absolute=False):
        n = abs(n)
        key = (n, t, absolute)
        if key not in self._memo:
            if t == 0:
                self._memo[key] = mp.mpf(1 if n == 0 else 0)
            elif absolute:
                self._memo[key] = mp.exp(2 * abs(t)) * mp.besseli(n, 2 * abs(t))
            else:
                self._memo[key] = mp.exp(-2 * t) * mp.besseli(n, 2 * t)
        return self._memo[key]


def _lattice_refs(check, kernel):
    dim, exact = check["dim"], check.get("exact", False)
    sign = -1 if check.get("backward") else 1
    if check["data"] is None:
        data = [((0,) * dim, mp.mpf(1))]
    else:
        data = [(tuple(v) if dim > 1 else (v,), mp.mpf(s) if exact else mp.mpf(float(s)))
                for v, s in check["data"]]
    refs = {}
    for t_str in check["times"]:
        t = sign * _time(t_str, exact)
        for x in lattice_ball(dim, check["rmax"]):
            total, magnitude = mp.mpf(0), mp.mpf(0)
            for y, a in data:
                term, mag = a, abs(a)
                for xi, yi in zip(x, y):
                    term *= kernel(xi - yi, t)
                    mag *= kernel(xi - yi, t, absolute=True)
                total += term
                magnitude += mag
            refs[_key(list(x) if dim > 1 else x[0], float(t_str))] = (
                total, _envelope_scale(2 * dim, magnitude, exact))
    return refs


def _tree_refs(check, expm_memo):
    k, rmax = check["degree"], check["rmax"]
    profile = check["profile"] or ["1"]
    n = rmax + len(profile) + TREE_MARGIN
    f = mp.matrix([mp.mpf(float(profile[d])) if d < len(profile) else 0 for d in range(n + 1)])
    refs = {}
    for t_str in check["times"]:
        t = mp.mpf(float(t_str))
        # the radial chain of L, then of |L| (diagonal +k) at |t| for the envelope
        for sign, tau in ((-1, t), (1, abs(t))):
            key = (k, n, sign, tau)
            if key not in expm_memo:
                chain = mp.zeros(n + 1, n + 1)
                chain[0, 0], chain[0, 1] = sign * k, k
                for d in range(1, n + 1):
                    chain[d, d - 1], chain[d, d] = 1, sign * k
                    if d < n:
                        chain[d, d + 1] = k - 1
                expm_memo[key] = mp.expm(tau * chain)
        radial = expm_memo[(k, n, -1, t)] * f
        magnitude = expm_memo[(k, n, 1, abs(t))] * f.apply(abs)
        for w in tree_ball(k, rmax):
            refs[_key(list(w), float(t_str))] = (
                radial[len(w)], _envelope_scale(k, magnitude[len(w)], False))
    return refs


def graph_distances(doc, rmax):
    """Breadth-first distances from the document's root, up to rmax."""
    nbrs = {v["id"]: [] for v in doc["vertices"]}
    for e in doc["edges"]:
        nbrs[e["u"]].append(e["v"])
        nbrs[e["v"]].append(e["u"])
    dist = {doc["root"]: 0}
    queue = deque([doc["root"]])
    while queue:
        x = queue.popleft()
        if dist[x] == rmax:
            continue
        for y in nbrs[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _graph_refs(check):
    from heatseries.graphs import load_graph
    from heatseries.oracle import DenseOperator, dense_laplacian, expm_apply

    op = dense_laplacian(load_graph(check["doc"]))
    absolute = DenseOperator(abs(op.matrix), op.order, op.index)
    degree = max(int((op.matrix[i] != 0).sum()) - 1 for i in range(op.n))
    vec = op.vector_of({v: float(s) for v, s in check["data"]})
    sign = -1 if check.get("backward") else 1
    window = sorted(graph_distances(check["doc"], check["rmax"]))
    refs = {}
    for t_str in check["times"]:
        out = expm_apply(op, vec, sign * float(t_str))
        magnitude = expm_apply(absolute, abs(vec), abs(float(t_str)))
        for x in window:
            i = op.index[x]
            refs[_key(x, float(t_str))] = (
                mp.mpf(float(out[i])), _envelope_scale(degree, mp.mpf(float(magnitude[i])), False))
    return refs


def _laplacian_graph_refs(check):
    from heatseries.graphs import load_graph
    from heatseries.oracle import brute_iterate, dense_laplacian

    op = dense_laplacian(load_graph(json.dumps(check["doc"]), exact=True))
    vec = op.vector_of({v: Fraction(s) for v, s in check["data"]})
    refs = {}
    for k in range(check["kmax"] + 1):
        for x, v in zip(op.order, brute_iterate(op, vec, k)):
            if v:
                refs[json.dumps([k, x])] = v
    return refs


def _laplacian_z_refs(check):
    data = [(x, Fraction(s)) for x, s in check["data"]]
    refs = {}
    for k in range(check["kmax"] + 1):
        lo = min(y for y, _ in data) - k
        hi = max(y for y, _ in data) + k
        for x in range(lo, hi + 1):
            v = sum(
                a * (-1) ** ((k + x - y) % 2) * math.comb(2 * k, k + x - y)
                for y, a in data
                if 0 <= k + x - y <= 2 * k
            )
            if v:
                refs[json.dumps([k, x])] = v
    return refs


def compute(invocations):
    """References for every valued invocation of a plan, keyed by id.

    Values are strings (decimal mpf or exact p/q), so they cache as JSON.
    A solve or backward row's reference is the pair [value, envelope scale].
    """
    kernel, expm_memo, out = _Kernel(), {}, {}
    with mp.workdps(DPS):
        for inv in invocations:
            check = inv["check"]
            kind = check["kind"]
            if kind == "lattice":
                refs = _lattice_refs(check, kernel)
            elif kind == "tree":
                with mp.workdps(30):
                    refs = _tree_refs(check, expm_memo)
            elif kind == "graph":
                refs = _graph_refs(check)
            elif kind == "laplacian_z":
                refs = _laplacian_z_refs(check)
            elif kind == "laplacian_graph":
                refs = _laplacian_graph_refs(check)
            else:
                continue
            out[inv["id"]] = {
                k: [str(x) for x in v] if isinstance(v, tuple) else str(v) for k, v in refs.items()
            }
    return out


class CheckResult:
    """Evaluations attempted and failed, plus diagnostics.

    `problems` lists outputs the benchmark could not check (a malformed or
    incomplete report); those make the run's `correct` false.  Failed
    invocations and wrong values are counted in `failed`, not in `problems`.
    `cert_violations` counts rows whose error exceeds their `tail_bound`,
    wrong or not; `uncertified` counts the evaluations that failed or
    violated their certificate.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cert_violations = 0
        self.uncertified = 0
        self.ratio_max = 0.0
        self.envelope_ratio_max = 0.0
        self.problems = []
        self.notes = []
        self.cert_notes = []

    def evaluation(self, ok, note=None, certified=True):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 5:
                self.notes.append(note)
        if not certified:
            self.cert_violations += 1
            if note and len(self.cert_notes) < 5:
                self.cert_notes.append(note)
        if not (ok and certified):
            self.uncertified += 1

    def add(self, other):
        """Fold another invocation's result into this running total."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.cert_violations += other.cert_violations
        self.uncertified += other.uncertified
        self.ratio_max = max(self.ratio_max, other.ratio_max)
        self.envelope_ratio_max = max(self.envelope_ratio_max, other.envelope_ratio_max)
        self.problems += other.problems
        self.notes += other.notes[: max(0, 10 - len(self.notes))]
        self.cert_notes += other.cert_notes[: max(0, 10 - len(self.cert_notes))]


def _expected_count(check, refs):
    if check["kind"] in ("lattice", "tree", "graph", "laplacian_z", "laplacian_graph"):
        return len(refs) + (1 if check.get("backward") else 0)
    return 1


def _check_rows(res, rows, refs, ident):
    seen = set()
    with mp.workdps(DPS):
        for row in rows:
            key = _key(row["vertex"], row["t"])
            if key not in refs or key in seen:
                res.problems.append(f"{ident}: unexpected row {key}")
                continue
            seen.add(key)
            value, scale = refs[key]
            err = abs(mp.mpf(row["value"]) - mp.mpf(value))
            bound = float(row["tail_bound"])
            envelope = (row["K_used"] + 1) * mp.mpf(scale)
            if bound > 0:
                ratio = float(err / bound)
            else:
                ratio = 0.0 if err == 0 else math.inf
            res.ratio_max = max(res.ratio_max, ratio)
            if err:
                res.envelope_ratio_max = max(res.envelope_ratio_max, float(err / (bound + envelope)))
            res.evaluation(
                err <= bound + envelope,
                f"{ident} {key}: error {float(err):.3g} > tail_bound {bound:.3g}"
                f" (rounding envelope {float(envelope):.3g})",
                certified=err <= bound,
            )
    for key in refs.keys() - seen:
        res.problems.append(f"{ident}: missing row {key}")
        res.evaluation(False)


def _check_laplacian_rows(res, rows, refs, ident):
    got = {json.dumps([r["k"], r["vertex"]]): r["value"] for r in rows}
    for key, v in refs.items():
        if key not in got:
            res.problems.append(f"{ident}: missing row {key}")
            res.evaluation(False)
        else:
            res.evaluation(got[key] == float(Fraction(v)), f"{ident} {key}: {got[key]} != {v}")
    for key in got.keys() - refs.keys():
        res.problems.append(f"{ident}: unexpected row {key}")


def _check_radius_graph(check, results):
    """The fitted envelopes must dominate the data they were fitted on."""
    dist = graph_distances(check["doc"], check["rmax"])
    weight = {v["id"]: 0.0 for v in check["doc"]["vertices"]}
    mu = {v["id"]: v["mu"] for v in check["doc"]["vertices"]}
    for e in check["doc"]["edges"]:
        weight[e["u"]] += e["w"]
        weight[e["v"]] += e["w"]
    data = {v: abs(float(s)) for v, s in check["data"]}
    growth, profile, cert = results["degree_growth"], results["profile"], results["certificate"]
    slack = 1 + 1e-12
    for x, d in dist.items():
        deg_env = growth["cap"] * (d ** growth["power"] if d else 1)
        amp_env = profile["amplitude"] * (max(1.0, math.exp(profile["rate"] * d * math.log(d))) if d > 1 else 1)
        if weight[x] / mu[x] > deg_env * slack or data.get(x, 0.0) > amp_env * slack:
            return False
    total = profile["rate"] + growth["power"]
    expected = "infinite" if total < 1 else "finite-lower-bound" if total == 1 else "out-of-hypothesis"
    return cert["kind"] == expected


def check(inv, outcome, report, refs):
    """Compare one invocation's outcome and parsed report with its reference."""
    chk, ident = inv["check"], inv["id"]
    res = CheckResult()
    if outcome["rc"] != 0 or outcome["error"]:
        why = outcome["error"] or f"exit {outcome['rc']}: {outcome['stderr'].strip()[:200]}"
        for _ in range(_expected_count(chk, refs)):
            res.evaluation(False, f"{ident}: {why}")
        return res
    if report is None:
        res.problems.append(f"{ident}: no report")
        return res
    try:
        _check_report(res, chk, report, refs, ident)
    except (KeyError, TypeError, ValueError) as exc:
        res.problems.append(f"{ident}: malformed report ({type(exc).__name__}: {exc})")
    return res


def _check_report(res, chk, report, refs, ident):
    kind = chk["kind"]
    results = report["results"]
    if kind in ("lattice", "tree", "graph"):
        _check_rows(res, results.get("evaluations", []), refs, ident)
        if chk.get("backward"):
            verdict = results.get("solvability", {}).get("verdict")
            res.evaluation(verdict == "certified", f"{ident}: solvability verdict {verdict}")
    elif kind in ("laplacian_z", "laplacian_graph"):
        _check_laplacian_rows(res, results.get("values", []), refs, ident)
    elif kind == "counterexample":
        ok = (report.get("pass") is True
              and results.get("growth_pass") is True
              and results.get("residual_poly_zero") is True
              and results.get("conclusion", {}).get("not_time_analytic") is True)
        res.evaluation(ok, f"{ident}: expected a passing flat-bump audit")
    elif kind == "verify":
        ok = report.get("pass") is True and all(c.get("pass") for c in results.get("checks", []))
        res.evaluation(ok, f"{ident}: expected every oracle check to pass")
    elif kind == "radius_family":
        ok = (results["certificate"]["kind"] == "infinite"
              and results["degree_growth"]["cap"] == chk["degree"]
              and results["degree_growth"]["power"] == 0
              and results["profile"]["rate"] == 0)
        res.evaluation(ok, f"{ident}: expected an infinite radius for bounded degree and data")
    elif kind == "radius_graph":
        res.evaluation(_check_radius_graph(chk, results), f"{ident}: fitted envelope does not dominate")
    else:
        res.problems.append(f"{ident}: unknown check kind {kind!r}")
