"""Spans around the public functions of each heatseries layer.

The tracer wraps functions where their callers look them up (a module
global such as `heatseries.cli.series_eval`, a module attribute reached as
`cx.growth_audit`, or a method on `Graph`), so the package itself is not
edited.  Each call records a span: id, parent id, invocation index, name,
start, end of the call, end of the tracer's own bookkeeping, and counts
taken at the same boundary.  Spans stay in memory and are written out when
the batch ends; `summarize` turns them into per-layer self times and counts.

A span's self time is its duration minus the time its child spans cover
(bookkeeping included), so one layer's time is never charged to another.
A span directly inside a span of the same layer is folded into the outer
one, e.g. a `v_eval` made by `non_analyticity_witness` counts as flatness.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = ("graphs", "laplacian", "series", "bounds", "counterexample", "oracle", "cli")

#: (module, attribute path, span name).  Every entry must resolve.
TARGETS = (
    ("heatseries.graphs", "Graph.ball", "graphs.ball"),
    ("heatseries.graphs", "Graph.one_neighborhood", "graphs.ring"),
    ("heatseries.laplacian", "apply_laplacian", "laplacian.extend"),
    ("heatseries.series", "apply_laplacian", "laplacian.extend"),
    ("heatseries.cli", "apply_laplacian", "laplacian.extend"),
    ("heatseries.cli", "series_eval", "series.eval"),
    ("heatseries.cli", "check_backward_solvability", "series.audit"),
    ("heatseries.cli", "canonical_json", "cli.serialize"),
    ("heatseries.cli", "dense_laplacian", "oracle.dense"),
    ("heatseries.cli", "expm_apply", "oracle.expm"),
    ("heatseries.cli", "brute_iterate", "oracle.iterate"),
    ("heatseries.counterexample", "growth_audit", "counterexample.growth"),
    ("heatseries.counterexample", "non_analyticity_witness", "counterexample.flatness"),
    ("heatseries.counterexample", "heat_residual_1d", "counterexample.residual"),
    ("heatseries.counterexample", "heat_residual_poly", "counterexample.residual"),
    ("heatseries.counterexample", "v_eval", "counterexample.residual"),
    ("heatseries.counterexample", "huang_bound_audit", "counterexample.huang"),
    ("heatseries.bounds", "fit_growth_profile", "bounds.fit"),
    ("heatseries.bounds", "fit_degree_growth", "bounds.fit"),
    ("heatseries.bounds", "radius_estimate", "bounds.radius"),
    ("heatseries.bounds", "remainder_bound", "bounds.remainder"),
)

ROOT = "cli.main"

# span record fields
ID, PARENT, INV, NAME, T0, T1, T2, ATTRS = range(8)


class MissingTargetError(RuntimeError):
    """A wrapped public name no longer exists in the package."""


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self.invocation = -1
        self.solve = False  # whether the current invocation is `solve`
        self._originals = {}
        self._ball_sizes = {}
        self._domains = {}  # extend span id -> the one-ring its call computed on

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        frame = [self._next_id, self._stack[-1][ID] if self._stack else None,
                 self.invocation, name, perf_counter(), 0.0, 0.0, {}]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, t1):
        self._stack.pop()
        frame[T1] = t1

    def _finish(self, frame):
        frame[T2] = perf_counter()
        self.spans.append(frame)

    @contextlib.contextmanager
    def root(self, index, command):
        """The `cli.main` span around one CLI invocation."""
        self.invocation = index
        self.solve = command == "solve"
        frame = self._open(ROOT)
        try:
            yield
        finally:
            self._close(frame, perf_counter())
            self._finish(frame)

    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, perf_counter())
                frame[ATTRS]["raised"] = 1
                tracer._finish(frame)
                raise
            tracer._close(frame, perf_counter())
            if after is not None:
                after(frame, args, result)
            tracer._finish(frame)
            return result

        return traced

    # -- counts taken at the boundaries --------------------------------------

    def _after_ring(self, frame, args, result):
        frame[ATTRS]["in"] = len(args[1])
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent[NAME] == "laplacian.extend":
            self._domains[parent[ID]] = result

    def _after_ball(self, frame, args, result):
        graph, center = args[0], args[1]
        seen = self._ball_sizes.setdefault(id(graph), {})
        grown = len(result) - seen.get(center, 0)
        if grown > 0:
            seen[center] = len(result)
            frame[ATTRS]["new"] = grown

    def _after_extend(self, frame, args, result):
        graph = args[0]
        attrs = frame[ATTRS]
        domain = self._domains.pop(frame[ID], None)
        if domain is None:
            domain = self._originals["graphs.ring"](graph, args[1].support)
        attrs["n"] = len(domain)
        if graph.is_finite:
            attrs["edges"] = sum(len(graph.neighbors(x)) for x in domain)
        else:  # the lazy families are regular
            attrs["edges"] = len(domain) * len(graph.neighbors(graph.root))
        first = next(iter(result.items()), (None, None))[1]
        attrs["exact"] = int(isinstance(first, Fraction))
        if self.solve:
            root = graph.root
            attrs["hist"] = dict(Counter(graph.distance(x, root) for x in domain))

    def _after_eval(self, frame, args, result):
        frame[ATTRS]["terms"] = result.terms_used

    def _after_audit(self, frame, args, result):
        graph, a, _cap, kmax, rmax = args[:5]
        ring = self._originals["graphs.ring"]
        spread = frozenset(a.support)
        for _ in range(kmax):
            spread = ring(graph, spread)
        region = set(self._originals["graphs.ball"](graph, graph.root, rmax)) | spread
        frame[ATTRS]["points"] = (kmax + 1) * len(region)

    def _after_serialize(self, frame, args, result):
        frame[ATTRS]["bytes"] = len(result.encode())

    def _after_dense(self, frame, args, result):
        frame[ATTRS]["n"] = result.n

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target; raise MissingTargetError naming absent ones."""
        after = {
            "graphs.ring": self._after_ring,
            "graphs.ball": self._after_ball,
            "laplacian.extend": self._after_extend,
            "series.eval": self._after_eval,
            "series.audit": self._after_audit,
            "cli.serialize": self._after_serialize,
            "oracle.dense": self._after_dense,
        }
        resolved, missing = [], []
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{path}")
                continue
            resolved.append((owner, attr, fn, name))
        if missing:
            raise MissingTargetError("traced names missing: " + ", ".join(missing))
        for owner, attr, fn, name in resolved:
            self._originals.setdefault(name, fn)
            setattr(owner, attr, self._wrap(fn, name, after.get(name)))


def summarize(spans, solve_windows):
    """Per-layer self times and counts from one batch's spans.

    `solve_windows` maps a solve invocation's index to (rmax, K), the window
    radius and the largest term count it reported; it defines the light cone
    for `laplacian.useful_frac`.
    """
    by_id = {s[ID]: s for s in spans}
    covered = Counter()
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[T2] - s[T0]

    ordered = sorted(spans, key=lambda s: s[T0])
    group = {}
    for s in ordered:
        parent = by_id.get(s[PARENT])
        if (parent is not None and parent[NAME] != ROOT
                and group[parent[ID]].split(".")[0] == s[NAME].split(".")[0]):
            group[s[ID]] = group[parent[ID]]
        else:
            group[s[ID]] = s[NAME]

    self_s, calls = Counter(), Counter()
    count = Counter()
    useful = 0
    steps_by_inv = {}
    for s in ordered:
        g = group[s[ID]]
        self_s[g] += (s[T1] - s[T0]) - covered[s[ID]]
        calls[s[NAME]] += 1
        a = s[ATTRS]
        if s[NAME] == "graphs.ring":
            count["vertices_expanded"] += a.get("in", 0)
        elif s[NAME] == "graphs.ball":
            count["vertices_expanded"] += a.get("new", 0)
        elif s[NAME] == "laplacian.extend":
            count["vertex_updates"] += a.get("n", 0)
            count["edge_terms"] += a.get("edges", 0)
            count["exact_updates"] += a.get("n", 0) * a.get("exact", 0)
            if "hist" in a and s[INV] in solve_windows:
                rmax, big_k = solve_windows[s[INV]]
                k = steps_by_inv[s[INV]] = steps_by_inv.get(s[INV], 0) + 1
                count["cone_updates"] += a["n"]
                useful += sum(c for d, c in a["hist"].items() if int(d) <= rmax + big_k - k)
        elif s[NAME] == "series.eval":
            count["terms"] += a.get("terms", 0)
            count["refusals"] += a.get("raised", 0)
        elif s[NAME] == "series.audit":
            count["audit_points"] += a.get("points", 0)
        elif s[NAME] == "cli.serialize":
            count["report_bytes"] += a.get("bytes", 0)
        elif s[NAME] == "oracle.dense":
            count["dense_n"] += a.get("n", 0)

    def layer_self(layer):
        return sum(v for g, v in self_s.items() if g.split(".")[0] == layer)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    extend_s, eval_s = self_s["laplacian.extend"], self_s["series.eval"]
    metrics = {
        "graphs.ring_s": self_s["graphs.ring"],
        "graphs.ball_s": self_s["graphs.ball"],
        "graphs.ring_calls": calls["graphs.ring"],
        "graphs.vertices_expanded": count["vertices_expanded"],
        "laplacian.extend_s": extend_s,
        "laplacian.steps": calls["laplacian.extend"],
        "laplacian.vertex_updates": count["vertex_updates"],
        "laplacian.edge_terms": count["edge_terms"],
        "laplacian.updates_per_s": rate(count["vertex_updates"], extend_s),
        "laplacian.exact_frac": rate(count["exact_updates"], count["vertex_updates"]),
        "laplacian.useful_frac": rate(useful, count["cone_updates"]),
        "series.eval_s": eval_s,
        "series.evals": calls["series.eval"],
        "series.terms": count["terms"],
        "series.terms_per_s": rate(count["terms"], eval_s),
        "series.refusals": count["refusals"],
        "series.audit_s": self_s["series.audit"],
        "series.audit_points": count["audit_points"],
        "cli.serialize_s": self_s["cli.serialize"],
        "cli.report_bytes": count["report_bytes"],
        "cli.self_s": self_s[ROOT],
        "counterexample.growth_s": self_s["counterexample.growth"],
        "counterexample.flatness_s": self_s["counterexample.flatness"],
        "counterexample.residual_s": self_s["counterexample.residual"],
        "counterexample.huang_s": self_s["counterexample.huang"],
        "oracle.self_s": layer_self("oracle"),
        "oracle.dense_n": count["dense_n"],
        "bounds.self_s": layer_self("bounds"),
    }
    layer_spans = Counter(s[NAME].split(".")[0] for s in spans)
    return metrics, {layer: layer_spans[layer] for layer in LAYERS}
