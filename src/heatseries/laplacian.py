"""The weighted graph Laplacian, its iterates, and the one-ring sup bounds.

Arithmetic follows the data: rational weights, measures and function values
propagate exact `Fraction` results, and any float among them gives binary64.
The command line picks float64 unless `--exact` is given.  Support handling
is structural: applying the operator can only grow the support by one ring.
"""

from __future__ import annotations

import math

from .graphs import LocalFunction, exact_div


def laplacian_at(graph, f, x):
    """Value of the Laplacian of `f` at a single vertex.

    `f` may be a LocalFunction or any callable on vertices.  The sum over
    neighbors is divided by the vertex measure once, keeping rational inputs
    rational.
    """
    fx = f(x)
    acc = 0
    for y, w in graph.neighbors(x):
        acc += w * (f(y) - fx)
    return exact_div(acc, graph.measure(x))


def apply_laplacian(graph, f):
    """One application of the Laplacian to a finitely supported function.

    Each support vertex x sends w(x, y) f(x) to every neighbor y and
    -deg_w(x) f(x) to itself, where deg_w(x) is the sum of its weights; each
    total is then divided by the measure of its vertex.  The neighbors come
    from the graph's neighbor index, so `graph.neighbors` runs once per
    support vertex over the graph's lifetime and never on the outer ring.
    """
    index = graph.index
    positions, vertices, neighbors, weights = (
        index.positions, index.vertices, index.neighbors, index.weights
    )
    acc = {}
    get = acc.get
    for x, fx in f.items():
        i = positions.get(x)
        if i is None or neighbors[i] is None or vertices[i] is not x:
            i = index.expand(graph, x)
        ws, wdeg = weights[i]
        acc[i] = get(i, 0) - wdeg * fx
        for j, w in zip(neighbors[i], ws):
            acc[j] = get(j, 0) + w * fx
    measures = index.measures
    return LocalFunction({vertices[j]: exact_div(v, measures[j]) for j, v in acc.items()})


class IteratedLaplacianTable:
    """Memoized sequence base, L(base), L^2(base), ... for one graph."""

    def __init__(self, graph, base):
        self.graph = graph
        self.base = base
        self._entries = [base]

    def __len__(self):
        return len(self._entries)

    def entry(self, k):
        if k < 0:
            raise ValueError("iteration order must be nonnegative")
        while k >= len(self._entries):
            self._entries.append(apply_laplacian(self.graph, self._entries[-1]))
        return self._entries[k]


def light_cone_iterates(graph, base, depth, distance, reach):
    """[base, L base, ..., L^depth base], each cut to its light cone.

    The window is the set of vertices x with distance(x) <= reach, where
    `distance` is the distance from a fixed centre (inf off its component).
    Since L f(x) reads f on the unit ball of x only, L^depth base on the
    window needs L^k base only where distance <= reach + depth - k, and
    each iterate is kept there alone.  On the kept set the values are the
    full table's bit for bit: every term a kept vertex receives comes from
    a kept vertex, in the same order.  An iterate is not filtered while the
    support, spreading one ring a step, still fits in its cone.
    """
    known = {}

    def dist(x):
        d = known.get(x)
        if d is None:
            d = known[x] = distance(x)
        return d

    near = max(map(dist, base.support), default=-math.inf)
    f = base
    out = [f]
    for k in range(1, depth + 1):
        f = apply_laplacian(graph, f)
        bound = reach + depth - k
        if near + k > bound:
            f = LocalFunction({x: v for x, v in f.items() if dist(x) <= bound})
        out.append(f)
    return out


def iterated_laplacian(graph, a, k):
    """k-fold Laplacian of `a`, computed by successive one-ring applications."""
    return IteratedLaplacianTable(graph, a).entry(k)


def key_estimate_bound(graph, f, x):
    """One-step sup bound: 2 Deg(x) max over the unit ball of |f|.

    Always dominates |L f(x)|.
    """
    return 2 * graph.deg(x) * f.max_abs_on(graph.ball(x, 1))


def iterate_sup_bound(graph, a, x, j):
    """Chained sup bound on the j-th iterate at `x`.

    2^j (max Deg over ball(x, j-1))^j (max |a| over ball(x, j)); dominates
    |L^j a(x)| by iterating the one-step estimate.
    """
    if j < 1:
        raise ValueError("iteration order must be >= 1")
    deg_max = max(graph.deg(y) for y in graph.ball(x, j - 1))
    amp = a.max_abs_on(graph.ball(x, j))
    return (2 ** j) * (deg_max ** j) * amp
