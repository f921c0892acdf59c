"""The weighted graph Laplacian, its iterates, and the one-ring sup bounds.

Arithmetic follows the data: rational weights, measures and function values
propagate exact `Fraction` results, and any float among them gives binary64.
The command line picks float64 unless `--exact` is given.  Support handling
is structural: applying the operator can only grow the support by one ring.

One application is an array step over the graph's `KernelIndex`, which
this module alone makes, in the graph's `index` slot, and fills.  Its
results are those of the plain loop in which each support vertex x, in
order, adds -deg_w(x) f(x) to itself and w(x, y) f(x) to each neighbour y,
after which every total goes through `exact_div` by its measure: the same
values, the same types and the same order of `items()`, whatever the
index's numbering of the vertices, which depends on what ran before.  The
step reads each vertex's weights as its family gave them, and deg_w(x) is
their `sum` in that order, as `Graph.deg` takes it.  The step adds the
terms with `ufunc.at`, which applies them one at a time in the loop's
order, never with a pairwise `reduce`, so a float total rounds exactly as
the loop rounds it.

The step has two arithmetics.  The graph's numbers obey the `Graph`
contract (int, float or Fraction, finite in binary64) and a function's
values must be ints, floats or Fractions too.  When every value is a Python
float, Python computes in binary64 whatever the weights and measures are,
so the values are stored as float64 and the step runs on float64 copies of
the weights and measures.  Otherwise (int, Fraction or mixed data) they are
stored as Python objects and the step runs on the original weights with
Python's own arithmetic, dividing each total by `Fraction(m)` for a rational
measure m and by m itself for a float, which is `exact_div`'s result.
When every value, coefficient and measure a step reads is an int or a
Fraction, that arithmetic is done in Python ints: the values and the
coefficients become integer numerators over their least common
denominators, the terms are int products added by the same `np.add.at`,
and each total makes one `Fraction`.  Exact arithmetic is associative, so
each result is the rational, of the type, that the Python loop gives,
without a gcd per term.
A step keeps its arithmetic: its result is stored as its input was, even
when every value of an object step came out a float.  The bits agree either
way, since a Python float times or over an int or Fraction rounds as it
does against the float64 copy of that number.
numpy's floating-point warnings are off inside the step: an overflow gives
inf or nan silently, as Python floats do.

A table of iterates is driven by a step from the last two entries to the
next.  The Taylor table's step is L itself.  The Chebyshev table of
S = I + L/d takes T_{k+1} = 2 S T_k - T_{k-1} (and T_1 = S T_0): one
Laplacian step on the float64 values plus one array combination over index
positions, in binary64 whatever the data's type.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import is_

import numpy as np

from .errors import UnknownVertexError
from .graphs import NUMBER_TYPES, _ROW_CHUNK, LocalFunction, exact_div


class IndexedFunction(LocalFunction):
    """A LocalFunction held as arrays over a graph's kernel index.

    `pos` holds index positions and `vals` their values, in `items()` order,
    float64 or objects as the step's arithmetic (see the module).  The dict
    the LocalFunction methods read is built on first use.
    """

    __slots__ = ("index", "pos", "vals", "_dict")

    def __init__(self, index, pos, vals):
        self.index = index
        self.pos = pos
        self.vals = vals
        self._dict = None

    @property
    def _values(self):
        if self._dict is None:
            vertices = self.index.vertices
            self._dict = dict(zip([vertices[i] for i in self.pos.tolist()], self.vals.tolist()))
        return self._dict

    def __call__(self, x):
        return (self._dict or self._values).get(x, 0)

    def __len__(self):
        return len(self.pos)

    def restrict(self, keep):
        """The function on the entries where the boolean array `keep` holds."""
        return IndexedFunction(self.index, self.pos[keep], self.vals[keep])


def _stored(items):
    """The values of the (vertex, value) `items` as float64 if all are Python
    floats, else as objects.

    A value of another type than int, float and Fraction is refused with a
    TypeError naming its vertex.
    """
    values = [v for _, v in items]
    kinds = set(map(type, values))
    if not kinds <= NUMBER_TYPES:
        x, v = next((x, v) for x, v in items if type(v) not in NUMBER_TYPES)
        raise TypeError(f"value {v!r} at vertex {x!r} is of type {type(v).__name__}, "
                        "not int, float or Fraction")
    return np.array(values, dtype=np.float64 if kinds <= {float} else object)


def _grown(a, n):
    """`a`, or a copy with room for at least `n` entries, the new ones unset:
    memory that is never written takes no room."""
    if len(a) >= n:
        return a
    out = np.empty(max(n, 2 * len(a), 64), dtype=a.dtype)
    out[: len(a)] = a
    return out


class KernelIndex:
    """Integer positions for the vertices the Laplacian kernel has met on one
    graph, and the step's rows over them.

    Position i holds vertex `vertices[i]` and its measure.  A vertex gets a
    position when `position` has validated it or when it is first seen as a
    neighbour in a row, so every vertex held is a vertex of the graph.
    Position i gets a row when it is first a source of a step: its targets
    [i, neighbours...] and coefficients [-deg_w, w...] lie back to back in
    `targets` and `coefs` from `start[i]`, `length[i]` long (0 until then),
    so a vertex of high degree pads no other row.  The coefficients are the
    weights `neighbor_rows` gave and the `sum` of them; `fcoefs` and
    `fmeasures` are their float64 copies and the measures', which the
    float64 step reads, and `divisors` gives the measures the exact step
    divides by.  The index holds no reference to its graph: a graph and its
    index are freed together without waiting for the cycle collector.
    """

    __slots__ = ("positions", "vertices", "measures", "fmeasures", "_divisors", "used", "start",
                 "length", "targets", "coefs", "fcoefs")

    def __init__(self):
        self.positions = {}
        self.vertices = []
        self.measures = []
        self.fmeasures = np.empty(0)
        self._divisors = np.empty(0, dtype=object)
        self.used = 0
        self.start = np.empty(0, dtype=np.intp)
        self.length = np.empty(0, dtype=np.intp)
        self.targets = np.empty(0, dtype=np.intp)
        self.coefs = np.empty(0, dtype=object)
        self.fcoefs = np.empty(0)

    def _add(self, graph, fresh):
        """Hold the vertices `fresh` maps to their positions, the next ones in
        order, with no row; none of them is held yet."""
        lo = len(self.vertices)
        xs = list(fresh)
        self.positions.update(fresh)  # the hashes come with `fresh`
        self.vertices += xs
        self.measures += map(graph._measure, xs)
        hi = len(self.vertices)
        self.start = _grown(self.start, hi)
        self.length = _grown(self.length, hi)
        self.length[lo:hi] = 0
        self.fmeasures = _grown(self.fmeasures, hi)
        self.fmeasures[lo:hi] = self.measures[lo:]

    def divisors(self):
        """The measures as the exact step divides by them, converting those
        added since the last call: a float m as it is, an int or Fraction m
        as `Fraction(m)`.  A total v over it is `exact_div(v, m)`, type and bits."""
        done = len(self._divisors)
        if done < len(self.measures):
            more = [m if type(m) is float else Fraction(m) for m in self.measures[done:]]
            self._divisors = np.concatenate((self._divisors, np.array(more, dtype=object)))
        return self._divisors

    def position(self, graph, x):
        """Position of `x`, added if need be; UnknownVertexError unless `x`
        is a vertex.  The very object held is not checked again, a value
        equal to it (1.0 or True for 1) is, so no answer depends on what is held."""
        try:
            i = self.positions.get(x)
        except TypeError:  # unhashable, so not a vertex
            raise UnknownVertexError(f"unknown vertex {x!r}") from None
        if i is None or self.vertices[i] is not x:
            graph.check_vertex(x)
            if i is None:
                i = len(self.vertices)
                self._add(graph, {x: i})
        return i

    def fill(self, graph, pos):
        """Give every position in `pos` its row, with one call to
        `graph.neighbor_rows` per `_ROW_CHUNK` positions that have none."""
        pos = pos[self.length[pos] == 0].tolist()
        for lo in range(0, len(pos), _ROW_CHUNK):
            new = pos[lo:lo + _ROW_CHUNK]
            rows, weight_rows = graph.neighbor_rows([self.vertices[i] for i in new])
            # one hash per neighbour, one more per new one: a long word's is not cached
            flat = list(chain.from_iterable(rows))
            at = list(map(self.positions.get, flat))
            if None in at:
                fresh = {}
                first = len(self.vertices)
                for k in compress(count(), map(is_, at, repeat(None))):
                    at[k] = fresh.setdefault(flat[k], first + len(fresh))
                self._add(graph, fresh)
            at = iter(at)
            lengths = [len(row) + 1 for row in rows]
            targets = list(chain.from_iterable((i, *islice(at, n - 1))
                                               for i, n in zip(new, lengths)))
            coefs = list(chain.from_iterable((-sum(ws), *ws) for ws in weight_rows))
            start, end = self.used, self.used + len(targets)
            self.targets = _grown(self.targets, end)
            self.coefs = _grown(self.coefs, end)
            self.fcoefs = _grown(self.fcoefs, end)
            self.targets[start:end] = targets
            self.coefs[start:end] = self.fcoefs[start:end] = coefs
            self.start[new] = list(accumulate(lengths[:-1], initial=start))
            self.length[new] = lengths
            self.used = end


_RATIONAL_TYPES = frozenset((int, Fraction))


def is_rational(a):
    """Whether every entry of the object array `a` is an int or a Fraction."""
    return set(map(type, a.flat)) <= _RATIONAL_TYPES


def integer_numerators(a):
    """(n, d) with n / d == `a` entrywise: `a` an object array of ints and
    Fractions, d their least common denominator and n an object array of
    Python ints of `a`'s shape."""
    dens = [v.denominator for v in a.flat]
    d = math.lcm(*set(dens))
    nums = np.array([v.numerator for v in a.flat], dtype=object).reshape(a.shape)
    if d != 1:
        nums *= d // np.array(dens, dtype=object).reshape(a.shape)
    return nums, d


@np.errstate(all="ignore")  # overflow gives inf or nan silently, as in Python
def _step(index, pos, vals):
    """(targets, values) of one application to `vals` at positions `pos` of
    `index`, all of which have rows.

    The terms w f(x) are put in the loop's order and added by `np.add.at`
    into a scratch array over the index, 0 at the targets and never read
    elsewhere.  `ufunc.at` is unbuffered and works through its indices in
    order, so each target's total is the loop's left to right sum from 0.
    `np.minimum.at` finds the term at which the loop first touches each
    target, and the targets come out in the order of those terms, zeros
    dropped.  float64 `vals` are stepped on the float64 copies of the rows
    and measures, object `vals` on the original rows and the `divisors`.
    When every value, coefficient and divisor read is rational, the values
    and the coefficients are stepped as integer numerators over their least
    common denominators d_v and d_c, and a total t at a measure m gives
    Fraction(t * m.denominator, d_c d_v m.numerator) = t / (d_c d_v m).
    """
    lengths = index.length[pos]
    ends = lengths.cumsum()
    total = int(ends[-1])
    ramp = np.arange(total)
    flat = ramp + (index.start[pos] - ends + lengths).repeat(lengths)
    into = index.targets[flat]
    n = len(index.vertices)
    first = np.empty(n, dtype=np.intp)
    first[into] = total
    np.minimum.at(first, into, ramp)
    targets = into[first[into] == ramp]
    del first, ramp  # each temporary is dropped once read, for a lower peak
    exact = vals.dtype == object
    if exact:
        coefs, divisors = index.coefs[flat], index.divisors()[targets]
    else:
        coefs, divisors = index.fcoefs[flat], index.fmeasures[targets]
    del flat
    rational = exact and all(map(is_rational, (vals, coefs, divisors)))
    if rational:
        (vals, dv), (coefs, dc) = integer_numerators(vals), integer_numerators(coefs)
    terms = coefs * vals.repeat(lengths)
    del coefs
    acc = np.empty(n, dtype=terms.dtype)
    acc[into] = 0
    np.add.at(acc, into, terms)
    del terms
    if rational:
        scale = dc * dv
        values = np.array([Fraction(t * m.denominator, scale * m.numerator)
                           for t, m in zip(acc[targets].tolist(), divisors.tolist())], dtype=object)
    else:
        values = acc[targets] / divisors
    keep = values != 0
    return targets[keep], values[keep]


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
    from the graph's kernel index, which gives the support vertices that
    have no row yet theirs (see `KernelIndex`), so each vertex is expanded
    once over the graph's lifetime and the outer ring never.  The result is
    an `IndexedFunction` over that index.  A value of `f` that is not an
    int, float or Fraction is refused with a TypeError.
    """
    index = kernel_index(graph)
    pos, vals = _indexed(graph, f)
    if not len(pos):
        return IndexedFunction(index, pos, vals)
    index.fill(graph, pos)
    return IndexedFunction(index, *_step(index, pos, vals))


def kernel_index(graph):
    """The graph's `KernelIndex`, made on first use in its `index` slot."""
    if graph.index is None:
        graph.index = KernelIndex()
    return graph.index


def _indexed(graph, f):
    """(positions, values) of `f` over the graph's kernel index, stored as
    `_stored` stores them; an `IndexedFunction` over the index as it is."""
    index = kernel_index(graph)
    if isinstance(f, IndexedFunction) and f.index is index:
        return f.pos, f.vals
    items = list(f.items())
    return np.array([index.position(graph, x) for x, _ in items], dtype=np.intp), _stored(items)


def _float_indexed(graph, f):
    """`f` as an `IndexedFunction` of float64 values over the graph's kernel index."""
    pos, vals = _indexed(graph, f)
    return IndexedFunction(graph.index, pos, vals.astype(np.float64, copy=False))


def laplacian_step(graph, prev, f):
    """The Taylor table's step: L f, whatever came before."""
    return apply_laplacian(graph, f)


class ChebyshevStep:
    """The Chebyshev table's step for S = I + L/d, `d` a positive float.

    With `prev` None it gives T_1 = S T_0, otherwise T_{k+1} = 2 S T_k -
    T_{k-1}.  Each value is 2 (f(x) + Lf(x) / d) - prev(x) in binary64, taken
    at each index position in that order, a missing value read as 0, and
    zeros are dropped.  The positions come out in the order the step meets
    them: f's in f's order, then those of Lf not in f, then those of prev in
    neither.  So a value depends on the entries at its own position only,
    the order on the data's order and not on the index's numbering, and the
    light cone keeps both bit for bit.
    """

    __slots__ = ("d",)

    def __init__(self, d):
        self.d = d

    @np.errstate(all="ignore")  # overflow gives inf or nan silently, as in Python
    def __call__(self, graph, prev, f):
        f = _float_indexed(graph, f)
        lf = apply_laplacian(graph, f)
        n = len(graph.index.vertices)
        acc = np.zeros(n)
        acc[f.pos] = f.vals
        acc[lf.pos] += lf.vals / self.d
        parts = [f.pos, lf.pos]
        if prev is not None:
            prev = _float_indexed(graph, prev)
            acc *= 2
            acc[prev.pos] -= prev.vals
            parts.append(prev.pos)
        hit = np.zeros(n, dtype=bool)
        met = []
        for part in parts:
            part = part[~hit[part]]
            hit[part] = True
            met.append(part)
        pos = np.concatenate(met)
        vals = acc[pos]
        keep = vals != 0
        return IndexedFunction(graph.index, pos[keep], vals[keep])


class IteratedLaplacianTable:
    """Memoized sequence base, step(base), ... for one graph.

    `step(graph, prev, f)` makes the next entry from the last one, `f`, and
    the one before it, `prev` (None at the first step); by default it is
    `laplacian_step`, which gives base, L base, L^2 base, ...
    """

    def __init__(self, graph, base, step=laplacian_step):
        self.graph = graph
        self.base = base
        self.step = step
        self._entries = [base]

    def __len__(self):
        return len(self._entries)

    def entry(self, k):
        if k < 0:
            raise ValueError("iteration order must be nonnegative")
        entries = self._entries
        while k >= len(entries):
            prev = entries[-2] if len(entries) > 1 else None
            entries.append(self.step(self.graph, prev, entries[-1]))
        return entries[k]


def light_cone_iterates(graph, base, depth, reach, step=laplacian_step):
    """The first depth + 1 entries of the table of `step` from `base`, each
    cut to its light cone.

    The window is the set of vertices within `reach` of the root.  An entry
    k of either table is a polynomial of degree k in L applied to base, and
    L f(x) reads f on the unit ball of x only; so entry `depth` on the
    window needs entry k only within reach + depth - k of the root, and
    each entry is kept there alone.  On the kept set the values are the
    full table's bit for bit: every term a kept vertex receives comes from
    a kept vertex, in the same order.  An entry is not filtered while the
    support, spreading one ring a step, still fits in its cone.  The cut
    reads an array of root distances by index position, filled by one call
    to `graph.distances_from_root` per step for the positions added since.
    """
    vertices = kernel_index(graph).vertices
    dist = np.empty(0)
    near = max(graph.distances_from_root(base.support), default=-math.inf)
    f = base
    out = [f]
    for k in range(1, depth + 1):
        f = step(graph, out[-2] if k > 1 else None, f)
        bound = reach + depth - k
        if near + k > bound:
            if len(dist) < len(vertices):
                # exact ints past binary64 make an object array, compared exactly
                more = graph.distances_from_root(vertices[len(dist):])
                dist = np.concatenate((dist, more))
            f = f.restrict(dist[f.pos] <= bound)
        out.append(f)
    return out


def window_values(iterates, vertices, dtype):
    """Array of `dtype` with rows f(x) for f in `iterates`, columns x in `vertices`.

    The first iterate may be any LocalFunction, the others are
    `IndexedFunction`s over one index; `vertices` must be distinct.  Each
    value is converted as `np.array([f(x), ...], dtype)` would convert it,
    with 0 off a support.
    """
    table = np.zeros((len(iterates), len(vertices)), dtype=dtype)
    table[0] = [iterates[0](x) for x in vertices]
    if len(iterates) > 1:
        index = iterates[1].index
        slot = np.full(len(index.vertices), -1, dtype=np.intp)
        for j, x in enumerate(vertices):
            i = index.positions.get(x)
            if i is not None:
                slot[i] = j
        for k, f in enumerate(iterates[1:], 1):
            s = slot[f.pos]
            hit = s >= 0
            table[k, s[hit]] = f.vals[hit]
    return table


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
    deg_max = max(graph.degrees(graph.ball(x, j - 1)))
    amp = a.max_abs_on(graph.ball(x, j))
    return (2 ** j) * (deg_max ** j) * amp
