"""Weighted graphs: finite graphs, lazy infinite families, local functions.

A graph carries a positive symmetric edge weight, a positive vertex measure,
and a distinguished root vertex used as the base point of all distance-based
envelopes.  A finite graph is built one way, from its measures and an edge
list, and enumerates its vertices; infinite families expose a neighbor
oracle plus a closed-form metric.

Every derived query reads the family.  A walk expands a whole sphere with
one call to its `neighbor_rows`; balls are not memoized but walked afresh.
A graph holds no positions or rows of its own: its `index` slot is the
Laplacian kernel's (`laplacian.KernelIndex`), None until the kernel runs.

Graphs are immutable after construction.  The kernel fills its index on
demand without locks, so a graph must not be shared between threads.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain, islice, repeat
from numbers import Rational, Real
from operator import add, itemgetter
from pathlib import Path

from .errors import GraphSchemaError, UnknownVertexError, UnreachableVertexError


def exact_div(num, den):
    """Divide, staying in exact rational arithmetic when both sides allow it."""
    if isinstance(num, Rational) and isinstance(den, Rational):
        return Fraction(num) / Fraction(den)
    return num / den


def vertex_key(x):
    """Sort key giving vertices of any family one deterministic order."""
    return repr(x)


def _natural_order(ids):
    """The vertex ids `ids` sorted, or in `vertex_key` order where two of
    them do not compare (an int and a str, or None and anything)."""
    try:
        return sorted(ids)
    except TypeError:
        return sorted(ids, key=vertex_key)


#: The types a graph's measures and weights, and a kernel's function
#: values, may have: exactly these, so no bool or numpy scalar.
NUMBER_TYPES = frozenset((int, float, Fraction))

#: Vertices per call of `neighbor_rows` where a query reads the rows of a
#: whole list: the neighbour words a call makes and drops leave a peak of
#: memory that grows with it.
_ROW_CHUNK = 128


def number_problem(value):
    """Why `value` is not a real number finite in binary64, or None if it is."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return "non-numeric"
    try:
        if math.isfinite(value):
            return None
    except OverflowError:  # an int or rational beyond the float range
        pass
    return "non-finite"


def require_finite(name, value):
    """Refuse, by name, a `value` that is not a number finite in binary64."""
    problem = number_problem(value)
    if problem:
        raise ValueError(f"{problem} {name} {value!r}")


def float_or_inf(value):
    """`float(value)`, or inf with the sign of `value` where it lies beyond binary64."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number_refusal(value):
    """Why `value` cannot be a graph's measure or weight, or None if it can."""
    if type(value) not in NUMBER_TYPES:
        return f"is of type {type(value).__name__}, not int, float or Fraction"
    if number_problem(value):
        return "is not finite in binary64"
    return None if value > 0 else "is nonpositive"


def _brief(value):
    """`repr(value)`, or for a long one a short form: an int or Fraction by
    its type and order of magnitude, anything else cut to 24 characters."""
    text = repr(value)
    if len(text) <= 32:
        return text
    if type(value) in (int, Fraction):
        sign = "-" if value < 0 else ""
        exponent = round(math.log10(abs(value.numerator)) - math.log10(value.denominator))
        return f"~{sign}1e{exponent:+d} ({type(value).__name__})"
    return f"{text[:24]}... ({type(value).__name__})"


class LocalFunction:
    """Finitely supported real-valued vertex function.

    Values are stored only on the support; any other vertex evaluates to
    exactly zero.  Entries equal to zero are dropped at construction so the
    support set is canonical.
    """

    __slots__ = ("_values",)

    def __init__(self, values=None):
        self._values = {x: v for x, v in dict(values or {}).items() if v != 0}

    @classmethod
    def delta(cls, x, value=1):
        """Indicator-style function: `value` at `x`, zero elsewhere."""
        return cls({x: value})

    @property
    def support(self):
        return frozenset(self._values)

    def __call__(self, x):
        return self._values.get(x, 0)

    def __len__(self):
        return len(self._values)

    def __eq__(self, other):
        if isinstance(other, LocalFunction):
            return self._values == other._values
        return NotImplemented

    def __repr__(self):
        return f"LocalFunction({self._values!r})"

    def items(self):
        return self._values.items()

    def sup_norm(self):
        """Maximum of |f| over the support (0 for the zero function)."""
        return max((abs(v) for v in self._values.values()), default=0)

    def max_abs_on(self, vertices):
        return max((abs(self(x)) for x in vertices), default=0)

    def scale(self, c):
        return LocalFunction({x: c * v for x, v in self._values.items()})

    def __add__(self, other):
        out = dict(self._values)
        for x, v in other.items():
            out[x] = out.get(x, 0) + v
        return LocalFunction(out)


class Graph:
    """Base class: locally finite weighted graph with a root vertex.

    Subclasses provide `neighbors`, membership and, for a non-unit measure,
    `_measure`; for certified truncation, `uniform_degree_bound` too.  The
    derived queries read the family: a walk through `neighbor_rows`, a
    sphere at a time, and `weight`, `deg` and `degrees` through the rows of
    the vertices asked about.  A family with a closed form may override
    `neighbor_rows` and `distances_from_root`, which work a list at a time.
    `index` is the Laplacian kernel's slot (`laplacian.KernelIndex`), None
    until the kernel's first use on the graph.

    The number contract, which `FiniteGraph` checks when it is built and
    the lazy families meet with int 1 throughout: every measure and weight
    is exactly an int, float or Fraction (no bool, no numpy scalar),
    positive and finite in binary64; no measure rounds to 0.0 in binary64;
    and each vertex's weight sum and Deg = weight sum / measure are finite
    in binary64.  The Laplacian kernel computes in binary64 or exactly on
    these numbers alone.  `is_regular`: Deg is `uniform_degree_bound()`
    at every vertex.
    """

    is_finite = False
    is_regular = False

    def __init__(self, root):
        self.root = root
        self.index = None

    # -- primitive surface ------------------------------------------------

    def neighbors(self, x):
        """Tuple of (neighbor, edge weight) pairs, deterministic order."""
        raise NotImplementedError

    def neighbor_rows(self, xs):
        """(neighbor tuples, weight tuples) of the vertices `xs`, in the order
        `neighbors` gives.

        Callers pass vertices already checked, so a family that overrides it
        need not check them.  This default calls `neighbors` per vertex.
        """
        pairs = list(map(self.neighbors, xs))
        return ([tuple(y for y, _ in row) for row in pairs],
                [tuple(w for _, w in row) for row in pairs])

    def distances_from_root(self, xs):
        """The distance from the root of each vertex in `xs`, inf for one not
        connected to the root.  This default asks `distance` per vertex."""
        return [self.distance(x, self.root) for x in xs]

    def _measure(self, x):
        """Measure of a vertex already known to be in the graph."""
        return 1

    def __contains__(self, x):
        raise NotImplementedError

    def check_vertex(self, x):
        """Raise UnknownVertexError unless `x` is a vertex."""
        try:
            if x in self:
                return
        except TypeError:  # unhashable, so not a vertex
            pass
        raise UnknownVertexError(f"unknown vertex {x!r}")

    def measure(self, x):
        self.check_vertex(x)
        return self._measure(x)

    # -- derived queries ---------------------------------------------------

    def layers(self, sources):
        """Yield frozensets: `sources`, then the vertices at distance 1, 2, ...

        Each source is checked first.  A sphere is expanded, with one call
        to `neighbor_rows`, only when the next one is requested; the walk
        ends after the last nonempty sphere.
        """
        sources = list(sources)
        for x in sources:
            self.check_vertex(x)
        sphere = frozenset(sources)
        seen = set(sphere)
        while sphere:
            yield sphere
            rows, _ = self.neighbor_rows(list(sphere))
            sphere = frozenset(chain.from_iterable(rows)).difference(seen)
            seen |= sphere

    def weight(self, x, y):
        """Edge weight, 0 for non-neighbors (and on the diagonal)."""
        self.check_vertex(y)
        return dict(self.neighbors(x)).get(y, 0)

    def deg(self, x):
        """Weighted degree: sum of incident weights over the vertex measure."""
        self.check_vertex(x)
        return self.degrees([x])[0]

    def degrees(self, xs):
        """List of `deg` of each vertex in `xs`, with one call to
        `neighbor_rows` per `_ROW_CHUNK` vertices.

        Like `neighbor_rows`, it takes vertices already checked, such as a
        walk's, and checks none of them again.
        """
        xs = list(xs)
        out = []
        for lo in range(0, len(xs), _ROW_CHUNK):
            chunk = xs[lo:lo + _ROW_CHUNK]
            _, weight_rows = self.neighbor_rows(chunk)
            out += map(exact_div, map(sum, weight_rows), map(self._measure, chunk))
        return out

    def distance(self, x, y):
        """Combinatorial (shortest-path) distance.

        The generic implementation walks the spheres around `x`; infinite
        families override it with their closed-form metric.
        """
        self.check_vertex(y)
        for d, sphere in enumerate(self.layers((x,))):
            if y in sphere:
                return d
        raise UnreachableVertexError(f"no path from {x!r} to {y!r}")

    def ball(self, x, radius):
        """Closed metric ball {y : d(x,y) <= radius} as a frozenset."""
        radius = int(radius)
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        return frozenset().union(*islice(self.layers((x,)), radius + 1))

    def sphere(self, x, radius):
        """Vertices at distance exactly `radius` from `x`."""
        radius = int(radius)
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        return next(islice(self.layers((x,)), radius, None), frozenset())

    def one_neighborhood(self, vertices):
        """Union of the closed unit balls around every vertex of `vertices`."""
        return frozenset().union(*islice(self.layers(vertices), 2))

    def uniform_degree_bound(self):
        """A constant dominating Deg on the whole graph, or None if unknown."""
        return None

    def measure_floor(self):
        """A positive constant below every vertex measure, or None if unknown.

        The forward Chebyshev tail reads a vertex value off an l^2(mu) norm,
        which needs it.  This default knows only its own unit measure, so a
        subclass that overrides `_measure` reports None unless it overrides
        this too.
        """
        return 1 if type(self)._measure is Graph._measure else None


class FiniteGraph(Graph):
    """Weighted graph from a vertex -> measure map and (u, v, weight) edges.

    Each undirected edge is listed once and its weight charged to both ends,
    so the graph is symmetric by construction.  Endpoints and root must be
    declared; self-loops and duplicates fail.  Construction is where the
    numbers are checked against the `Graph` contract: a GraphSchemaError
    names the vertex or edge whose measure, weight, weight sum or Deg breaks
    it.  Each weight sum is taken in neighbor order, as `deg` and the
    Laplacian kernel take it, and the largest Deg is kept as the uniform
    degree bound.
    """

    is_finite = True

    def __init__(self, measures, edges, root):
        super().__init__(root)
        mu = self._mu = dict(measures)
        for x, m in mu.items():
            why = _number_refusal(m) or ("rounds to 0.0 in binary64" if float(m) == 0 else None)
            if why:
                raise GraphSchemaError(f"measure {_brief(m)} at vertex {x!r} {why}")
        adj = {x: {} for x in mu}
        for u, v, w in edges:
            if u == v:
                raise GraphSchemaError(f"self-loop at vertex {u!r}")
            if u not in mu or v not in mu:
                raise GraphSchemaError(f"edge ({u!r}, {v!r}) has an undeclared endpoint")
            why = _number_refusal(w)
            if why:
                raise GraphSchemaError(f"weight {_brief(w)} on edge ({u!r}, {v!r}) {why}")
            if v in adj[u]:
                raise GraphSchemaError(f"duplicate edge ({u!r}, {v!r})")
            adj[u][v] = w
            adj[v][u] = w
        if root not in mu:
            raise UnknownVertexError(f"root {root!r} is not a vertex")
        self._nbrs = {x: tuple((y, row[y]) for y in _natural_order(row)) for x, row in adj.items()}
        self._depth = None  # vertex -> root distance, walked on first use
        degs = []
        for x, pairs in self._nbrs.items():
            total = sum(w for _, w in pairs)
            if number_problem(total):
                raise GraphSchemaError(f"weight sum at vertex {x!r} is not finite in binary64")
            deg = exact_div(total, mu[x])
            if number_problem(deg):
                raise GraphSchemaError(
                    f"Deg = weight sum / measure at vertex {x!r} is not finite in binary64")
            degs.append(deg)
        self._max_deg = max(degs, default=0)
        self.is_regular = min(degs, default=0) == self._max_deg

    def vertices(self):
        return tuple(_natural_order(self._mu))

    def __len__(self):
        return len(self._mu)

    def __contains__(self, x):
        return x in self._mu

    def neighbors(self, x):
        try:
            return self._nbrs[x]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {x!r}") from None

    def _measure(self, x):
        return self._mu[x]

    def distances_from_root(self, xs):
        if self._depth is None:  # one walk from the root rather than one per vertex
            self._depth = {x: r for r, sphere in enumerate(self.layers((self.root,)))
                           for x in sphere}
        return list(map(self._depth.get, xs, repeat(math.inf)))

    def uniform_degree_bound(self):
        return self._max_deg

    def measure_floor(self):
        return min(self._mu.values())


class IntegerLine(Graph):
    """The integers with unit nearest-neighbor weights and unit measure."""

    is_regular = True

    def __init__(self):
        super().__init__(0)

    def __contains__(self, x):
        return isinstance(x, int) and not isinstance(x, bool)

    def neighbors(self, x):
        self.check_vertex(x)
        return ((x - 1, 1), (x + 1, 1))

    def neighbor_rows(self, xs):
        return [(x - 1, x + 1) for x in xs], [(1, 1)] * len(xs)

    def distances_from_root(self, xs):
        return list(map(abs, xs))

    def distance(self, x, y):
        self.check_vertex(x)
        self.check_vertex(y)
        return abs(x - y)

    def uniform_degree_bound(self):
        return 2


class IntegerLattice(Graph):
    """Z^d with unit weights; vertices are integer d-tuples, metric is l1."""

    is_regular = True

    def __init__(self, dim):
        if int(dim) != dim or dim < 1:
            raise ValueError("lattice dimension must be a positive integer")
        self.dim = int(dim)
        super().__init__((0,) * self.dim)

    def __contains__(self, x):
        return (
            isinstance(x, tuple)
            and len(x) == self.dim
            and all(isinstance(c, int) and not isinstance(c, bool) for c in x)
        )

    def neighbors(self, x):
        self.check_vertex(x)
        out = []
        for i in range(self.dim):
            for step in (-1, 1):
                y = x[:i] + (x[i] + step,) + x[i + 1:]
                out.append((y, 1))
        return tuple(out)

    def neighbor_rows(self, xs):
        # column by column: the neighbors one step along each axis, both ways
        columns = list(zip(*xs))
        moves = [zip(*columns[:i], map(add, column, repeat(step)), *columns[i + 1:])
                 for i, column in enumerate(columns) for step in (-1, 1)]
        return list(zip(*moves)), [(1,) * (2 * self.dim)] * len(xs)

    def distances_from_root(self, xs):
        return list(map(sum, map(map, repeat(abs), xs)))

    def distance(self, x, y):
        self.check_vertex(x)
        self.check_vertex(y)
        return sum(abs(a - b) for a, b in zip(x, y))

    def uniform_degree_bound(self):
        return 2 * self.dim


class RegularTree(Graph):
    """Unrooted k-regular tree with unit weights.

    Vertices are encoded as path words from a fixed base vertex: the base is
    the empty tuple, its k subtrees are labelled 0..k-1, and every deeper
    branching is labelled 0..k-2 (one edge of each non-base vertex points
    back toward the base).  The metric is the word metric.
    """

    is_regular = True

    def __init__(self, degree):
        if int(degree) != degree or degree < 2:
            raise ValueError("tree degree must be an integer >= 2")
        self.degree = int(degree)
        super().__init__(())

    def __contains__(self, x):
        if not isinstance(x, tuple):
            return False
        for i, c in enumerate(x):
            if not isinstance(c, int) or isinstance(c, bool):
                return False
            limit = self.degree if i == 0 else self.degree - 1
            if not 0 <= c < limit:
                return False
        return True

    def neighbors(self, x):
        self.check_vertex(x)
        if not x:
            return tuple(((i,), 1) for i in range(self.degree))
        children = tuple((x + (i,), 1) for i in range(self.degree - 1))
        return ((x[:-1], 1),) + children

    def neighbor_rows(self, xs):
        children = [map(add, xs, repeat((i,))) for i in range(self.degree - 1)]
        rows = list(zip(map(itemgetter(slice(-1)), xs), *children))
        if () in xs:  # the base vertex has no parent but one more child
            rows[xs.index(())] = tuple((i,) for i in range(self.degree))
        return rows, [(1,) * self.degree] * len(xs)

    def distances_from_root(self, xs):
        return list(map(len, xs))

    def distance(self, x, y):
        self.check_vertex(x)
        self.check_vertex(y)
        common = 0
        for a, b in zip(x, y):
            if a != b:
                break
            common += 1
        return len(x) + len(y) - 2 * common

    def uniform_degree_bound(self):
        return self.degree


def family_from_spec(spec):
    """Parse a family descriptor: 'z', 'lattice:<d>' or 'tree:<k>'.

    A refused descriptor is named in the message.
    """
    name, colon, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "z":
        if colon:
            raise ValueError(f"family {spec!r}: z takes no parameter")
        return IntegerLine()
    if name == "lattice":
        if not arg:
            raise ValueError("lattice family needs a dimension, e.g. lattice:2")
        return IntegerLattice(_family_parameter(spec, arg, "dimension"))
    if name == "tree":
        if not arg:
            raise ValueError("tree family needs a degree, e.g. tree:3")
        return RegularTree(_family_parameter(spec, arg, "degree"))
    raise ValueError(f"unknown graph family {spec!r}")


def _family_parameter(spec, arg, what):
    try:
        return int(arg)
    except ValueError:
        raise ValueError(f"family {spec!r}: {what} {arg!r} is not an integer") from None


# -- convenience builders used by tests and CLI fixtures --------------------

def _unit_graph(vertices, pairs, root=0):
    """Integer unit weights and measures, so exact arithmetic stays exact."""
    return FiniteGraph(dict.fromkeys(vertices, 1), [(u, v, 1) for u, v in pairs], root)


def path_graph(n, root=0):
    """Path on vertices 0..n-1."""
    return _unit_graph(range(n), [(i, i + 1) for i in range(n - 1)], root)


def cycle_graph(n):
    """Cycle on vertices 0..n-1, rooted at 0."""
    return _unit_graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    """Complete graph on vertices 0..n-1, rooted at 0."""
    return _unit_graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def integer_segment(half_width):
    """Finite window [-half_width, half_width] of the integer line, rooted at 0."""
    return _unit_graph(range(-half_width, half_width + 1),
                       [(i, i + 1) for i in range(-half_width, half_width)])


def random_weighted_graph(n, seed, extra_edges=None, exact=False):
    """Connected random graph with weights and measures in [1/2, 2].

    Deterministic for a given seed: a random spanning tree plus
    `extra_edges` additional edges (default n // 2).  With exact=True the
    weights are small rationals so downstream arithmetic stays exact.
    """
    import random

    rng = random.Random(seed)

    def draw():
        if exact:
            return Fraction(rng.randrange(8, 33), 16)
        return round(rng.uniform(0.5, 2.0), 6)

    order = list(range(n))
    rng.shuffle(order)
    edges = {}
    for i in range(1, n):
        pair = frozenset((order[i], order[rng.randrange(i)]))
        edges[pair] = draw()
    wanted = (n - 1) + (n // 2 if extra_edges is None else extra_edges)
    attempts = 0
    while len(edges) < wanted and attempts < 50 * n:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        pair = frozenset((u, v))
        if u != v and pair not in edges:
            edges[pair] = draw()
    mu = {i: draw() for i in range(n)}
    triples = [(min(p), max(p), w) for p, w in edges.items()]
    triples.sort()
    return FiniteGraph(mu, triples, 0)


# -- document loader ---------------------------------------------------------

def _vertex_id(value, rec):
    try:
        hash(value)
    except TypeError:
        raise GraphSchemaError(f"unhashable vertex id {value!r} in {rec!r}") from None
    return value


def load_graph(source, exact=False):
    """Load a finite graph from its JSON description.

    Schema: {"root": id, "vertices": [{"id": int, "mu": num}, ...],
    "edges": [{"u": id, "v": id, "w": num}, ...]} with every undirected edge
    listed exactly once.  With exact=True, numeric literals are parsed as
    rationals so downstream arithmetic stays exact.  The measures and
    weights are checked by `FiniteGraph`, against the `Graph` number contract.

    `source` may be a path, a JSON string, or an already-parsed mapping.
    """
    if isinstance(source, (str, Path)):
        if isinstance(source, Path) or not source.lstrip().startswith("{"):
            text = Path(source).read_text()
        else:
            text = source
        parse_float = Fraction if exact else float
        try:
            doc = json.loads(text, parse_float=parse_float)
        except json.JSONDecodeError as exc:
            raise GraphSchemaError(f"invalid JSON: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise GraphSchemaError("graph document must be a JSON object")
    for key in ("root", "vertices", "edges"):
        if key not in doc:
            raise GraphSchemaError(f"missing required key {key!r}")
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise GraphSchemaError("'vertices' and 'edges' must be arrays")

    mu = {}
    for rec in doc["vertices"]:
        if not isinstance(rec, dict) or "id" not in rec or "mu" not in rec:
            raise GraphSchemaError(f"malformed vertex record {rec!r}")
        vid = _vertex_id(rec["id"], rec)
        if vid in mu:
            raise GraphSchemaError(f"duplicate vertex id {vid!r}")
        mu[vid] = rec["mu"]

    seen = set()
    edges = []
    for rec in doc["edges"]:
        if not isinstance(rec, dict) or not {"u", "v", "w"} <= set(rec):
            raise GraphSchemaError(f"malformed edge record {rec!r}")
        u, v = (_vertex_id(rec[end], rec) for end in "uv")
        if u == v:
            raise GraphSchemaError(f"self-loop in edge record {rec!r}")
        if u not in mu or v not in mu:
            raise GraphSchemaError(f"dangling vertex id in edge record {rec!r}")
        key = frozenset((u, v))
        if key in seen:
            raise GraphSchemaError(
                f"edge record {rec!r} duplicates an earlier edge "
                "(each undirected edge must appear exactly once)"
            )
        seen.add(key)
        edges.append((u, v, rec["w"]))

    root = _vertex_id(doc["root"], {"root": doc["root"]})
    if root not in mu:
        raise GraphSchemaError(f"root {root!r} is not a declared vertex")
    return FiniteGraph(mu, edges, root)
