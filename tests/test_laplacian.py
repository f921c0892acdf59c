import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatseries.bounds import root_distances
from heatseries.errors import UnknownVertexError
from heatseries.graphs import (
    FiniteGraph,
    Graph,
    IntegerLattice,
    IntegerLine,
    LocalFunction,
    RegularTree,
    exact_div,
    family_from_spec,
    integer_segment,
    path_graph,
    random_weighted_graph,
)
from heatseries.laplacian import (
    IteratedLaplacianTable,
    apply_laplacian,
    iterate_sup_bound,
    key_estimate_bound,
    laplacian_at,
    light_cone_iterates,
)


def root_distance(graph):
    """x -> d(root, x), inf off the root's component, by the graph's metric."""
    if not graph.is_finite:
        return lambda x: graph.distance(x, graph.root)
    dist = root_distances(graph, len(graph))
    return lambda x: dist.get(x, math.inf)


def numpy_laplacian(graph):
    """Independent dense Laplacian built directly from the definition."""
    order = graph.vertices()
    idx = {x: i for i, x in enumerate(order)}
    n = len(order)
    mat = np.zeros((n, n))
    for x in order:
        for y, w in graph.neighbors(x):
            c = float(w) / float(graph.measure(x))
            mat[idx[x], idx[y]] += c
            mat[idx[x], idx[x]] -= c
    return mat, idx


class TestApply:
    def test_delta_on_line(self):
        z = IntegerLine()
        out = apply_laplacian(z, LocalFunction.delta(0))
        assert dict(out.items()) == {-1: 1, 0: -2, 1: 1}

    def test_constant_is_harmonic(self):
        g = random_weighted_graph(10, seed=1)
        f = LocalFunction({x: 3.5 for x in g.vertices()})
        out = apply_laplacian(g, f)
        assert all(abs(v) < 1e-12 for _, v in out.items())

    def test_delta_twice(self):
        # frozen from the dense matrix-power oracle on a path segment
        z = IntegerLine()
        out = IteratedLaplacianTable(z, LocalFunction.delta(0)).entry(2)
        assert dict(out.items()) == {-2: 1, -1: -4, 0: 6, 1: -4, 2: 1}

        seg = integer_segment(5)
        mat, idx = numpy_laplacian(seg)
        vec = np.zeros(len(seg))
        vec[idx[0]] = 1.0
        ref = mat @ (mat @ vec)
        for x in seg.vertices():
            assert out(x) == pytest.approx(ref[idx[x]], abs=1e-13)

    def test_locality(self):
        g = random_weighted_graph(12, seed=2)
        f = LocalFunction({0: 1.0, 3: -2.0})
        out = apply_laplacian(g, f)
        assert out.support <= g.one_neighborhood(f.support)


KERNEL_GRAPHS = ("z", "lattice:2", "lattice:3", "tree:3", "random")


#: lattice:2 with its index grown to the radius-30 ball first: a small
#: support steps over a large index with untouched positions, and position
#: order is not the order in which the loop first touches the targets
GROWN = "lattice:2 grown"


def kernel_graph(spec):
    if spec == "random":
        return random_weighted_graph(15, seed=3, exact=True)
    if spec == GROWN:
        graph = family_from_spec("lattice:2")
        graph.ball(graph.root, 30)
        return graph
    return family_from_spec(spec)


def random_data(graph, rng, number):
    """Values drawn by `number(rng)` on the radius-1 ball around the root."""
    return LocalFunction({x: number(rng) for x in graph.ball(graph.root, 1)})


class TestKernel:
    """The index-based kernel against the pointwise defining sum."""

    @pytest.mark.parametrize("spec", KERNEL_GRAPHS)
    def test_exact_matches_defining_sum(self, spec):
        graph = kernel_graph(spec)
        rng = random.Random(spec)
        f = random_data(graph, rng, lambda r: Fraction(r.randrange(-9, 10), r.randrange(1, 5)))
        for _ in range(7):
            out = apply_laplacian(graph, f)
            ring = graph.one_neighborhood(f.support)
            assert out.support <= ring
            for x in ring:
                assert out(x) == laplacian_at(graph, f, x)
            f = out

    @pytest.mark.parametrize("spec", KERNEL_GRAPHS)
    def test_float_matches_defining_sum(self, spec):
        graph = kernel_graph(spec)
        rng = random.Random(spec)
        f = random_data(graph, rng, lambda r: r.uniform(-1.0, 1.0))
        for _ in range(7):
            out = apply_laplacian(graph, f)
            ring = graph.one_neighborhood(f.support)
            ref = {x: laplacian_at(graph, f, x) for x in ring}
            scale = max(abs(v) for v in ref.values())
            assert out.support <= ring
            for x in ring:
                assert isinstance(out(x), float) or out(x) == 0
                assert abs(out(x) - ref[x]) <= 1e-12 * scale
            f = out

    @pytest.mark.parametrize("family", (RegularTree, IntegerLattice))
    def test_neighbors_called_once_per_support_vertex(self, family):
        class Counting(family):
            def __init__(self, arg):
                super().__init__(arg)
                self.calls = Counter()

            def neighbors(self, x):
                self.calls[x] += 1
                return super().neighbors(x)

            def neighbor_rows(self, xs):
                self.calls.update(xs)
                return super().neighbor_rows(xs)

        big_k = 6
        graph = Counting(3)
        table = IteratedLaplacianTable(graph, LocalFunction.delta(graph.root, 1.0))
        table.entry(big_k)
        # a second table on the same graph reuses the index
        IteratedLaplacianTable(graph, LocalFunction.delta(graph.root, 2.0)).entry(big_k)
        assert max(graph.calls.values()) == 1
        assert set(graph.calls) <= family(3).ball(graph.root, big_k - 1)

    @pytest.mark.parametrize(
        "graph, vertex",
        [
            (IntegerLine(), "a"),
            (IntegerLine(), 2.5),
            (IntegerLattice(2), (0, 0, 0)),
            (RegularTree(3), (3, 0)),
            (path_graph(4), 7),
        ],
    )
    def test_support_off_graph_raises(self, graph, vertex):
        with pytest.raises(UnknownVertexError):
            apply_laplacian(graph, LocalFunction({graph.root: 1.0, vertex: 1.0}))
        # the failed call leaves the index usable
        assert apply_laplacian(graph, LocalFunction.delta(graph.root, 1.0))(graph.root) < 0


class TestLinearityConservation:
    @given(
        st.integers(min_value=0, max_value=9),
        st.fractions(min_value=-4, max_value=4),
        st.fractions(min_value=-4, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity_exact(self, seed, alpha, beta):
        g = random_weighted_graph(10, seed=seed, exact=True)
        rng = random.Random(seed)
        f = LocalFunction({x: Fraction(rng.randrange(-5, 6)) for x in range(5)})
        h = LocalFunction({x: Fraction(rng.randrange(-5, 6)) for x in range(3, 8)})
        combo = f.scale(alpha) + h.scale(beta)
        lhs = apply_laplacian(g, combo)
        rhs = apply_laplacian(g, f).scale(alpha) + apply_laplacian(g, h).scale(beta)
        assert lhs == rhs

    def test_linearity_float(self):
        g = random_weighted_graph(10, seed=11)
        f = LocalFunction({x: 0.7 * x - 1 for x in range(5)})
        h = LocalFunction({x: 1.3 - x for x in range(3, 8)})
        lhs = apply_laplacian(g, f.scale(0.5) + h.scale(-2.0))
        rhs = apply_laplacian(g, f).scale(0.5) + apply_laplacian(g, h).scale(-2.0)
        scale = max(1.0, rhs.sup_norm())
        for x in lhs.support | rhs.support:
            assert abs(lhs(x) - rhs(x)) <= 1e-12 * scale

    @given(st.integers(min_value=0, max_value=19))
    @settings(max_examples=20, deadline=None)
    def test_conservation_exact(self, seed):
        # sum_x mu(x) L f(x) = 0 by weight symmetry
        g = random_weighted_graph(9, seed=seed, exact=True)
        rng = random.Random(seed)
        f = LocalFunction(
            {x: Fraction(rng.randrange(-9, 10), 3) for x in range(6)}
        )
        out = apply_laplacian(g, f)
        assert sum(g.measure(x) * v for x, v in out.items()) == 0


class TestIterates:
    def test_identity_and_first(self):
        z = IntegerLine()
        a = LocalFunction({0: 2, 1: -1})
        assert IteratedLaplacianTable(z, a).entry(0) == a
        assert IteratedLaplacianTable(z, a).entry(1) == apply_laplacian(z, a)

    def test_value_at_origin(self):
        z = IntegerLine()
        assert IteratedLaplacianTable(z, LocalFunction.delta(0)).entry(2)(0) == 6

    def test_table_recursion_invariant(self):
        g = random_weighted_graph(15, seed=4, exact=True)
        table = IteratedLaplacianTable(g, LocalFunction.delta(0, Fraction(1)))
        for k in range(8):
            assert apply_laplacian(g, table.entry(k)) == table.entry(k + 1)

    def test_matches_dense_matrix_power(self):
        # graphs up to 200 vertices, k <= 12, relative to the iterate scale
        for graph in (integer_segment(100), random_weighted_graph(40, seed=8)):
            mat, idx = numpy_laplacian(graph)
            vec = np.zeros(len(graph))
            vec[idx[graph.root]] = 1.0
            table = IteratedLaplacianTable(graph, LocalFunction.delta(graph.root))
            for k in range(13):
                scale = max(1.0, np.abs(vec).max())
                entry = table.entry(k)
                for x in graph.vertices():
                    assert abs(entry(x) - vec[idx[x]]) <= 1e-10 * scale
                vec = mat @ vec

    def test_matches_dense_exact(self):
        g = random_weighted_graph(20, seed=9, exact=True)
        order = g.vertices()
        idx = {x: i for i, x in enumerate(order)}
        vec = [Fraction(0)] * len(order)
        vec[idx[0]] = Fraction(1)
        mat = [[Fraction(0)] * len(order) for _ in order]
        for x in order:
            for y, w in g.neighbors(x):
                c = Fraction(w) / Fraction(g.measure(x))
                mat[idx[x]][idx[y]] += c
                mat[idx[x]][idx[x]] -= c
        table = IteratedLaplacianTable(g, LocalFunction.delta(0, Fraction(1)))
        for k in range(9):
            entry = table.entry(k)
            for x in order:
                assert entry(x) == vec[idx[x]]
            vec = [
                sum(mat[i][j] * vec[j] for j in range(len(order)))
                for i in range(len(order))
            ]


class TestSupBounds:
    def test_key_estimate_example(self):
        z = IntegerLine()
        d0 = LocalFunction.delta(0)
        assert key_estimate_bound(z, d0, 0) == 4
        assert abs(apply_laplacian(z, d0)(0)) == 2

    def test_key_estimate_zero(self):
        z = IntegerLine()
        assert key_estimate_bound(z, LocalFunction({}), 0) == 0

    def test_iterate_bound_example(self):
        z = IntegerLine()
        d0 = LocalFunction.delta(0)
        assert iterate_sup_bound(z, d0, 0, 2) == 16
        assert abs(IteratedLaplacianTable(z, d0).entry(2)(0)) == 6

    def test_iterate_bound_zero(self):
        z = IntegerLine()
        assert iterate_sup_bound(z, LocalFunction({}), 0, 3) == 0

    def test_j1_reduces_to_key_estimate(self):
        g = random_weighted_graph(12, seed=5, exact=True)
        f = LocalFunction({0: Fraction(2), 1: Fraction(-3)})
        for x in g.vertices():
            assert iterate_sup_bound(g, f, x, 1) == 2 * g.deg(x) * f.max_abs_on(
                g.ball(x, 1)
            )

    @given(st.integers(min_value=0, max_value=39))
    @settings(max_examples=40, deadline=None)
    def test_one_step_bound_dominates(self, seed):
        g = random_weighted_graph(10, seed=seed, exact=True)
        rng = random.Random(seed ^ 0xBEEF)
        f = LocalFunction(
            {x: Fraction(rng.randrange(-8, 9), 2) for x in rng.sample(range(10), 4)}
        )
        lap = apply_laplacian(g, f)
        for x in g.vertices():
            assert abs(lap(x)) <= key_estimate_bound(g, f, x)

    @given(st.integers(min_value=0, max_value=19))
    @settings(max_examples=20, deadline=None)
    def test_set_version_bound(self, seed):
        # max over K of |L f| <= 2 (max Deg over K)(max |f| over the 1-hood)
        g = random_weighted_graph(10, seed=seed, exact=True)
        rng = random.Random(seed ^ 0xC0FFEE)
        f = LocalFunction(
            {x: Fraction(rng.randrange(-8, 9)) for x in rng.sample(range(10), 5)}
        )
        lap = apply_laplacian(g, f)
        region = frozenset(rng.sample(range(10), 4))
        lhs = max(abs(lap(x)) for x in region)
        rhs = (
            2
            * max(g.deg(y) for y in region)
            * f.max_abs_on(g.one_neighborhood(region))
        )
        assert lhs <= rhs

    @given(st.integers(min_value=0, max_value=19), st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_chained_bound_dominates(self, seed, j):
        g = random_weighted_graph(9, seed=seed, exact=True)
        rng = random.Random(seed * 7 + j)
        a = LocalFunction(
            {x: Fraction(rng.randrange(-5, 6)) for x in rng.sample(range(9), 3)}
        )
        it = IteratedLaplacianTable(g, a).entry(j)
        for x in g.vertices():
            assert abs(it(x)) <= iterate_sup_bound(g, a, x, j)


# -- the array kernel against the dict loop it replaced ----------------------

def naive_laplacian(graph, f):
    """One application as the plain dict loop: each support vertex in order
    adds -deg_w f(x) to itself and w f(x) to each neighbour, then every
    total is divided by its measure and zeros are dropped."""
    acc = {}
    for x, fx in f.items():
        pairs = graph.neighbors(x)
        wdeg = sum(w for _, w in pairs)
        acc[x] = acc.get(x, 0) - wdeg * fx
        for y, w in pairs:
            acc[y] = acc.get(y, 0) + w * fx
    return LocalFunction({x: exact_div(v, graph.measure(x)) for x, v in acc.items()})


def typed_items(f):
    """(vertex, type, repr) of every entry in `items()` order: repr tells
    -0.0 from 0.0 and keeps every bit of a float."""
    return [(x, type(v), repr(v)) for x, v in f.items()]


#: A prime denominator past 2^64, co-prime to every other here.
BIG_PRIME = 10 ** 20 + 39

WEIGHTS = (1, 2, 0.5, 1.25, Fraction(1, 3), Fraction(7, 4))
MEASURES = (1, 3, 0.5, 2.25, Fraction(2, 3), Fraction(5, 2))
DATA = {
    "float": st.sampled_from((1.0, -0.75, 0.1, 3.5e-7, -2.0, 1e300)),
    "exact": st.sampled_from((1, -2, 5, Fraction(1, 3), Fraction(-7, 5))),
    "mixed": st.sampled_from((1, -3, 0.25, -1.5, 1e-3, 4)),
}


@st.composite
def kernel_cases(draw):
    """A random weighted graph with non-unit measures and data on it."""
    n = draw(st.integers(1, 7))
    measures = {i: draw(st.sampled_from(MEASURES)) for i in range(n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(u, v, draw(st.sampled_from(WEIGHTS))) for u, v in chosen]
    graph = FiniteGraph(measures, edges, root=draw(st.integers(0, n - 1)))
    support = draw(st.lists(st.integers(0, n - 1), unique=True))
    values = DATA[draw(st.sampled_from(sorted(DATA)))]
    return graph, LocalFunction({x: draw(values) for x in support})


class BareGraph(Graph):
    """A graph with only `neighbors`, membership and a degree bound, so the
    index reads it through the default `neighbor_rows`."""

    def __init__(self, edges):
        super().__init__(0)
        self.adj = {}
        for u, v, w in edges:
            self.adj.setdefault(u, []).append((v, w))
            self.adj.setdefault(v, []).append((u, w))

    def neighbors(self, x):
        self.check_vertex(x)
        return tuple(self.adj[x])

    def __contains__(self, x):
        return type(x) is int and x in self.adj

    def uniform_degree_bound(self):
        return 2


def assert_kernel_matches_the_loop(graph, f, steps=6):
    want, got = f, f
    for _ in range(steps):
        try:
            want = naive_laplacian(graph, want)
        except ArithmeticError as exc:  # an int beyond binary64 meets a float
            with pytest.raises(type(exc), match=str(exc)):
                apply_laplacian(graph, got)
            return
        got = apply_laplacian(graph, got)
        assert typed_items(got) == typed_items(want)
        assert all(type(v) in (int, float, Fraction) for _, v in got.items())
        assert len(got) == len(want) and got.support == want.support


def assert_cone_matches_the_loop(graph, f, depth, reach):
    distance = root_distance(graph)
    cone = light_cone_iterates(graph, f, depth, reach)
    assert cone[0] is f
    want = f
    for k, got in enumerate(cone[1:], 1):
        want = naive_laplacian(graph, want)
        bound = reach + depth - k
        kept = LocalFunction({x: v for x, v in want.items() if distance(x) <= bound})
        assert typed_items(got) == typed_items(kept)


class TestAgainstTheDictLoop:
    """Bit for bit, in `items()` order and in type, the dict loop's results."""

    @given(kernel_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_graphs(self, case):
        graph, f = case
        assert_kernel_matches_the_loop(graph, f)

    @given(kernel_cases(), st.integers(0, 6), st.integers(0, 3))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_light_cone_entries(self, case, depth, reach):
        graph, f = case
        assert_cone_matches_the_loop(graph, f, depth, reach)

    @pytest.mark.parametrize("spec", KERNEL_GRAPHS + (GROWN,))
    @pytest.mark.parametrize("kind", ("float", "exact", "mixed"))
    def test_families(self, spec, kind):
        graph = kernel_graph(spec)
        rng = random.Random(f"{spec}-{kind}")
        number = {
            "float": lambda r: r.uniform(-1.0, 1.0),
            "exact": lambda r: Fraction(r.randrange(-9, 10), r.randrange(1, 5)),
            "mixed": lambda r: r.choice((r.randrange(-9, 10), r.uniform(-1.0, 1.0))),
        }[kind]
        f = random_data(graph, rng, number)
        assert_kernel_matches_the_loop(graph, f, steps=5)
        assert_cone_matches_the_loop(kernel_graph(spec), f, 5, 1)

    @pytest.mark.parametrize("f", (
        LocalFunction(),
        # terms that underflow to -0.0 and to 0.0
        LocalFunction({0: 5e-324, 1: -5e-324, 2: 1e-310}),
        # overflow to inf, then inf - inf = nan
        LocalFunction({0: 1e308, 1: -1.7e308, 2: 1e308}),
        LocalFunction({0: 10 ** 400, 1: 0.5}),
    ))
    def test_edge_data(self, f):
        graph = FiniteGraph({0: 1, 1: 0.5, 2: Fraction(1, 3), 3: 1},
                            [(0, 1, 0.5), (1, 2, 1.5), (2, 3, Fraction(3, 2))], root=0)
        with np.errstate(all="raise"):  # the kernel itself stays silent
            assert_kernel_matches_the_loop(graph, f)
        if f.sup_norm() < 10 ** 400:
            assert_cone_matches_the_loop(graph, f, 4, 0)

    @pytest.mark.parametrize("f", (
        # co-prime denominators, one of them large
        LocalFunction({0: Fraction(1, 3), 2: Fraction(-5, BIG_PRIME), 3: 7}),
        # terms that cancel to exactly 0 at vertex 1 in the first step
        LocalFunction({0: 7, 2: Fraction(-3, BIG_PRIME)}),
        # ints past binary64, and beside a Fraction
        LocalFunction({0: 10 ** 400, 3: -(10 ** 400) + 1}),
        LocalFunction({1: 10 ** 400, 2: Fraction(1, 10 ** 30)}),
    ))
    def test_rational_data(self, f):
        # measures 7/3 and 3/(10^20 + 39), weights 1/(10^20 + 39) and 7/3:
        # no denominator divides another
        graph = FiniteGraph(
            {0: Fraction(7, 3), 1: 1, 2: Fraction(3, BIG_PRIME), 3: 5},
            [(0, 1, Fraction(1, BIG_PRIME)), (1, 2, Fraction(7, 3)), (2, 3, 2), (0, 3, 11)],
            root=0)
        assert_kernel_matches_the_loop(graph, f)
        assert_cone_matches_the_loop(graph, f, 4, 0)

    @pytest.mark.parametrize("spec, x", (("z", 2), ("lattice:2", (1, 2)), ("lattice:3", (0, 1, -1))))
    @pytest.mark.parametrize("value", (Fraction(3, 7), 10 ** 400), ids=("3/7", "10**400"))
    def test_odd_data_cancels_to_zero_at_the_root(self, spec, x, value):
        graph = kernel_graph(spec)
        mirror = tuple(-c for c in x) if isinstance(x, tuple) else -x
        f = LocalFunction({x: value, mirror: -value})
        got = f
        for _ in range(4):
            got = apply_laplacian(graph, got)
            assert graph.root not in got.support
        assert_kernel_matches_the_loop(kernel_graph(spec), f, steps=4)

    @pytest.mark.parametrize("kind", ("finite", "bare"))
    @pytest.mark.parametrize("first", (1, 4))
    def test_equal_weights_of_other_types_are_not_shared(self, first, kind):
        # (1, 1) == (1.0, 1.0), yet vertex 1 computes with ints and 4 with floats
        edges = [(0, 1, 1), (1, 2, 1), (3, 4, 1.0), (4, 5, 1.0)]
        if kind == "finite":
            graph = FiniteGraph({x: 1 for x in range(6)}, edges, root=0)
        else:
            graph = BareGraph(edges)
        graph.deg(first)
        assert repr(graph.deg(1)) == repr(Fraction(2))
        assert repr(graph.deg(4)) == repr(2.0)
        f = LocalFunction({x: Fraction(1, 3) for x in (first, 5 - first)})
        assert_kernel_matches_the_loop(graph, f)

    def test_support_leaving_the_cone_passes_through(self):
        graph = FiniteGraph({0: 1, 1: 1, 5: 1, 6: 1}, [(0, 1, 1.0), (5, 6, 1.0)], root=0)
        cone = light_cone_iterates(graph, LocalFunction({5: 1.0}), 3, 1)
        assert [len(f) for f in cone] == [1, 0, 0, 0]
        assert len(apply_laplacian(graph, cone[-1])) == 0

    def test_vertex_equal_to_a_vertex_is_refused(self):
        z = IntegerLine()
        with pytest.raises(UnknownVertexError):
            apply_laplacian(z, LocalFunction({1.0: 1.0}))
        assert_kernel_matches_the_loop(z, LocalFunction({0: 1.0, 3: 2}), steps=3)
        with pytest.raises(UnknownVertexError):
            apply_laplacian(z, LocalFunction({1.0: 1.0}))

    @pytest.mark.parametrize("value, kind", (
        (np.float64(1.0), "float64"), (True, "bool"), ("1", "str"),
    ))
    def test_values_of_other_types_are_refused_by_vertex(self, value, kind):
        # a graph's numbers are checked when it is built, a function's here
        graph = path_graph(3)
        f = LocalFunction({1: 1.0, 0: value})
        with pytest.raises(TypeError, match=f"^value .* at vertex 0 is of type {kind}, "):
            apply_laplacian(graph, f)
        with pytest.raises(TypeError, match="at vertex 0 "):
            apply_laplacian(graph, LocalFunction({0: value}))
