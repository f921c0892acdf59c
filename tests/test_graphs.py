import contextlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from heatseries.bounds import root_distances
from heatseries.errors import (
    GraphSchemaError,
    UnknownVertexError,
    UnreachableVertexError,
)
from heatseries.graphs import (
    FiniteGraph,
    IntegerLattice,
    IntegerLine,
    LocalFunction,
    RegularTree,
    cycle_graph,
    family_from_spec,
    load_graph,
    path_graph,
    random_weighted_graph,
    vertex_key,
)
from heatseries.laplacian import IteratedLaplacianTable, apply_laplacian
from heatseries.series import SeriesSolution, audit_region


def bfs_ball(graph, x, radius):
    """Exhaustive BFS oracle, independent of the library's layering."""
    out = {x: 0}
    frontier = [x]
    for d in range(1, radius + 1):
        nxt = []
        for z in frontier:
            for y, _ in graph.neighbors(z):
                if y not in out:
                    out[y] = d
                    nxt.append(y)
        frontier = nxt
    return frozenset(out)


class TestDegree:
    def test_integer_line(self):
        assert IntegerLine().deg(0) == 2

    def test_weighted_vertex(self):
        g = FiniteGraph(
            {0: 2, 1: 1, 2: 1, 3: 1},
            [(0, 1, 1), (0, 2, 2), (0, 3, 3)],
            root=0,
        )
        assert g.deg(0) == 3  # (1+2+3)/2

    def test_isolated_vertex(self):
        g = FiniteGraph({0: 1, 1: 1, 2: 1}, [(0, 1, 1)], root=0)
        assert g.deg(2) == 0

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            IntegerLine().deg(0.5)

    @pytest.mark.parametrize("graph, regular", [
        (IntegerLine(), True), (IntegerLattice(3), True), (RegularTree(4), True),
        (cycle_graph(7), True), (path_graph(5), False), (random_weighted_graph(12, seed=3), False),
        # Deg = 3/3 at the hub and 1/1 at each leaf, in exact arithmetic
        (FiniteGraph({0: 3, 1: 1, 2: 1, 3: 1}, [(0, 1, 1), (0, 2, 1), (0, 3, 1)], 0), True),
        (FiniteGraph({0: 1, 1: 1, 2: 1}, [(0, 1, 1)], 0), False),
    ])
    def test_regular_when_every_deg_is_the_bound(self, graph, regular):
        assert graph.is_regular is regular
        if graph.is_finite:
            bound = graph.uniform_degree_bound()
            assert all(graph.deg(x) == bound for x in graph.vertices()) is regular


class TestDistance:
    def test_line(self):
        z = IntegerLine()
        assert z.distance(0, 5) == 5
        assert z.distance(3, 3) == 0
        assert z.distance(-2, 2) == 4

    def test_cycle_antipodal(self):
        c6 = cycle_graph(6)
        assert c6.distance(0, 3) == 3

    def test_disconnected(self):
        g = FiniteGraph({0: 1, 1: 1, 2: 1}, [(0, 1, 1)], root=0)
        with pytest.raises(UnreachableVertexError):
            g.distance(0, 2)

    def test_lattice_closed_form_matches_bfs(self):
        lat = IntegerLattice(2)
        rng = random.Random(3)
        for _ in range(50):
            x = (rng.randrange(-4, 5), rng.randrange(-4, 5))
            y = (rng.randrange(-4, 5), rng.randrange(-4, 5))
            d = lat.distance(x, y)
            # BFS cross-check: y must first appear on sphere d
            assert y in bfs_ball(lat, x, d)
            assert d == 0 or y not in bfs_ball(lat, x, d - 1)

    def test_tree_word_metric_matches_bfs(self):
        tree = RegularTree(3)
        words = sorted(tree.ball((), 4))
        rng = random.Random(5)
        for _ in range(40):
            x, y = rng.choice(words), rng.choice(words)
            d = tree.distance(x, y)
            assert y in bfs_ball(tree, x, d)
            assert d == 0 or y not in bfs_ball(tree, x, d - 1)

    def test_metric_axioms_random_graphs(self):
        for seed in range(8):
            g = random_weighted_graph(12, seed=seed, extra_edges=4)
            verts = g.vertices()
            rng = random.Random(seed)
            for _ in range(30):
                x, y, z = (rng.choice(verts) for _ in range(3))
                dxy = g.distance(x, y)
                assert dxy == g.distance(y, x)
                assert (dxy == 0) == (x == y)
                assert dxy <= g.distance(x, z) + g.distance(z, y)


class TestBalls:
    def test_line_ball(self):
        assert IntegerLine().ball(0, 2) == frozenset({-2, -1, 0, 1, 2})

    def test_ball_zero(self):
        assert IntegerLine().ball(7, 0) == frozenset({7})

    def test_tree_ball_size(self):
        # 1 + 3 + 3*2, confirmed by the independent BFS oracle
        tree = RegularTree(3)
        assert len(tree.ball((), 2)) == 10
        assert tree.ball((), 2) == bfs_ball(tree, (), 2)

    def test_nesting(self):
        lat = IntegerLattice(2)
        for r in range(5):
            assert lat.ball((0, 0), r) <= lat.ball((0, 0), r + 1)

    @pytest.mark.parametrize("spec", ["z", "lattice:2", "tree:3"])
    def test_lazy_matches_bfs_up_to_12(self, spec):
        g = family_from_spec(spec)
        for r in range(13):
            assert g.ball(g.root, r) == bfs_ball(g, g.root, r)
        # off-center ball as well
        center = {"z": 5, "lattice:2": (2, -1), "tree:3": (0, 1)}[spec]
        for r in range(6):
            assert g.ball(center, r) == bfs_ball(g, center, r)

    def test_sphere(self):
        z = IntegerLine()
        assert z.sphere(0, 3) == frozenset({-3, 3})


class TestOneNeighborhood:
    def test_singleton(self):
        assert IntegerLine().one_neighborhood({0}) == frozenset({-1, 0, 1})

    def test_empty(self):
        assert IntegerLine().one_neighborhood(set()) == frozenset()

    def test_two_points(self):
        got = IntegerLine().one_neighborhood({0, 5})
        assert got == frozenset({-1, 0, 1, 4, 5, 6})


def counting(family):
    """`family` with a per-vertex tally of membership tests and expansions,
    made one at a time or a list at a time, and the length of each list."""

    class Counting(family):
        def __init__(self, arg):
            super().__init__(arg)
            self.contains = Counter()
            self.expanded = Counter()
            self.row_calls = []

        def __contains__(self, x):
            self.contains[x] += 1
            return super().__contains__(x)

        def neighbors(self, x):
            self.expanded[x] += 1
            return super().neighbors(x)

        def neighbor_rows(self, xs):
            self.expanded.update(xs)
            self.row_calls.append(len(xs))
            return super().neighbor_rows(xs)

    return Counting(3)


class TestWalksAndKernelIndex:
    """Walks read the family a sphere at a time; the kernel's index validates
    each vertex it holds once."""

    @pytest.mark.parametrize("family", (RegularTree, IntegerLattice))
    def test_table_checks_each_indexed_vertex_at_most_once(self, family):
        graph = counting(family)
        IteratedLaplacianTable(graph, LocalFunction.delta(graph.root, 1.0)).entry(6)
        assert max(graph.contains.values()) == 1
        assert set(graph.contains) <= set(graph.index.positions)
        # at most one per vertex of the expanded region, ball(root, 5)
        assert sum(graph.contains.values()) <= len(bfs_ball(family(3), graph.root, 5))

    @pytest.mark.parametrize("family", (RegularTree, IntegerLattice))
    def test_walk_reads_one_row_list_per_sphere_and_checks_only_its_sources(self, family):
        graph = counting(family)
        root = graph.root
        a = LocalFunction.delta(root, 1.0)
        IteratedLaplacianTable(graph, a).entry(6)  # rows a walk does not read

        def walked(query):
            graph.contains.clear()
            graph.expanded.clear()
            graph.row_calls.clear()
            return query()

        sizes = [len(bfs_ball(family(3), root, r)) for r in range(5)]
        shells = [hi - lo for lo, hi in zip([0] + sizes, sizes)]
        assert walked(lambda: graph.ball(root, 4)) == bfs_ball(family(3), root, 4)
        assert graph.row_calls == shells[:4]
        assert graph.expanded == Counter(bfs_ball(family(3), root, 3))
        assert graph.contains == Counter({root: 1})
        inner = bfs_ball(family(3), root, 2)
        assert walked(lambda: graph.one_neighborhood(inner)) == bfs_ball(family(3), root, 3)
        assert graph.row_calls == [len(inner)]
        assert graph.contains == Counter(inner)
        assert walked(lambda: max(root_distances(graph, 3).values())) == 3
        assert graph.row_calls == shells[:3] and graph.contains == Counter({root: 1})
        assert len(walked(lambda: audit_region(graph, a, 3, 2))) == sizes[3]
        assert graph.contains == Counter({root: 2})  # the root ball's centre and a's support
        # degrees take checked vertices, a walk's, and check none again
        assert walked(lambda: graph.degrees(inner)) == [graph.uniform_degree_bound()] * len(inner)
        assert graph.row_calls == [len(inner)] and graph.contains == Counter()

    def test_layers_expand_only_when_the_next_sphere_is_asked_for(self):
        graph = counting(RegularTree)
        spheres = graph.layers([(0,), (1, 1)])
        assert next(spheres) == frozenset({(0,), (1, 1)})
        assert graph.expanded == Counter()
        assert next(spheres) == frozenset({(), (0, 0), (0, 1), (1,), (1, 1, 0), (1, 1, 1)})
        assert graph.expanded == Counter({(0,): 1, (1, 1): 1})

    def test_layers_end_on_a_disconnected_graph(self):
        g = FiniteGraph({0: 1, 1: 1, 2: 1}, [(0, 1, 1)], root=0)
        assert list(g.layers({0})) == [frozenset({0}), frozenset({1})]
        assert list(g.layers(set())) == []
        assert g.ball(0, 5) == frozenset({0, 1})
        assert g.sphere(0, 3) == frozenset()

    @pytest.mark.parametrize("query", ("ball", "deg", "one_neighborhood"))
    @pytest.mark.parametrize(
        "graph, vertex",
        [
            (IntegerLine(), 2.5),
            (IntegerLattice(2), (0, 0, 0)),
            (RegularTree(3), (3, 0)),
            (path_graph(4), 7),
        ],
    )
    def test_off_graph_centre_raises_and_leaves_index_usable(self, graph, vertex, query):
        call = {
            "ball": lambda: graph.ball(vertex, 2),
            "deg": lambda: graph.deg(vertex),
            "one_neighborhood": lambda: graph.one_neighborhood([graph.root, vertex]),
        }[query]
        with pytest.raises(UnknownVertexError):
            call()
        assert graph.index is None  # walks and degrees hold nothing
        assert graph.ball(graph.root, 2) == bfs_ball(graph, graph.root, 2)
        # every graph here has unit measures
        assert graph.deg(graph.root) == sum(w for _, w in graph.neighbors(graph.root))

    def test_index_holds_only_vertices_of_the_family(self):
        z = IntegerLine()
        apply_laplacian(z, LocalFunction.delta(0, 1.0))
        # 1.0 and True equal the indexed vertex 1 but are not vertices of z
        for probe in (lambda: z.deg(1.0), lambda: z.ball(True, 2)):
            with contextlib.suppress(UnknownVertexError):
                probe()
        assert {type(v) for v in z.index.vertices} == {int}

    def test_validity_does_not_depend_on_what_the_index_holds(self):
        z = IntegerLine()
        # 1.0 and True equal the vertex 1 but are not vertices of z
        queries = (
            lambda: z.check_vertex(1.0),
            lambda: z.deg(1.0),
            lambda: z.ball(True, 1),
            lambda: z.weight(0, 1.0),
            lambda: apply_laplacian(z, LocalFunction({1.0: 1.0})),
        )
        for _ in range(2):  # on a fresh graph, then with 1 indexed and expanded
            for query in queries:
                with pytest.raises(UnknownVertexError):
                    query()
            apply_laplacian(z, LocalFunction.delta(0, 1.0))
            assert z.deg(1) == 2
        assert {type(v) for v in z.index.vertices} == {int}

    def test_equal_vertex_built_afresh_is_a_vertex(self):
        graph = IntegerLattice(3)
        IteratedLaplacianTable(graph, LocalFunction.delta(graph.root, 1.0)).entry(2)
        size = len(graph.index.vertices)
        x = tuple([1, 0, 0])  # equal to an indexed vertex, another object
        assert graph.deg(x) == 6 and graph.ball(x, 0) == {x}
        assert len(graph.index.vertices) == size

    @pytest.mark.parametrize("graph", (IntegerLine(), path_graph(4)))
    def test_unhashable_vertex_is_unknown(self, graph):
        for call in (graph.check_vertex, graph.deg, lambda x: graph.ball(x, 1)):
            with pytest.raises(UnknownVertexError):
                call([0])


LAZY_SPECS = ("z", "lattice:1", "lattice:2", "lattice:3", "lattice:4",
              "tree:2", "tree:3", "tree:4")


def off_root(spec):
    """A vertex two steps from the root, chosen on a graph of its own."""
    graph = family_from_spec(spec)
    return min(graph.sphere(graph.root, 2), key=vertex_key)


def assert_index_matches_the_family(graph):
    """Every held position and kernel row against `neighbors` and `measure`,
    and the bulk root distances of the held vertices against `distance`,
    types included."""
    index = graph.index
    assert len(index.vertices) == len(index.measures)
    distances = graph.distances_from_root(index.vertices)
    for i, x in enumerate(index.vertices):
        assert index.positions[x] == i
        assert repr(index.measures[i]) == repr(graph.measure(x))
        try:
            assert repr(distances[i]) == repr(graph.distance(x, graph.root))
        except UnreachableVertexError:
            assert distances[i] == math.inf
        if index.length[i]:
            row = slice(index.start[i], index.start[i] + index.length[i])
            targets, coefs = index.targets[row].tolist(), index.coefs[row].tolist()
            pairs = graph.neighbors(x)
            assert targets[0] == i
            assert repr([index.vertices[j] for j in targets[1:]]) == repr([y for y, _ in pairs])
            ws = [w for _, w in pairs]
            assert repr(coefs) == repr([-sum(ws), *ws])


class TestBulkExpansion:
    """The index's list-at-a-time rows and distances are the per-vertex ones."""

    @pytest.mark.parametrize("spec", LAZY_SPECS)
    def test_rows_and_distances_match_the_per_vertex_oracle(self, spec):
        graph = family_from_spec(spec)
        xs = sorted(family_from_spec(spec).ball(graph.root, 3), key=vertex_key)
        rows, weight_rows = graph.neighbor_rows(xs)
        for x, row, ws in zip(xs, rows, weight_rows, strict=True):
            pairs = graph.neighbors(x)
            assert repr(row) == repr(tuple(y for y, _ in pairs))
            assert repr(ws) == repr(tuple(w for _, w in pairs))
        assert graph.distances_from_root(xs) == [graph.distance(x, graph.root) for x in xs]
        assert graph.neighbor_rows([]) == ([], [])

    @pytest.mark.parametrize("spec", LAZY_SPECS)
    @pytest.mark.parametrize("ball_first", (True, False), ids=("ball-first", "steps-first"))
    @pytest.mark.parametrize("at_root", (True, False), ids=("at-root", "off-root"))
    def test_index_matches_in_either_order(self, spec, ball_first, at_root):
        graph = family_from_spec(spec)
        centre = graph.root if at_root else off_root(spec)
        table = IteratedLaplacianTable(graph, LocalFunction.delta(centre, 1.0))

        def ball():
            return graph.ball(centre, 3)

        def steps():
            return table.entry(3)

        first, second = (ball, steps) if ball_first else (steps, ball)
        first()
        second()
        assert_index_matches_the_family(graph)
        assert ball() == bfs_ball(family_from_spec(spec), centre, 3)
        fresh = IteratedLaplacianTable(family_from_spec(spec), table.base).entry(3)
        assert repr(list(table.entry(3).items())) == repr(list(fresh.items()))

    @pytest.mark.parametrize("graph", (
        random_weighted_graph(30, seed=4, exact=True),
        # int and float weights, and a component without the root
        FiniteGraph({0: 1, 1: 2, 2: 0.5, 5: 1, 6: 1},
                    [(0, 1, 1), (1, 2, 1.0), (5, 6, Fraction(1, 2))], root=0),
    ))
    def test_finite_graph_rows_and_distances(self, graph):
        for x in graph.vertices():
            IteratedLaplacianTable(graph, LocalFunction.delta(x, 1.0)).entry(2)
        assert len(graph.index.vertices) == len(graph)
        assert_index_matches_the_family(graph)

    @pytest.mark.parametrize("spec, far", (
        ("z", 10 ** 400), ("z", -10 ** 400), ("lattice:2", (3, -10 ** 400)),
    ), ids=("z", "z-negative", "lattice:2"))
    def test_vertices_beyond_binary64(self, spec, far):
        # their root distances are exact ints no double holds
        graph = family_from_spec(spec)
        pairs = graph.neighbors(far)
        assert graph.deg(far) == len(pairs)
        assert graph.ball(far, 2) == bfs_ball(family_from_spec(spec), far, 2)
        assert graph.distances_from_root([far]) == [graph.distance(far, graph.root)]
        got = apply_laplacian(graph, LocalFunction.delta(far, 1.0))
        assert dict(got.items()) == {far: -float(len(pairs)), **{y: 1.0 for y, _ in pairs}}
        assert_index_matches_the_family(graph)

    @pytest.mark.parametrize("spec, impostor", (
        ("z", 1.0), ("z", True), ("lattice:2", (1.0, 0)), ("tree:3", (0.0,)),
    ))
    def test_equal_values_of_another_type_are_refused(self, spec, impostor):
        graph = family_from_spec(spec)
        queries = (
            lambda: graph.check_vertex(impostor),
            lambda: graph.deg(impostor),
            lambda: graph.ball(impostor, 1),
            lambda: graph.one_neighborhood([graph.root, impostor]),
            lambda: graph.weight(graph.root, impostor),
            lambda: apply_laplacian(graph, LocalFunction({impostor: 1.0})),
            lambda: SeriesSolution(graph, LocalFunction.delta(graph.root, 1.0))
            .prefetch([impostor], [0.5]),
        )
        for _ in range(2):  # on a fresh graph, then with the equal vertex expanded
            for query in queries:
                with pytest.raises(UnknownVertexError):
                    query()
            IteratedLaplacianTable(graph, LocalFunction.delta(graph.root, 1.0)).entry(2)
            assert graph.index.length[graph.index.positions[impostor]] > 0  # it has a row
        assert_index_matches_the_family(graph)


class TestWeightsSymmetry:
    def test_random_graphs(self):
        # rational weights so the ball-1 degree identity is exact
        for seed in range(5):
            g = random_weighted_graph(15, seed=seed, exact=True)
            for x in g.vertices():
                nbrs = dict(g.neighbors(x))
                for y, w in nbrs.items():
                    assert w > 0
                    assert g.weight(y, x) == w
                assert g.weight(x, x) == 0
                total = sum(
                    Fraction(g.weight(x, y)) for y in g.ball(x, 1) - {x}
                )
                assert g.deg(x) == total / g.measure(x)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 2, 1)], "undeclared"),  # endpoint not a vertex
            ([(5, 0, 1)], "undeclared"),  # first endpoint not a vertex
            ([(0, 1, 1), (1, 0, 2)], "duplicate"),  # one edge, two weights
        ],
    )
    def test_finite_graph_rejects_bad_edges(self, edges, message):
        with pytest.raises(GraphSchemaError, match=message):
            FiniteGraph({0: 1, 1: 1}, edges, 0)

    def test_edge_weight_is_charged_to_both_ends(self):
        g = FiniteGraph({0: 1, 1: 2}, [(0, 1, 3)], 0)
        assert g.weight(0, 1) == g.weight(1, 0) == 3


class TestNumberContract:
    """FiniteGraph refuses, by vertex or edge, every number outside the contract."""

    @pytest.mark.parametrize("measures, edges, message", [
        ({0: 1, 1: 1}, [(0, 1, np.float64(1.0))],
         r"weight .* on edge \(0, 1\) is of type float64, not int, float or Fraction"),
        ({0: 1, 1: 1}, [(0, 1, True)], r"weight True on edge \(0, 1\) is of type bool, "),
        ({0: 1, 1: "1"}, [], "measure '1' at vertex 1 is of type str, "),
        ({0: 1, 1: np.float64(2.0)}, [], "measure .* at vertex 1 is of type float64, "),
        ({0: 1, 1: 10 ** 400}, [], r"measure ~1e\+400 \(int\) at vertex 1 is not finite in binary64"),
        ({0: 1, 1: math.nan}, [], "measure nan at vertex 1 is not finite in binary64"),
        ({0: 1, 1: 1}, [(0, 1, math.inf)], r"weight inf on edge \(0, 1\) is not finite"),
        ({0: 1, 1: 0}, [], "measure 0 at vertex 1 is nonpositive"),
        ({0: 1, 1: 1}, [(0, 1, Fraction(-1, 2))], r"weight Fraction\(-1, 2\) on edge \(0, 1\) is nonpositive"),
        ({0: 1, 1: Fraction(1, 10 ** 400)}, [],
         r"measure ~1e-400 \(Fraction\) at vertex 1 rounds to 0.0 in binary64"),
        ({0: 1, 1: 1, 2: 1}, [(0, 1, 10 ** 308), (0, 2, 10 ** 308)],
         "weight sum at vertex 0 is not finite in binary64"),
        ({0: 1e-308, 1: 1}, [(0, 1, 1e308)],
         "Deg = weight sum / measure at vertex 0 is not finite in binary64"),
        ({0: 1, 1: Fraction(1, 10 ** 300)}, [(0, 1, 10 ** 300)],
         "Deg = weight sum / measure at vertex 1 is not finite in binary64"),
    ])
    def test_refused_by_name(self, measures, edges, message):
        with pytest.raises(GraphSchemaError, match=f"^{message}"):
            FiniteGraph(measures, edges, 0)

    @pytest.mark.parametrize("measure, weight, names", [
        (Fraction(1, 10 ** 400), 1, "measure ~1e-400 (Fraction) at vertex 'v7'"),
        (-10 ** 400, 1, "measure ~-1e+400 (int) at vertex 'v7'"),
        (Fraction(10 ** 400 + 1, 10 ** 400), 10 ** 400, "weight ~1e+400 (int) on edge (0, 'v7')"),
        (1, -Fraction(10 ** 500, 3), "weight ~-1e+500 (Fraction) on edge (0, 'v7')"),
        ("1" * 500, 1, "measure '11111111111111111111111... (str) at vertex 'v7'"),
    ])
    def test_refusal_prints_a_long_number_short(self, measure, weight, names):
        with pytest.raises(GraphSchemaError) as exc:
            FiniteGraph({0: 1, "v7": measure}, [(0, "v7", weight)], 0)
        assert str(exc.value).startswith(names)
        assert len(str(exc.value)) < 100

    def test_edges_of_binary64_pass(self):
        # a subnormal measure, and a Deg and a weight sum at the binary64 maximum
        g = FiniteGraph({0: Fraction(1, 10 ** 310), 1: 1, 2: 1},
                        [(0, 1, Fraction(1, 10 ** 10)), (1, 2, 1.7e308)], 2)
        assert g.deg(0) == Fraction(10 ** 300)
        assert g.deg(1) == g.deg(2) == g.uniform_degree_bound() == 1.7e308
        assert FiniteGraph({0: 1e-308, 1: 1e-308}, [(0, 1, 1)], 0).deg(0) == 1e308

    @pytest.mark.parametrize("order", ([0, 1, 2, 3], [2, 3, 0, 1]))
    def test_degree_bound_is_the_first_largest_deg(self, order):
        # Deg 2 at 0 and 1 as a Fraction, at 2 as a float: the first one counts
        measures = {0: 1, 1: 1, 2: 0.5, 3: 1}
        g = FiniteGraph({x: measures[x] for x in order}, [(0, 1, 2), (2, 3, 1.0)], 0)
        want = max(g.deg(x) for x in order)
        bound = g.uniform_degree_bound()
        assert (bound, type(bound)) == (want, type(want))


class TestLocalFunction:
    def test_zero_off_support(self):
        f = LocalFunction({0: 1.5, 2: -1.0})
        assert f(1) == 0
        assert f.support == frozenset({0, 2})

    def test_zeros_dropped(self):
        f = LocalFunction({0: 0.0, 1: 2})
        assert f.support == frozenset({1})

    def test_algebra(self):
        f = LocalFunction({0: 1, 1: 2})
        g = LocalFunction({1: -2, 2: 5})
        assert (f + g)(1) == 0
        assert f.scale(Fraction(1, 2))(1) == 1
        assert f.sup_norm() == 2


class TestFamilies:
    def test_family_parsing(self):
        assert isinstance(family_from_spec("z"), IntegerLine)
        assert family_from_spec("lattice:3").dim == 3
        assert family_from_spec("tree:4").degree == 4
        with pytest.raises(ValueError):
            family_from_spec("moebius")

    def test_lattice_neighbor_count(self):
        lat = IntegerLattice(3)
        assert len(lat.neighbors((0, 0, 0))) == 6
        assert lat.deg((1, -2, 5)) == 6

    def test_tree_degrees(self):
        tree = RegularTree(3)
        for w in tree.ball((), 3):
            assert len(tree.neighbors(w)) == 3


class TestLoader:
    def doc(self, **overrides):
        base = {
            "root": 0,
            "vertices": [{"id": 0, "mu": 1.0}, {"id": 1, "mu": 1.0}],
            "edges": [{"u": 0, "v": 1, "w": 1.0}],
        }
        base.update(overrides)
        return base

    def test_two_vertex(self):
        g = load_graph(self.doc())
        assert g.deg(0) == 1 and g.deg(1) == 1

    def test_asymmetric_duplicate(self):
        doc = self.doc(
            edges=[{"u": 0, "v": 1, "w": 1.0}, {"u": 1, "v": 0, "w": 2.0}]
        )
        with pytest.raises(GraphSchemaError, match="duplicate"):
            load_graph(doc)

    def test_self_loop(self):
        with pytest.raises(GraphSchemaError, match="self-loop"):
            load_graph(self.doc(edges=[{"u": 0, "v": 0, "w": 1.0}]))

    def test_dangling(self):
        with pytest.raises(GraphSchemaError, match="dangling"):
            load_graph(self.doc(edges=[{"u": 0, "v": 9, "w": 1.0}]))

    def test_nonpositive(self):
        with pytest.raises(GraphSchemaError, match="nonpositive"):
            load_graph(self.doc(vertices=[{"id": 0, "mu": 0.0}, {"id": 1, "mu": 1.0}]))
        with pytest.raises(GraphSchemaError, match="nonpositive"):
            load_graph(self.doc(edges=[{"u": 0, "v": 1, "w": -2.0}]))

    def test_missing_key(self):
        with pytest.raises(GraphSchemaError, match="root"):
            load_graph({"vertices": [], "edges": []})

    def test_cycle_distance(self, tmp_path):
        doc = {
            "root": 0,
            "vertices": [{"id": i, "mu": 1.0} for i in range(6)],
            "edges": [{"u": i, "v": (i + 1) % 6, "w": 1.0} for i in range(6)],
        }
        path = tmp_path / "c6.json"
        path.write_text(json.dumps(doc))
        g = load_graph(path)
        assert g.distance(0, 3) == 3

    def test_ids_that_do_not_compare_are_ordered_by_vertex_key(self):
        g = load_graph({
            "root": 0,
            "vertices": [{"id": i, "mu": 1} for i in ("x", 0, "a,b", None)],
            "edges": [{"u": 0, "v": "a,b", "w": 1}, {"u": "a,b", "v": "x", "w": 2},
                      {"u": "a,b", "v": None, "w": 3}],
        })
        assert g.vertices() == ("a,b", "x", 0, None)
        assert g.neighbors("a,b") == (("x", 2), (0, 1), (None, 3))
        assert g.deg("a,b") == 6

    def test_ids_that_compare_keep_their_natural_order(self):
        # by repr, "10" would come before "9"
        g = load_graph({
            "root": 9,
            "vertices": [{"id": i, "mu": 1} for i in (10, 9, 2.5, 100)],
            "edges": [{"u": 9, "v": i, "w": 1} for i in (100, 10, 2.5)],
        })
        assert g.vertices() == (2.5, 9, 10, 100)
        assert [y for y, _ in g.neighbors(9)] == [2.5, 10, 100]

    def test_exact_parse(self, tmp_path):
        doc = {
            "root": 0,
            "vertices": [{"id": 0, "mu": 0.5}, {"id": 1, "mu": 1.0}],
            "edges": [{"u": 0, "v": 1, "w": 0.1}],
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        g = load_graph(path, exact=True)
        assert g.measure(0) == Fraction(1, 2)
        assert g.deg(0) == Fraction(1, 5)

    def test_star_degree_profile(self):
        g = FiniteGraph(dict.fromkeys(range(8), 1), [(0, i, 1) for i in range(1, 8)], 0)
        assert g.deg(0) == 7
        assert all(g.deg(i) == 1 for i in range(1, 8))


def test_path_graph_shape():
    p = path_graph(4)
    assert p.distance(0, 3) == 3
    assert p.deg(0) == 1 and p.deg(1) == 2
