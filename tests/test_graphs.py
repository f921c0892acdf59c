import json
import random
from fractions import Fraction

import pytest

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
    star_graph,
)


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
        g = FiniteGraph.from_edges(
            {0: 2, 1: 1, 2: 1, 3: 1},
            [(0, 1, 1), (0, 2, 2), (0, 3, 3)],
            root=0,
        )
        assert g.deg(0) == 3  # (1+2+3)/2

    def test_isolated_vertex(self):
        g = FiniteGraph.from_edges({0: 1, 1: 1, 2: 1}, [(0, 1, 1)], root=0)
        assert g.deg(2) == 0

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            IntegerLine().deg(0.5)


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
        g = FiniteGraph.from_edges({0: 1, 1: 1, 2: 1}, [(0, 1, 1)], root=0)
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
        "adjacency, message",
        [
            ({0: {1: 1}, 1: {}}, "asymmetric"),  # one-sided
            ({0: {1: 1}}, "asymmetric"),  # reverse row missing
            ({0: {1: 1}, 1: {0: 2}}, "asymmetric"),  # weights disagree
            ({0: {2: 1}, 1: {}}, "undeclared"),  # endpoint not a vertex
            ({0: {}, 1: {}, 5: {0: 1}}, "undeclared"),  # row not a vertex
        ],
    )
    def test_finite_graph_rejects_asymmetric_adjacency(self, adjacency, message):
        with pytest.raises(GraphSchemaError, match=message):
            FiniteGraph({0: 1, 1: 1}, adjacency, 0)

    def test_finite_graph_accepts_symmetric_adjacency(self):
        g = FiniteGraph({0: 1, 1: 2}, {0: {1: 3}, 1: {0: 3}}, 0)
        assert g.weight(0, 1) == g.weight(1, 0) == 3


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
        g = star_graph(7)
        assert g.deg(0) == 7
        assert all(g.deg(i) == 1 for i in range(1, 8))


def test_path_graph_shape():
    p = path_graph(4)
    assert p.distance(0, 3) == 3
    assert p.deg(0) == 1 and p.deg(1) == 2
