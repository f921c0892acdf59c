import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from heatseries.graphs import (
    LocalFunction,
    complete_graph,
    cycle_graph,
    integer_segment,
    path_graph,
    random_weighted_graph,
)
from heatseries.laplacian import apply_laplacian
from heatseries.oracle import brute_iterate, dense_laplacian, expm_apply


class TestDenseLaplacian:
    def test_k2_matrix(self, k2):
        op = dense_laplacian(k2)
        assert op.matrix.tolist() == [[-1, 1], [1, -1]]

    def test_row_sums_zero_exact(self):
        g = random_weighted_graph(12, seed=3, exact=True)
        op = dense_laplacian(g)
        assert op.matrix.dtype == object
        for row in op.matrix:
            assert sum(row) == 0

    def test_row_sums_path(self):
        op = dense_laplacian(path_graph(3))
        for row in op.matrix:
            assert sum(row) == 0

    def test_action_matches_apply(self):
        g = random_weighted_graph(25, seed=6)
        op = dense_laplacian(g)
        f = LocalFunction({x: 0.3 * x - 1.0 for x in range(10)})
        ref = op.matrix @ op.vector_of(f)
        out = apply_laplacian(g, f)
        for x in g.vertices():
            assert abs(out(x) - ref[op.index[x]]) <= 1e-13

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            dense_laplacian(path_graph(2001))

    def test_rejects_lazy(self):
        from heatseries.graphs import IntegerLine

        with pytest.raises(ValueError, match="finite"):
            dense_laplacian(IntegerLine())


class TestExpmApply:
    def test_identity_at_zero(self, p10):
        op = dense_laplacian(p10)
        a = op.vector_of(LocalFunction.delta(0))
        assert np.allclose(expm_apply(op, a, 0.0), a.astype(float), atol=1e-15)

    def test_k2_closed_form(self, k2):
        op = dense_laplacian(k2)
        out = expm_apply(op, op.vector_of(LocalFunction.delta(0)), -0.1)
        expected = ((1 + math.exp(0.2)) / 2, (1 - math.exp(0.2)) / 2)
        assert out == pytest.approx(expected, abs=1e-13)

    def test_semigroup(self):
        g = cycle_graph(12)
        op = dense_laplacian(g)
        a = op.vector_of(LocalFunction.delta(0))
        via_two = expm_apply(op, expm_apply(op, a, -0.03), -0.07)
        direct = expm_apply(op, a, -0.1)
        assert np.max(np.abs(via_two - direct)) <= 1e-11

    def test_forward_backward_inverse(self):
        g = random_weighted_graph(20, seed=12)
        op = dense_laplacian(g)
        a = op.vector_of(LocalFunction.delta(0))
        round_trip = expm_apply(op, expm_apply(op, a, 0.3), -0.3)
        assert np.max(np.abs(round_trip - a)) <= 1e-10

    def test_matches_scipy(self):
        # independent algorithm (Pade) as an extra reference
        for graph in (cycle_graph(30), random_weighted_graph(25, seed=13)):
            op = dense_laplacian(graph)
            mat = op.matrix.astype(float) if op.matrix.dtype == object else op.matrix
            a = op.vector_of(LocalFunction.delta(0))
            for t in (-0.1, 0.2):
                ref = scipy.linalg.expm(t * mat) @ a
                out = expm_apply(op, a, t)
                assert np.max(np.abs(out - ref)) <= 1e-12


class TestBruteIterate:
    def test_identity(self, p10):
        op = dense_laplacian(p10)
        a = op.vector_of(LocalFunction.delta(0))
        assert brute_iterate(op, a, 0).tolist() == a.tolist()

    def test_path_segment_center(self):
        seg = integer_segment(4)
        op = dense_laplacian(seg)
        out = brute_iterate(op, op.vector_of(LocalFunction.delta(0)), 2)
        center = op.index[0]
        got = [out[center + d] for d in (-2, -1, 0, 1, 2)]
        assert got == [1, -4, 6, -4, 1]

    def test_equals_repeated_dense_application(self):
        g = random_weighted_graph(15, seed=14, exact=True)
        op = dense_laplacian(g)
        a = op.vector_of(LocalFunction.delta(0, Fraction(1)))
        manual = a
        for k in range(6):
            assert brute_iterate(op, a, k).tolist() == list(manual)
            manual = op.matrix.dot(manual)

    @pytest.mark.parametrize("graph", (complete_graph(2), path_graph(10), cycle_graph(30),
                                       integer_segment(15)), ids=("K2", "P10", "C30", "zseg15"))
    def test_float_vectors_through_a_fraction_matrix_keep_the_object_dot_bits(self, graph):
        op = dense_laplacian(graph)
        assert op.matrix.dtype == object
        rng = np.random.default_rng(len(op.order))
        vectors = [op.vector_of(LocalFunction.delta(op.order[0], 1.0))]
        vectors += [rng.uniform(-1.0, 1.0, op.n) * 10.0 ** rng.integers(-3, 4) for _ in range(4)]
        for vec in vectors:
            assert vec.dtype == np.float64
            want = np.array(vec, dtype=object)
            for k in range(9):
                got = brute_iterate(op, vec, k)
                assert got.dtype == np.float64
                assert [v.hex() for v in got.tolist()] == [float(v).hex() for v in want]
                assert all(type(v) is float for v in want)
                want = op.matrix.dot(want)

    def test_iterate_cap(self, k2):
        op = dense_laplacian(k2)
        with pytest.raises(ValueError, match="cap"):
            brute_iterate(op, op.vector_of(LocalFunction.delta(0)), 51)
