"""Dense brute-force references for validating the locality-based kernels.

Deliberately algorithmically disjoint from the series machinery: everything
here is plain dense linear algebra in a fixed vertex ordering, so agreement
with the recursive code is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from numbers import Rational

import numpy as np

from .graphs import LocalFunction, exact_div

SIZE_CAP = 2000
ITERATE_CAP = 50
TAYLOR_ORDER = 20


@dataclass
class DenseOperator:
    """Dense matrix form of the Laplacian plus its vertex ordering."""

    matrix: np.ndarray
    order: tuple
    index: dict

    @property
    def n(self):
        return len(self.order)

    @cached_property
    def fmatrix(self):
        """The matrix in float64: itself, or its float64 copy made once."""
        return self.matrix if self.matrix.dtype != object else self.matrix.astype(np.float64)

    def vector_of(self, f):
        """Dense vector of a LocalFunction (or mapping) in this ordering:
        float64 for a float matrix or values that are all Python floats,
        else `Fraction` zeros and the values as objects."""
        values = dict(f.items()) if isinstance(f, LocalFunction) else dict(f)
        floats = bool(values) and all(type(v) is float for v in values.values())
        vec = np.zeros(self.n) if self.matrix.dtype != object or floats else np.array(
            [Fraction(0)] * self.n, dtype=object
        )
        for x, v in values.items():
            vec[self.index[x]] = v
        return vec


def dense_laplacian(graph):
    """Dense Laplacian of a finite graph.

    The diagonal is set to minus the row's off-diagonal sum, so rows sum to
    zero by construction (exactly so when all weights are rational, in which
    case the matrix is built over `Fraction`).
    """
    if not graph.is_finite:
        raise ValueError("dense oracle needs a finite graph")
    order = graph.vertices()
    n = len(order)
    if n > SIZE_CAP:
        raise ValueError(f"graph has {n} vertices, dense cap is {SIZE_CAP}")
    index = {x: i for i, x in enumerate(order)}

    exact = all(
        isinstance(graph.measure(x), Rational)
        and all(isinstance(w, Rational) for _, w in graph.neighbors(x))
        for x in order
    )
    if exact:
        mat = np.array([[Fraction(0)] * n for _ in range(n)], dtype=object)
    else:
        mat = np.zeros((n, n))
    for x in order:
        i = index[x]
        row_sum = Fraction(0) if exact else 0.0
        for y, w in graph.neighbors(x):
            c = exact_div(w, graph.measure(x))
            mat[i, index[y]] = c
            row_sum += c
        mat[i, i] = -row_sum
    return DenseOperator(matrix=mat, order=order, index=index)


def expm_apply(op, vec, t):
    """e^{tL} vec by scaling-and-squaring around a degree-20 Taylor core.

    Scales until the 1-norm of the scaled matrix is at most 1/2; accuracy at
    the tested sizes is far below 1e-13 relative to the vector norm.
    """
    mat = op.fmatrix
    vec = np.asarray(vec)
    if vec.dtype == object:
        vec = np.array([float(v) for v in vec], dtype=np.float64)
    else:
        vec = vec.astype(np.float64, copy=False)
    a = t * mat
    norm1 = np.abs(a).sum(axis=0).max()
    squarings = 0
    if norm1 > 0.5:
        squarings = int(math.ceil(math.log2(norm1 / 0.5)))
        a = a / (2.0 ** squarings)
    eye = np.eye(op.n)
    core = eye.copy()
    for j in range(TAYLOR_ORDER, 0, -1):
        core = eye + (a @ core) / j
    for _ in range(squarings):
        core = core @ core
    return core @ vec


def brute_iterate(op, vec, k):
    """L^k vec by repeated matrix-vector multiplication (exact if rational).

    A float64 `vec` through a `Fraction` matrix is stepped on the matrix's
    float64 copy, each entry summed from its first product left to right:
    the bits of the object `dot`, where a Fraction times a float is the
    float64 product.  A float64 matrix keeps `dot`.
    """
    if k > ITERATE_CAP:
        raise ValueError(f"iterate order {k} exceeds cap {ITERATE_CAP}")
    vec = np.asarray(vec)
    if op.matrix.dtype == object and vec.dtype == np.float64:
        out = vec.copy()
        for _ in range(k):
            out = np.add.accumulate(op.fmatrix * out, axis=1)[:, -1]
        return out
    out = np.array(vec, dtype=op.matrix.dtype, copy=True)
    for _ in range(k):
        out = op.matrix.dot(out)
    return out
