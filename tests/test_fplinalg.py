"""Tests for dense linear algebra over prime fields."""

import itertools

import numpy as np

from etmass.fplinalg import FpMatrix, in_colspan, kernel_basis, rank, span_contains


def random_matrix(rng, p, m, n):
    return FpMatrix.make(p, rng.integers(0, p, size=(m, n)).tolist())


def test_dimension_formula():
    # dim(U n W) + dim(U + W) = dim U + dim W, with U n W counted by
    # walking U and testing membership in W
    rng = np.random.default_rng(9)
    for p in (2, 3):
        for _ in range(25):
            M1 = random_matrix(rng, p, 7, rng.integers(1, 6))
            M2 = random_matrix(rng, p, 7, rng.integers(1, 6))
            cols1 = [M1.column(j) for j in range(M1.cols)]
            span1 = {
                tuple(sum(c * v[i] for c, v in zip(cs, cols1)) % p for i in range(7))
                for cs in itertools.product(range(p), repeat=M1.cols)
            }
            inter = sum(1 for v in span1 if span_contains(M2, v))
            dim_sum = rank(FpMatrix.make(p, [a + b for a, b in zip(M1.data, M2.data)]))
            assert inter == p ** (rank(M1) + rank(M2) - dim_sum)


def test_in_colspan_roundtrip():
    def apply(M, x):
        return tuple(sum(a * b for a, b in zip(row, x)) % M.p for row in M.data)

    rng = np.random.default_rng(13)
    for p in (2, 5):
        M = random_matrix(rng, p, 6, 4)
        x = rng.integers(0, p, size=4).astype(np.int64).tolist()
        v = apply(M, x)
        sol = in_colspan(M, v)
        assert sol is not None
        assert apply(M, sol) == v


def test_kernel_basis_solves_and_has_full_dimension():
    rng = np.random.default_rng(17)
    for p in (2, 3, 5):
        for _ in range(20):
            m, n = rng.integers(1, 6), rng.integers(1, 7)
            M = random_matrix(rng, p, m, n)
            K = kernel_basis(M)
            for x in K:
                assert all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in M.data)
            assert len(K) == n - rank(M)
            if K:
                assert rank(FpMatrix.make(p, K)) == len(K)
    # the zero matrix: every unit vector; a square invertible one: none
    assert kernel_basis(FpMatrix.make(3, [[0, 0]])) == [(1, 0), (0, 1)]
    assert kernel_basis(FpMatrix.make(5, [[1, 2], [3, 4]])) == []
