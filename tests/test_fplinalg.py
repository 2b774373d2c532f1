"""Tests for dense linear algebra over prime fields."""

import numpy as np

from etmass.fplinalg import (
    FpMatrix,
    colspan_intersect,
    column_basis,
    enumerate_span,
    in_colspan,
    kernel_basis,
    rank,
    span_contains,
)


def random_matrix(rng, p, m, n):
    return FpMatrix.make(p, rng.integers(0, p, size=(m, n)).tolist())


def test_kernel_basis_is_kernel():
    rng = np.random.default_rng(3)
    for p in (2, 3, 7):
        M = random_matrix(rng, p, 6, 9)
        K = kernel_basis(M)
        assert K.cols == 9 - rank(M)
        prod = M.matmul(K)
        assert not any(map(any, prod.data))


def test_colspan_intersect_idempotent():
    rng = np.random.default_rng(11)
    M = random_matrix(rng, 2, 6, 3)
    B = colspan_intersect(M, M)
    assert B.cols == rank(M)
    for j in range(B.cols):
        assert span_contains(M, B.column(j))


def test_colspan_intersect_complementary():
    e = np.eye(4, dtype=np.int64).tolist()
    M1 = FpMatrix.make(2, [r[:2] for r in e])
    M2 = FpMatrix.make(2, [r[2:] for r in e])
    assert colspan_intersect(M1, M2).cols == 0


def test_colspan_intersect_brute():
    rng = np.random.default_rng(5)
    for _ in range(30):
        M1 = random_matrix(rng, 2, 8, rng.integers(1, 5))
        M2 = random_matrix(rng, 2, 8, rng.integers(1, 5))
        B = colspan_intersect(M1, M2)
        s1 = {tuple(v) for v in enumerate_span(M1)}
        s2 = {tuple(v) for v in enumerate_span(M2)}
        inter = s1 & s2
        assert 2 ** B.cols == len(inter)
        for j in range(B.cols):
            assert B.column(j) in inter


def test_dimension_formula():
    rng = np.random.default_rng(9)
    for p in (2, 3):
        for _ in range(25):
            M1 = random_matrix(rng, p, 7, rng.integers(1, 6))
            M2 = random_matrix(rng, p, 7, rng.integers(1, 6))
            dim_i = colspan_intersect(M1, M2).cols
            dim_sum = rank(FpMatrix.make(p, [a + b for a, b in zip(M1.data, M2.data)]))
            assert dim_i + dim_sum == rank(M1) + rank(M2)


def test_in_colspan_roundtrip():
    rng = np.random.default_rng(13)
    for p in (2, 5):
        M = random_matrix(rng, p, 6, 4)
        x = rng.integers(0, p, size=4).astype(np.int64).tolist()
        v = M.matmul(FpMatrix.from_columns(p, [x], 4)).column(0)
        sol = in_colspan(M, v)
        assert sol is not None
        assert M.matmul(FpMatrix.from_columns(p, [sol], 4)).column(0) == v


def test_membership_vectors_lie_in_both_spans():
    rng = np.random.default_rng(17)
    M1 = random_matrix(rng, 3, 10, 4)
    M2 = random_matrix(rng, 3, 10, 5)
    B = colspan_intersect(M1, M2)
    for j in range(B.cols):
        assert span_contains(M1, B.column(j))
        assert span_contains(M2, B.column(j))
