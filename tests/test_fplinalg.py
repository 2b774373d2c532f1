"""Tests for dense linear algebra over Z/p^k and prime fields."""

import itertools

import numpy as np
import pytest

from etmass.fplinalg import Span, colspan


def random_matrix(rng, p, m, n):
    """The columns of a random m x n matrix over GF(p)."""
    return [tuple(c) for c in zip(*rng.integers(0, p, size=(m, n)).tolist())]


def test_dimension_formula():
    # dim(U n W) + dim(U + W) = dim U + dim W, with U n W counted by
    # walking U and testing membership in W
    rng = np.random.default_rng(9)
    for p in (2, 3):
        for _ in range(25):
            cols1 = random_matrix(rng, p, 7, rng.integers(1, 6))
            cols2 = random_matrix(rng, p, 7, rng.integers(1, 6))
            span1 = {
                tuple(sum(c * v[i] for c, v in zip(cs, cols1)) % p for i in range(7))
                for cs in itertools.product(range(p), repeat=len(cols1))
            }
            W = colspan(p, cols2, 7)
            inter = sum(1 for v in span1 if W.solve(v) is not None)
            dim_sum = colspan(p, cols1 + cols2, 7).log
            assert inter == p ** (colspan(p, cols1, 7).log + W.log - dim_sum)


def test_in_colspan_roundtrip():
    def apply(cols, x):
        return tuple(sum(a * b for a, b in zip(row, x)) % p for row in zip(*cols))

    rng = np.random.default_rng(13)
    for p in (2, 5):
        cols = random_matrix(rng, p, 6, 4)
        x = rng.integers(0, p, size=4).astype(np.int64).tolist()
        v = apply(cols, x)
        sol = colspan(p, cols, 6).solve(v)
        assert sol is not None
        assert apply(cols, sol) == v


def test_kernel_basis_solves_and_has_full_dimension():
    rng = np.random.default_rng(17)
    for p in (2, 3, 5):
        for _ in range(20):
            m, n = rng.integers(1, 6), rng.integers(1, 7)
            cols = random_matrix(rng, p, m, n)
            span = colspan(p, cols, m)
            K = span.kernel
            for x in K:
                assert all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in zip(*cols))
            assert len(K) == n - span.log
            if K:
                assert colspan(p, K, n).log == len(K)
    # the zero matrix: every unit vector; a square invertible one: none
    assert colspan(3, [(0,), (0,)], 1).kernel == [(1, 0), (0, 1)]
    assert colspan(5, [(1, 3), (2, 4)], 2).kernel == []


def closure(q, rows, n):
    """The subgroup of (Z/q)^n generated by ``rows``, by brute force."""
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        new = {tuple((a + b) % q for a, b in zip(s, r)) for s in frontier for r in rows}
        frontier = list(new - seen)
        seen |= new
    return seen


def span_of(p, k, n, rows, tail=0):
    span = Span(p, n, k, tail)
    for r in rows:
        span.insert(r)
    return span


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 1)])
def test_span_order_and_membership_by_brute_force(p, k):
    # rows with entries scaled by random powers of p, so that pivots of
    # every valuation occur
    rng = np.random.default_rng(29)
    q = p**k
    for _ in range(30):
        n, m = int(rng.integers(1, 4)), int(rng.integers(0, 5))
        rows = (rng.integers(0, q, size=(m, n)) * p ** rng.integers(0, k, size=(m, 1)) % q).tolist()
        group = closure(q, rows, n)
        span = span_of(p, k, n, rows)
        assert p**span.log == len(group), rows
        shuffled = [rows[i] for i in rng.permutation(m)]
        assert span_of(p, k, n, shuffled).log == span.log, rows
        # rows entered with unit vectors in their tail solve for coefficients
        tracked = span_of(p, k, n, [r + [int(i == j) for i in range(m)] for j, r in enumerate(rows)], m)
        for v in itertools.product(range(q), repeat=n):
            assert (span.reduce(v)[0] is None) == (v in group), (rows, v)
            x = tracked.solve(v)
            assert (x is not None) == (v in group), (rows, v)
            if x is not None:
                assert tuple(sum(c * r[i] for c, r in zip(x, rows)) % q for i in range(n)) == v


def test_span_unit_pivot_replaces_pivot_p():
    # over Z/4, (2, 1) pivots at 2 and saturates to (0, 2); the unit row
    # (1, 0) then takes column 0, and the old row, reduced to (0, 1),
    # replaces (0, 2) at column 1: the span is everything
    span = span_of(2, 2, 2, [[2, 1]])
    assert (span.rows[0][0], span.rows[1][1], span.log) == (2, 2, 2)
    span.insert([1, 0])
    assert (span.rows[0][0], span.rows[1][1], span.log) == (1, 1, 4)
    assert span.reduce([0, 1])[0] is None
    assert 2**span.log == len(closure(4, [[2, 1], [1, 0]], 2))
