"""Dense exact linear algebra over prime fields.

Matrices live in numpy int64 arrays with entries reduced into
``{0, ..., p-1}``, and one Gauss-Jordan kernel does all the elimination.
The matrices met here are tiny (side about [E:Q_p] + 2 for the largest
field E in play), so the kernel works row by row on numpy slices.

Everything here is exact; there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _rowreduce(A, p, npiv, piv_out):
    """Reduced row echelon form in place on the first `npiv` columns.

    Row operations act on the full width of ``A`` (so callers may
    augment).  Pivot column indices are written to ``piv_out``; the
    return value is the rank.
    """
    m = A.shape[0]
    r = 0
    for c in range(npiv):
        nz = np.flatnonzero(A[r:, c])
        if not nz.size:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        piv = A[r, c]
        if piv != 1:
            A[r] = (A[r] * pow(int(piv), -1, p)) % p
        for i in range(m):
            if i != r and A[i, c] != 0:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        piv_out[r] = c
        r += 1
        if r == m:
            break
    return r


def backend_name() -> str:
    """Name of the one elimination backend, for recording with results."""
    return "pure"


@dataclass(frozen=True)
class FpMatrix:
    """A dense matrix over the field with `p` elements."""

    p: int
    arr: np.ndarray  # int64, entries in {0..p-1}

    @property
    def rows(self) -> int:
        return self.arr.shape[0]

    @property
    def cols(self) -> int:
        return self.arr.shape[1]

    @staticmethod
    def make(p: int, data) -> "FpMatrix":
        a = np.array(data, dtype=np.int64) % p
        if a.ndim == 1:
            a = a.reshape(-1, 1)
        return FpMatrix(p, a)

    @staticmethod
    def identity(p: int, n: int) -> "FpMatrix":
        return FpMatrix(p, np.eye(n, dtype=np.int64))

    def matmul(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("dimension or modulus mismatch")
        # int64 is safe: p < 2^31 and inner dimensions stay small here,
        # but reduce in object dtype when overflow is possible.
        if self.p > (1 << 20):
            prod = (self.arr.astype(object) @ other.arr.astype(object)) % self.p
            return FpMatrix(self.p, prod.astype(np.int64))
        return FpMatrix(self.p, (self.arr @ other.arr) % self.p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.arr.shape == other.arr.shape
            and bool(np.array_equal(self.arr, other.arr))
        )


@dataclass(frozen=True)
class RrefDecomp:
    """Decomposition M = T . rref with T invertible, T_inv = T^{-1}."""

    rref: FpMatrix
    T: FpMatrix
    T_inv: FpMatrix
    pivots: tuple
    rank: int


def _rref_with_transform(arr: np.ndarray, p: int):
    """Return (R, E, pivots, rank) with E.M = R, R in rref, E invertible."""
    m, n = arr.shape
    A = np.hstack([arr % p, np.eye(m, dtype=np.int64)])
    piv = np.full(m, -1, dtype=np.int64)
    rank = int(_rowreduce(A, p, n, piv))
    R = A[:, :n].copy()
    E = A[:, n:].copy()
    return R, E, tuple(int(c) for c in piv[:rank]), rank


def _invert(arr: np.ndarray, p: int) -> np.ndarray:
    m = arr.shape[0]
    A = np.hstack([arr % p, np.eye(m, dtype=np.int64)])
    piv = np.full(m, -1, dtype=np.int64)
    rank = int(_rowreduce(A, p, m, piv))
    if rank != m:
        raise ValueError("matrix is singular")
    return A[:, m:].copy()


def rref_decomp(M: FpMatrix) -> RrefDecomp:
    """Reduced row decomposition: M = T . rref with both transforms."""
    R, E, piv, rank = _rref_with_transform(M.arr, M.p)
    T = _invert(E, M.p)
    return RrefDecomp(
        rref=FpMatrix(M.p, R),
        T=FpMatrix(M.p, T),
        T_inv=FpMatrix(M.p, E),
        pivots=piv,
        rank=rank,
    )


def rank(M: FpMatrix) -> int:
    A = (M.arr % M.p).copy()
    piv = np.full(A.shape[0], -1, dtype=np.int64)
    return int(_rowreduce(A, M.p, A.shape[1], piv))


def kernel_basis(M: FpMatrix) -> FpMatrix:
    """Columns form a basis of the right null space of M."""
    p = M.p
    R, _, piv, rk = _rref_with_transform(M.arr, p)
    n = M.cols
    free = [c for c in range(n) if c not in piv]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for r, pc in enumerate(piv):
            basis[pc, k] = (-R[r, fc]) % p
    return FpMatrix(p, basis)


def column_basis(M: FpMatrix) -> FpMatrix:
    """Columns of M restricted to an independent spanning subset."""
    # pivot columns of rref(M) index an independent spanning subset
    _, _, piv, _ = _rref_with_transform(M.arr, M.p)
    return FpMatrix(M.p, M.arr[:, list(piv)].copy())


def in_colspan(M: FpMatrix, v: np.ndarray):
    """Solve M x = v; return the coefficient vector or None."""
    p = M.p
    aug = np.hstack([M.arr % p, (np.asarray(v, dtype=np.int64) % p).reshape(-1, 1)])
    R, _, piv, rk = _rref_with_transform(aug, p)
    if rk > 0 and any(c == M.cols for c in piv):
        return None
    x = np.zeros(M.cols, dtype=np.int64)
    for r, pc in enumerate(piv):
        x[pc] = R[r, M.cols]
    return x


def colspan_intersect(M1: FpMatrix, M2: FpMatrix) -> FpMatrix:
    """Basis of colspan(M1) ∩ colspan(M2), via the kernel of (M1 | -M2)."""
    if M1.p != M2.p:
        raise ValueError("modulus mismatch")
    if M1.rows != M2.rows:
        raise ValueError("row-count mismatch")
    p = M1.p
    B1 = column_basis(M1)
    B2 = column_basis(M2)
    if B1.cols == 0 or B2.cols == 0:
        return FpMatrix(p, np.zeros((M1.rows, 0), dtype=np.int64))
    A = np.hstack([B1.arr, (-B2.arr) % p])
    ker = kernel_basis(FpMatrix(p, A))
    if ker.cols == 0:
        return FpMatrix(p, np.zeros((M1.rows, 0), dtype=np.int64))
    top = ker.arr[: B1.cols, :]
    vecs = (B1.arr @ top) % p
    return column_basis(FpMatrix(p, vecs))


def span_contains(M: FpMatrix, v) -> bool:
    return in_colspan(M, np.asarray(v, dtype=np.int64)) is not None


def enumerate_span(M: FpMatrix):
    """Yield every vector in the column span (desk scale only)."""
    B = column_basis(M)
    p, k = B.p, B.cols
    total = p**k
    if total > 1 << 22:
        raise ValueError("span too large to enumerate")
    for idx in range(total):
        coeffs = []
        t = idx
        for _ in range(k):
            coeffs.append(t % p)
            t //= p
        v = np.zeros(B.rows, dtype=np.int64)
        for j, c in enumerate(coeffs):
            if c:
                v = (v + c * B.arr[:, j]) % p
        yield v
