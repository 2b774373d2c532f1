"""Dense exact linear algebra over Z/p^k, prime fields included.

One echelon form, :class:`Span`, does all the elimination: it holds a
submodule of (Z/p^k)^n and takes rows one at a time, so a caller whose
spans only grow reads every order with one insertion per row; k = 1 is
elimination over GF(p).  A matrix is a tuple of row tuples of ints in
``{0, ..., p-1}``; :func:`rank`, :func:`in_colspan` and
:func:`kernel_basis` are thin calls on a span of its rows or columns.
The matrices are tiny (side about [E:Q_p] + 2), so plain integer loops
beat any array library's per-call overhead.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass


class Span:
    """A submodule of (Z/p^k)^n in echelon form, grown one row at a time.

    ``rows`` maps each pivot column c to a row that is 0 before c and
    p^b at c.  When b > 0 the row times p^(k-b), which is 0 at c, is
    inserted too (Howell's saturation), so an element of the span that
    is 0 before a column is spanned by the rows pivoting there or later.
    Hence reduction decides membership, and the order is p^``log``,
    ``log`` the sum of k - b over the pivots.

    Rows may carry ``tail`` more columns that never pivot; a row entered
    with e_j there records, through reduction, the combination of entered
    rows subtracted from it.  ``kernel`` collects the tails of the rows
    that were already in the span when entered.
    """

    def __init__(self, p: int, n: int, k: int = 1, tail: int = 0):
        self.p, self.k, self.q, self.n, self.tail = p, k, p**k, n, tail
        self.rows, self.log, self.kernel = {}, 0, []

    def copy(self) -> "Span":
        """A span with the same rows, which are never mutated."""
        s = Span(self.p, self.n, self.k, self.tail)
        s.rows, s.log = dict(self.rows), self.log
        return s

    def reduce(self, v):
        """(c, w), w being v minus a combination of the rows: w is 0 before
        column c, where it cannot be cleared, and c is None when w is 0 on
        all n pivot columns, that is when v lies in the span."""
        q, rows = self.q, self.rows
        v = [x % q for x in v]
        for c in range(self.n):
            x = v[c]
            if x:
                row = rows.get(c)
                if row is None or x % row[c]:
                    return c, v
                f = x // row[c]
                v = [(a - f * b) % q for a, b in zip(v, row)]
        return None, v

    def insert(self, v) -> None:
        """Add the row v, and with it what the saturation requires."""
        c, v = self.reduce(v)
        if c is None:
            if self.tail:
                self.kernel.append(tuple(v[self.n :]))
            return
        p, x, b = self.p, v[c], 0
        while x % p == 0:
            x, b = x // p, b + 1
        if x != 1:
            s = pow(x, -1, self.q)
            v = [a * s % self.q for a in v]
        old = self.rows.get(c)  # its pivot is a higher power of p
        self.rows[c] = v
        self.log += self.k - b
        if old is not None:
            self.log -= self.k - next(j for j in range(self.k) if old[c] == p**j)
            self.insert(old)
        if b:
            self.insert([a * p ** (self.k - b) for a in v])

    def solve(self, v):
        """The tail coefficients x with v = sum_j x_j (row entered with
        e_j), as a tuple, or None when v is not in the span."""
        c, w = self.reduce([*v, *[0] * self.tail])
        return None if c is not None else tuple(-x % self.q for x in w[self.n :])


def backend_name() -> str:
    """Name of the one elimination backend, for recording with results."""
    return "pure"


@dataclass(frozen=True)
class FpMatrix:
    """A dense matrix over the field with `p` elements.

    ``data`` holds the rows, as tuples of ints in ``{0, ..., p-1}``;
    ``cols`` is stored so that a matrix with no rows keeps its width.
    """

    p: int
    data: tuple
    cols: int

    @property
    def rows(self) -> int:
        return len(self.data)

    @staticmethod
    def make(p: int, rows, cols: int | None = None) -> "FpMatrix":
        """From a sequence of rows; `cols` is needed only when there are none."""
        data = tuple(tuple(x % p for x in r) for r in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        return FpMatrix(p, data, cols)

    @staticmethod
    def from_columns(p: int, columns, rows: int) -> "FpMatrix":
        """From a sequence of column vectors of length `rows`."""
        columns = list(columns)
        return FpMatrix.make(p, zip(*columns) if columns else [()] * rows, len(columns))

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)


def rank(M: FpMatrix) -> int:
    span = Span(M.p, M.cols)
    for r in M.data:
        span.insert(r)
    return span.log


def colspan(M: FpMatrix) -> Span:
    """The span of the columns of M, column j entered with e_j in its tail.

    The pivots come from the leftmost independent columns, so
    :meth:`Span.solve` gives the solution of M x = v supported on them,
    and ``kernel`` holds, for each other column c, the null vector that
    is 1 at c and supported on c and the columns before it.
    """
    n = M.cols
    span = Span(M.p, M.rows, tail=n)
    for j, col in enumerate(zip(*M.data) if M.data else [()] * n):
        span.insert([*col, *[0] * j, 1, *[0] * (n - j - 1)])
    return span


def kernel_basis(M: FpMatrix) -> list:
    """A basis of the right null space {x : M x = 0}, as tuples."""
    return colspan(M).kernel


def in_colspan(M: FpMatrix, v):
    """Solve M x = v; return the coefficient tuple or None."""
    if len(v) != M.rows:
        raise ValueError("vector length does not match the row count")
    return colspan(M).solve(v)
