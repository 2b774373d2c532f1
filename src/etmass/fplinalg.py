"""Dense exact linear algebra over prime fields.

A matrix is a tuple of row tuples of Python ints reduced into
``{0, ..., p-1}``, and one Gauss-Jordan kernel does all the elimination
for every p.  The matrices met here are tiny (side about [E:Q_p] + 2 for
the largest field E in play), so plain integer loops beat any array
library's per-call overhead, and Python ints never overflow.

Everything here is exact; there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass


def _rowreduce(rows, p, npiv):
    """Reduced row echelon form in place on the first `npiv` columns.

    ``rows`` is a list of lists of ints mod p.  Row operations act on the
    full width of each row (so callers may augment).  Returns the pivot
    column indices; their number is the rank.
    """
    m = len(rows)
    pivots = []
    r = 0
    for c in range(npiv):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        if row[c] != 1:
            s = pow(row[c], -1, p)
            row = rows[r] = [x * s % p for x in row]
        for i in range(m):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], row)]
        pivots.append(c)
        r += 1
    return pivots


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
    return len(_rowreduce([list(r) for r in M.data], M.p, M.cols))


def kernel_basis(M: FpMatrix) -> list:
    """A basis of the right null space {x : M x = 0}, as tuples.

    One vector per non-pivot column c of the reduced form: 1 at c, minus
    the column's entries at the pivots, 0 elsewhere.
    """
    p, n = M.p, M.cols
    rows = [list(r) for r in M.data]
    piv = _rowreduce(rows, p, n)
    basis = []
    for c in range(n):
        if c in piv:
            continue
        x = [0] * n
        x[c] = 1
        for row, pc in zip(rows, piv):
            x[pc] = -row[c] % p
        basis.append(tuple(x))
    return basis


def in_colspan(M: FpMatrix, v):
    """Solve M x = v; return the coefficient tuple or None."""
    p, n = M.p, M.cols
    if len(v) != M.rows:
        raise ValueError("vector length does not match the row count")
    aug = [list(r) + [x % p] for r, x in zip(M.data, v)]
    piv = _rowreduce(aug, p, n)
    if any(row[n] for row in aug[len(piv):]):
        return None
    x = [0] * n
    for row, pc in zip(aug, piv):
        x[pc] = row[n]
    return tuple(x)


def span_contains(M: FpMatrix, v) -> bool:
    return in_colspan(M, v) is not None
