"""Dense exact linear algebra over Z/p^k, prime fields included.

One echelon form, :class:`Span`, does all the elimination: it holds a
submodule of (Z/p^k)^n and takes rows one at a time, so a caller whose
spans only grow reads every order with one insertion per row; k = 1 is
elimination over GF(p).  It is the one linear-algebra type: a caller
holds a span (:func:`colspan` makes one from columns) and reads orders,
membership, solutions and kernels off it, so a span over a field's
fixed columns is built once and kept on the field.  The spans are tiny
(side about [E:Q_p] + 2), so plain integer loops beat any array
library's per-call overhead.  Everything is exact.
"""

from __future__ import annotations


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


def colspan(p: int, columns, height: int) -> Span:
    """The span over GF(p) of the given columns of length ``height``,
    column j entered with e_j in its tail.

    The pivots come from the leftmost independent columns, so
    :meth:`Span.solve` gives the solution of M x = v supported on them,
    M the matrix of the columns, and ``kernel`` holds, for each other
    column c, the null vector that is 1 at c and supported on c and the
    columns before it.
    """
    n = len(columns)
    span = Span(p, height, tail=n)
    for j, col in enumerate(columns):
        span.insert([*col, *[0] * j, 1, *[0] * (n - j - 1)])
    return span
