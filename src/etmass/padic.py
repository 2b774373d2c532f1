"""Exact fixed-precision arithmetic in p-adic fields.

A base field F is presented as an unramified extension of the p-adic
rationals (generator ``u``, lexicographically-first irreducible
modulus) extended by an Eisenstein binomial ``X^e - p*u0``.  An
element is a flat vector of e*f integers modulo p^K, its coefficients
on the monomials u^j * pi^i, over a power of p; every element carries
its own known absolute precision in v_F units.  Each field builds a
product table for these monomials once, so a product is a single pass
over the table, and each element caches its valuation bound.

Quadratic extensions E = F(sqrt(d)) are realised relatively: the ring
of integers is O_F + O_F*rho with rho^2 = a*rho + b, so towers of
quadratics (the only extensions needed here) come for free.  They are
constructed by :func:`quad_extend`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

INF = float("inf")


class PrecisionError(ArithmeticError):
    """All stored digits vanished but the element is not exact zero."""


class GuardError(RuntimeError):
    """A requested computation exceeds a configured size guard."""


def prime_factors(n: int) -> set:
    """The set of primes dividing |n| (trial division)."""
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.add(n)
    return out


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == {n}


# ---------------------------------------------------------------------------
# residue fields
# ---------------------------------------------------------------------------


def _poly_mulmod(x, y, mod_red, p, f):
    """Multiply length-f coefficient tuples modulo the modulus.

    mod_red[k] is the reduction of X^(f+k) as a length-f tuple,
    for 0 <= k <= f-2.
    """
    conv = [0] * (2 * f - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                conv[i + j] = (conv[i + j] + xi * yj) % p
    out = conv[:f]
    for k in range(f, 2 * f - 1):
        c = conv[k]
        if c:
            row = mod_red[k - f]
            for j in range(f):
                out[j] = (out[j] + c * row[j]) % p
    return tuple(out)


def _first_irreducible(p, f):
    """Lexicographically first monic irreducible of degree f mod p."""
    if f == 1:
        return (0, 1)  # X
    # scan constant-first coefficient vectors (c0, ..., c_{f-1}, 1)
    for idx in range(p**f):
        coeffs = []
        t = idx
        for _ in range(f):
            coeffs.append(t % p)
            t //= p
        poly = tuple(coeffs) + (1,)
        if _is_irreducible(poly, p, f):
            return poly
    raise RuntimeError("no irreducible polynomial found")


def _is_irreducible(poly, p, f):
    """Irreducibility test: X^(p^f) == X and X^(p^d) != X for d | f."""
    f_deg = len(poly) - 1
    red = _reduction_rows(poly, p)
    x = tuple([0, 1] + [0] * (f_deg - 2)) if f_deg > 1 else (0,)

    def frob(elt, times):
        for _ in range(times):
            r = elt
            acc = tuple([1] + [0] * (f_deg - 1))
            e = p
            while e:
                if e & 1:
                    acc = _poly_mulmod(acc, r, red, p, f_deg)
                r = _poly_mulmod(r, r, red, p, f_deg)
                e >>= 1
            elt = acc
        return elt

    if frob(x, f_deg) != x:
        return False
    for d in range(1, f_deg):
        if f_deg % d == 0 and frob(x, d) == x:
            return False
    return True


def _reduction_rows(poly, p):
    """Rows expressing X^(f+k) in terms of 1..X^(f-1), coefficients mod p."""
    f = len(poly) - 1
    rows = []
    # X^f = -(poly minus leading term)
    base = tuple((-c) % p for c in poly[:f])
    rows.append(base)
    cur = base
    for _ in range(1, f - 1):
        shifted = [0] + list(cur[: f - 1])
        c = cur[f - 1]
        nxt = [(shifted[j] + c * base[j]) % p for j in range(f)]
        rows.append(tuple(nxt))
        cur = tuple(nxt)
    return rows


class ResidueField:
    """The field with q = p^f elements, as F_p[x] modulo a fixed modulus.

    Elements are length-f tuples of ints mod p, in the power basis of
    the generator (the basis used for all F_p-coordinate vectors).
    """

    _generator = None

    def __init__(self, p, f, modulus=None):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = modulus if modulus is not None else _first_irreducible(p, f)
        self._red = _reduction_rows(self.modulus, p) if f > 1 else []
        self.zero = (0,) * f
        self.one = (1,) + (0,) * (f - 1)

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        return tuple((-a) % self.p for a in x)

    def smul(self, c, x):
        return tuple((c * a) % self.p for a in x)

    def mul(self, x, y):
        if self.f == 1:
            return ((x[0] * y[0]) % self.p,)
        return _poly_mulmod(x, y, self._red, self.p, self.f)

    def pow(self, x, n):
        if x == self.zero:
            return self.one if n == 0 else self.zero
        n %= self.q - 1
        acc, r = self.one, x
        while n:
            if n & 1:
                acc = self.mul(acc, r)
            r = self.mul(r, r)
            n >>= 1
        return acc

    def inv(self, x):
        if not any(x):
            raise ZeroDivisionError
        return self.pow(x, self.q - 2)

    def generator(self):
        """A generator of the multiplicative group, found once per field."""
        if self._generator is None:
            primes = sorted(prime_factors(self.q - 1))
            self._generator = next(
                x
                for x in self.elements()
                if not self.is_zero(x) and all(self.pow(x, (self.q - 1) // r) != self.one for r in primes)
            )
        return self._generator

    def pth_root(self, x):
        # Frobenius is bijective; its inverse is y -> y^(q/p).
        return self.pow(x, self.q // self.p)

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.f - 1)

    def is_zero(self, x):
        return x == self.zero

    def is_square(self, x):
        if x == self.zero:
            return True
        if self.p == 2:
            return True
        return self.pow(x, (self.q - 1) // 2) == self.one

    def elements(self):
        for idx in range(self.q):
            coeffs = []
            t = idx
            for _ in range(self.f):
                coeffs.append(t % self.p)
                t //= self.p
            yield tuple(coeffs)

    def coords(self, x):
        return list(x)

    def from_coords(self, v):
        return tuple(c % self.p for c in v)


class QuadResidueField(ResidueField):
    """Degree-2 extension of a residue field: y^2 = a*y + b, elements
    are pairs over the base.  Same interface as :class:`ResidueField`."""

    def __init__(self, base, a, b):
        self.base = base
        self.p = base.p
        self.f = 2 * base.f
        self.q = base.q**2
        self.a = a
        self.b = b
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)
        # sanity: X^2 - aX - b must have no root in the base field
        for r in base.elements():
            if base.sub(base.mul(r, r), base.add(base.mul(a, r), b)) == base.zero:
                raise ValueError("residue quadratic is reducible")

    def add(self, x, y):
        return (self.base.add(x[0], y[0]), self.base.add(x[1], y[1]))

    def sub(self, x, y):
        return (self.base.sub(x[0], y[0]), self.base.sub(x[1], y[1]))

    def neg(self, x):
        return (self.base.neg(x[0]), self.base.neg(x[1]))

    def mul(self, x, y):
        B = self.base
        x0, x1 = x
        y0, y1 = y
        cross = B.mul(x1, y1)
        re = B.add(B.mul(x0, y0), B.mul(self.b, cross))
        im = B.add(B.add(B.mul(x0, y1), B.mul(x1, y0)), B.mul(self.a, cross))
        return (re, im)

    def inv(self, x):
        B = self.base
        x0, x1 = x
        conj = (B.add(x0, B.mul(self.a, x1)), B.neg(x1))
        nrm = B.sub(B.add(B.mul(x0, x0), B.mul(self.a, B.mul(x0, x1))), B.mul(self.b, B.mul(x1, x1)))
        ninv = B.inv(nrm)
        return (B.mul(conj[0], ninv), B.mul(conj[1], ninv))

    def from_int(self, n):
        return (self.base.from_int(n), self.base.zero)

    def elements(self):
        for x0 in self.base.elements():
            for x1 in self.base.elements():
                yield (x0, x1)

    def coords(self, x):
        return self.base.coords(x[0]) + self.base.coords(x[1])

    def from_coords(self, v):
        h = self.base.f
        return (self.base.from_coords(v[:h]), self.base.from_coords(v[h:]))


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------


class Elt:
    """A field element: field-specific payload plus known precision.

    ``prec`` is the absolute precision in uniformizer-valuation units of
    the owning field: the element is known modulo pi^prec.  ``exact``
    marks the genuine zero element.
    """

    __slots__ = ("field", "data", "prec", "exact", "vlow")

    def __init__(self, field, data, prec, exact=False):
        self.field = field
        self.data = data
        self.prec = prec
        self.exact = exact
        self.vlow = None  # val_lower, filled in on first use

    # arithmetic delegates to the field
    def __add__(self, other):
        return self.field.add(self, self.field.coerce(other))

    __radd__ = __add__

    def __neg__(self):
        return self.field.neg(self)

    def __sub__(self, other):
        return self.field.add(self, self.field.neg(self.field.coerce(other)))

    def __rsub__(self, other):
        return self.field.add(self.field.coerce(other), self.field.neg(self))

    def __mul__(self, other):
        return self.field.mul(self, self.field.coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.field.mul(self, self.field.inv(self.field.coerce(other)))

    def __rtruediv__(self, other):
        return self.field.mul(self.field.coerce(other), self.field.inv(self))

    def __pow__(self, n):
        return self.field.power(self, n)

    def val(self):
        return self.field.val(self)

    def residue(self):
        return self.field.residue(self)

    def __repr__(self):
        return f"<{self.field!r} elt v>={self.field.val_lower(self)} prec={self.prec}>"


def _check_same_field(x, y):
    if x.field is not y.field:
        raise ValueError("elements of different fields")


class PadicField:
    """Methods shared by :class:`LocalField` and :class:`QuadExt`.

    They use only the element interface each field supplies (``add``,
    ``neg``, ``mul``, ``inv``, ``shift``, ``val``, ``val_lower``,
    ``residue``, ``one``, ``from_int``, ``from_rational``); ``base`` is
    the field below, or None for a base field.
    """

    base = None

    def coerce(self, x):
        if isinstance(x, Elt):
            if x.field is self:
                return x
            if x.field is self.base:
                return self.embed(x)
            raise ValueError("element of a different field")
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self.from_rational(x)
        raise TypeError(f"cannot coerce {x!r}")

    def power(self, x, n):
        if n < 0:
            return self.power(self.inv(x), -n)
        acc, r = self.one(), x
        while n:
            if n & 1:
                acc = self.mul(acc, r)
            r = self.mul(r, r)
            n >>= 1
        return acc

    def is_zero(self, x):
        if x.exact:
            return True
        try:
            self.val(x)
        except PrecisionError:
            return True
        return False

    def digit(self, x, k):
        """Residue of x / pi^k (requires v(x) >= k)."""
        return self.residue(self.shift(x, -k))

    def congruent(self, x, y, t):
        """Whether x == y modulo pi^t (raises if precision cannot decide)."""
        d = x - y
        if d.exact:
            return True
        if min(x.prec, y.prec) < t:
            raise PrecisionError(f"precision below congruence level {t}")
        return self.val_lower(d) >= t

    def unit_eq(self, x, y):
        """Equality as field values at the shared known precision."""
        d = x - y
        if d.exact:
            return True
        return self.val_lower(d) >= min(x.prec, y.prec)


class LocalField(PadicField):
    """A finite extension of the p-adic rationals, e.f presentation.

    An element's payload is ``(vec, pshift)`` and stands for
    vec / p^pshift.  ``vec`` is one flat tuple of e*f ints in [0, p^K):
    index i*f + j holds the coefficient of u^j * pi^i.  These e*f
    monomials are a basis of the ring R = O_F / p^K, and the product
    table ``_table``, built once per field, lists every (a, b, c, t)
    with basis_a * basis_b = sum of t * basis_c in R (u reduced by the
    modulus, pi^e = p*u0).  A product is then one pass over the table
    and one reduction mod p^K; a shift by pi^k is a product with a
    vector cached on the field.  ``val_lower`` reads v_p of the
    coefficients and is cached on the element.
    """

    def __init__(self, p, e, f, prec=None, seed=0):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1 or f < 1:
            raise ValueError("e and f must be >= 1")
        self.p = p
        self.e = e
        self.f = f
        self.q = p**f
        pmin = (p * e) // (p - 1) + 2 * e + 8
        if prec is None:
            prec = pmin
        if prec < pmin:
            raise ValueError(f"prec {prec} below minimum {pmin}")
        self.prec = prec
        self.seed = seed
        self.K = 2 * (-(-prec // e)) + 10
        self.pK = p**self.K
        self.rf = ResidueField(p, f)
        self._wred = [
            tuple(int(c) for c in row) for row in (_reduction_rows(self.rf.modulus, self.pK) if f > 1 else [])
        ]
        # Eisenstein binomial X^e - p*u0 with a seed-determined unit u0
        t = seed % self.q
        coeffs = []
        for _ in range(f):
            coeffs.append(t % p)
            t //= p
        u0 = tuple(coeffs) if any(coeffs) else self.rf.one
        self.u0 = tuple(int(c) for c in u0)
        self.kind = "base"
        self._n = e * f
        self._zero_vec = (0,) * self._n
        self._one_vec = (1,) + self._zero_vec[1:]
        self.u0_inv = self._w_inv(self.u0)
        self._table = self._product_table()
        self._shift_vecs = {}

    def __repr__(self):
        return f"Q_{self.p}({self.e},{self.f})"

    # ---- unramified-subring (W) arithmetic, for field structure: ----
    # ---- tuples of f ints mod p^K                                 ----

    def _w_mul(self, x, y):
        if self.f == 1:
            return ((x[0] * y[0]) % self.pK,)
        return _poly_mulmod(x, y, self._wred, self.pK, self.f)

    def _w_pow(self, x, n):
        acc = self._one_vec[: self.f]
        while n:
            if n & 1:
                acc = self._w_mul(acc, x)
            x = self._w_mul(x, x)
            n >>= 1
        return acc

    def _w_inv(self, x):
        if self.f == 1:
            return (pow(x[0], -1, self.pK),)
        y = tuple(int(a) for a in self.rf.inv(tuple(a % self.p for a in x)))
        return self._newton_inv(self._w_mul, x, y, self._one_vec[: self.f])

    def _newton_inv(self, mul, x, y, one):
        """Newton y <- y(2 - xy) from y with xy = 1 mod pi until xy is
        exactly one: the error 1 - xy squares each step, so it vanishes
        mod p^K within log2(e*K) steps, and the inverse mod p^K is unique."""
        pK = self.pK
        for _ in range((self.e * self.K).bit_length() + 2):
            t = mul(x, y)
            if t == one:
                return y
            y = mul(y, ((2 - t[0]) % pK,) + tuple([-a % pK for a in t[1:]]))
        raise ArithmeticError("Newton inverse did not converge")

    def _product_table(self):
        """Every (a, b, c, t) with t != 0 the basis_c-coefficient of basis_a * basis_b."""
        e, f = self.e, self.f
        upow = [tuple(int(j == k) for j in range(f)) for k in range(f)] + self._wred
        pu0 = self._w_mul((self.p,) + (0,) * (f - 1), self.u0)  # pi^e = p*u0
        table = []
        for a in range(self._n):
            ia, ja = divmod(a, f)
            for b in range(self._n):
                ib, jb = divmod(b, f)
                w, i = upow[ja + jb], ia + ib
                if i >= e:
                    w, i = self._w_mul(pu0, w), i - e
                table.extend((a, b, i * f + j, t) for j, t in enumerate(w) if t)
        return tuple(table)

    def _shift_vec(self, k, ds):
        """The integral vector of pi^k * p^ds, i.e. pi^(k + e*ds) * u0^-ds."""
        vec = self._shift_vecs.get((k, ds))
        if vec is None:
            q, r = divmod(k + self.e * ds, self.e)
            c = q - ds  # pi^(qe + r) = (p*u0)^q pi^r
            w = self._w_pow(self.u0 if c >= 0 else self.u0_inv, abs(c))
            w = tuple(a * pow(self.p, q, self.pK) % self.pK for a in w)
            vec = self._zero_vec[: r * self.f] + w + self._zero_vec[(r + 1) * self.f :]
            self._shift_vecs[(k, ds)] = vec
        return vec

    def _vec_mul(self, xv, yv):
        """Product of two coefficient vectors in R."""
        pK = self.pK
        if self._n == 1:
            return ((xv[0] * yv[0]) % pK,)
        acc = [0] * self._n
        for a, b, c, t in self._table:
            acc[c] += xv[a] * yv[b] * t
        return tuple([c % pK for c in acc])

    def _vp(self, c):
        """v_p of a nonzero int."""
        if self.p == 2:
            return (c & -c).bit_length() - 1
        v = 0
        while c % self.p == 0:
            c //= self.p
            v += 1
        return v

    # ---- element construction ----

    def _mk(self, vec, pshift, prec, exact=False):
        cap = self.e * (self.K - pshift)
        return Elt(self, (vec, pshift), min(prec, cap), exact)

    def _from_w(self, w):
        """The element with constant pi-digit w (f ints)."""
        return self._mk(tuple(w) + self._zero_vec[self.f :], 0, self.e * self.K)

    def zero(self):
        return self._mk(self._zero_vec, 0, self.e * self.K, exact=True)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        vec = (n % self.pK,) + self._zero_vec[1:]
        return self._mk(vec, 0, self.e * self.K, exact=(n == 0))

    def from_rational(self, r):
        r = Fraction(r)
        if r == 0:
            return self.zero()
        return self.from_int(r.numerator) / self.from_int(r.denominator)

    def pi(self):
        return self._mk(self._shift_vec(1, 0), 0, self.e * self.K)

    def ugen(self):
        if self.f == 1:
            return self.one()
        return self._from_w(self.rf.from_coords([0, 1] + [0] * (self.f - 2)))

    def residue_lifts(self):
        """Elements lifting the F_p-coordinate basis of the residue field."""
        return [self._from_w(int(j == k) for k in range(self.f)) for j in range(self.f)]

    def lift(self, r):
        """A field element reducing to the residue element r."""
        return self._from_w(int(a) for a in r)

    # ---- arithmetic ----

    def add(self, x, y):
        _check_same_field(x, y)
        (xv, xs), (yv, ys) = x.data, y.data
        pK, s = self.pK, max(xs, ys)
        if xs == ys:
            vec = tuple([(a + b) % pK for a, b in zip(xv, yv)])
        else:  # bring both over the larger p-denominator
            mx, my = self.p ** (s - xs), self.p ** (s - ys)
            vec = tuple([(a * mx + b * my) % pK for a, b in zip(xv, yv)])
        return self._mk(vec, s, min(x.prec, y.prec), exact=x.exact and y.exact)

    def neg(self, x):
        vec, s = x.data
        pK = self.pK
        return self._mk(tuple([-a % pK for a in vec]), s, x.prec, x.exact)

    def mul(self, x, y):
        _check_same_field(x, y)
        (xv, xs), (yv, ys) = x.data, y.data
        prec = min(x.prec + self.val_lower(y), y.prec + self.val_lower(x))
        return self._mk(self._vec_mul(xv, yv), xs + ys, prec, x.exact or y.exact)

    def val_lower(self, x):
        """A lower bound for the valuation (exact unless digits exhausted)."""
        v = x.vlow
        if v is not None:
            return v
        if x.exact:
            v = x.prec  # exact zero: effectively +inf but bounded use
        else:
            vec, s = x.data
            e, f = self.e, self.f
            v = e * self.K
            for i in range(e):
                if v <= i:
                    break
                g = vec[i] if f == 1 else gcd(*vec[i * f : (i + 1) * f])
                if g:
                    v = min(v, e * self._vp(g) + i)
            v -= e * s
        x.vlow = v
        return v

    def val(self, x):
        if x.exact:
            return INF
        # _mk caps prec at e*(K - pshift), the value val_lower reports
        # once every digit has vanished, so that case fails here too
        v = self.val_lower(x)
        if v >= x.prec:
            raise PrecisionError("valuation at or beyond known precision")
        return v

    def shift(self, x, k):
        """Multiply by pi^k (k may be negative).

        The p-denominator grows by one per pi^-1 (pi^-1 = pi^(e-1)/(p*u0))
        and, for k > 0, falls by one per pi^e = p*u0 while it is positive.
        """
        if k == 0 or x.exact:
            return x
        vec, s = x.data
        ds = -min(k // self.e, s) if k > 0 else -k
        return self._mk(self._vec_mul(vec, self._shift_vec(k, ds)), s + ds, x.prec + k)

    def normalize_pshift(self, x):
        """Clear the p-denominator when the element is p-integral."""
        vec, s = x.data
        if s == 0:
            return x
        g = gcd(*vec)
        k = min(self._vp(g) if g else self.K, s)
        if k == 0:
            return x
        pk = self.p**k
        return Elt(self, (tuple(a // pk for a in vec), s - k), x.prec, x.exact)

    def inv(self, x):
        if x.exact:
            raise ZeroDivisionError("inverse of zero")
        v = self.val(x)
        u = self.normalize_pshift(self.shift(x, -v))
        uv, s = u.data
        if s != 0:
            # a p-denominator beyond p^K left the unit part without digits
            raise PrecisionError("unit part is not p-integral")
        # start from the exact inverse of the constant pi-digit, which is
        # the whole inverse when e = 1
        yv = self._w_inv(uv[: self.f]) + self._zero_vec[self.f :]
        if self.e > 1:
            yv = self._newton_inv(self._vec_mul, uv, yv, self._one_vec)
        return self.shift(self._mk(yv, 0, x.prec - 2 * v), -v)

    def residue(self, x):
        x = self.normalize_pshift(x)
        vec, s = x.data
        if s > 0:
            raise ArithmeticError("element is not integral")
        return tuple(a % self.p for a in vec[: self.f])


# ---------------------------------------------------------------------------
# quadratic extensions
# ---------------------------------------------------------------------------


class QuadExt(PadicField):
    """E = F(sqrt(d)) with O_E = O_F + O_F*rho, rho^2 = a*rho + b."""

    def __init__(self, base, kind, a, b, d, disc_val):
        self.base = base
        self.kind = kind  # "ramified" | "unramified"
        self.a = a
        self.b = b
        self.d = d
        self.disc_val = disc_val  # v_F(d_{E/F})
        self.p = base.p
        if kind == "ramified":
            self.e = 2 * base.e
            self.f = base.f
            self.rf = base.rf
            self.prec = 2 * base.prec
        else:
            self.e = base.e
            self.f = 2 * base.f
            self.rf = QuadResidueField(base.rf, base.residue(a), base.residue(b))
            self.prec = base.prec
        self.q = self.p**self.f
        self.seed = getattr(base, "seed", 0)
        # rho^{-1} = (rho - a)/b
        binv = base.inv(b)
        self._rhoinv = (base.mul(base.neg(a), binv), binv)

    def __repr__(self):
        return f"{self.base!r}[sqrt,{self.kind[:3]}]"

    # scale from base valuation units to E valuation units
    @property
    def ramdeg(self):
        return 2 if self.kind == "ramified" else 1

    def _mk(self, x, y):
        r = self.ramdeg
        prec = min(r * x.prec, r * y.prec + (1 if self.kind == "ramified" else 0))
        return Elt(self, (x, y), prec, x.exact and y.exact)

    def zero(self):
        return self._mk(self.base.zero(), self.base.zero())

    def one(self):
        return self._mk(self.base.one(), self.base.zero())

    def rho(self):
        return self._mk(self.base.zero(), self.base.one())

    def embed(self, x):
        return self._mk(x, self.base.zero())

    def from_int(self, n):
        return self.embed(self.base.from_int(n))

    def from_rational(self, r):
        return self.embed(self.base.from_rational(r))

    def pi(self):
        if self.kind == "ramified":
            return self.rho()
        return self.embed(self.base.pi())

    def ugen(self):
        if self.kind == "ramified":
            return self.embed(self.base.ugen())
        return self.rho()

    def residue_lifts(self):
        if self.kind == "ramified":
            return [self.embed(l) for l in self.base.residue_lifts()]
        lifts = [self.embed(l) for l in self.base.residue_lifts()]
        rho = self.rho()
        return lifts + [self.mul(l, rho) for l in lifts]

    def lift(self, r):
        if self.kind == "ramified":
            return self.embed(self.base.lift(r))
        return self._mk(self.base.lift(r[0]), self.base.lift(r[1]))

    # ---- arithmetic on pairs ----

    def add(self, x, y):
        _check_same_field(x, y)
        (x0, x1), (y0, y1) = x.data, y.data
        return self._mk(x0 + y0, x1 + y1)

    def neg(self, x):
        x0, x1 = x.data
        return self._mk(-x0, -x1)

    def mul(self, x, y):
        _check_same_field(x, y)
        (x0, x1), (y0, y1) = x.data, y.data
        cross = x1 * y1
        re = x0 * y0 + self.b * cross
        im = x0 * y1 + x1 * y0 + self.a * cross
        return self._mk(re, im)

    def conj(self, x):
        x0, x1 = x.data
        return self._mk(x0 + self.a * x1, -x1)

    def norm(self, x):
        """N_{E/F}(x), an element of the base field."""
        x0, x1 = x.data
        n = x0 * x0 + self.a * x0 * x1 - self.b * x1 * x1
        return self.base.normalize_pshift(n)

    def trace(self, x):
        x0, x1 = x.data
        return 2 * x0 + self.a * x1

    def inv(self, x):
        if x.exact:
            raise ZeroDivisionError("inverse of zero")
        n = self.norm(x)
        ninv = self.base.inv(n)
        c = self.conj(x)
        c0, c1 = c.data
        return self._mk(c0 * ninv, c1 * ninv)

    def val_lower(self, x):
        x0, x1 = x.data
        B = self.base
        if self.kind == "ramified":
            return min(2 * B.val_lower(x0), 2 * B.val_lower(x1) + 1)
        return min(B.val_lower(x0), B.val_lower(x1))

    def val(self, x):
        x0, x1 = x.data
        B = self.base
        if x.exact or (x0.exact and x1.exact):
            return INF
        r = self.ramdeg

        def side(z, off):
            if z.exact:
                return INF
            try:
                return r * B.val(z) + off
            except PrecisionError:
                return None  # unknown, digits exhausted

        v0 = side(x0, 0)
        v1 = side(x1, 1 if self.kind == "ramified" else 0)
        if v0 is None or v1 is None:
            # one side exhausted: valuation may still be determined by other
            known = v1 if v0 is None else v0
            bound0 = r * x0.prec
            bound1 = r * x1.prec + (1 if self.kind == "ramified" else 0)
            dead_bound = bound0 if v0 is None else bound1
            if known is not None and known is not INF and known < dead_bound:
                return known
            raise PrecisionError("valuation undetermined at this precision")
        v = min(v0, v1)
        if v is INF:
            raise PrecisionError("all stored digits vanish")
        if v >= x.prec:
            raise PrecisionError("valuation at or beyond known precision")
        return v

    def shift(self, x, k):
        if k == 0 or x.exact:
            return x
        if self.kind == "unramified":
            x0, x1 = x.data
            return self._mk(self.base.shift(x0, k), self.base.shift(x1, k))
        if k > 0:
            out = x
            rho = self.rho()
            for _ in range(k):
                out = self.mul(out, rho)
            return out
        out = x
        for _ in range(-k):
            x0, x1 = out.data
            r0, r1 = self._rhoinv
            re = x0 * r0 + self.b * (x1 * r1)
            im = x0 * r1 + x1 * r0 + self.a * (x1 * r1)
            out = self._mk(re, im)
        return out

    def normalize_pshift(self, x):
        x0, x1 = x.data
        B = self.base
        return self._mk(B.normalize_pshift(x0), B.normalize_pshift(x1))

    def residue(self, x):
        x0, x1 = x.data
        B = self.base
        if self.kind == "ramified":
            # v_E(x1 * rho) is odd, so the residue comes from x0 alone
            return B.residue(x0)
        return (B.residue(x0), B.residue(x1))


# ---------------------------------------------------------------------------
# construction of quadratic extensions
# ---------------------------------------------------------------------------


def quad_extend(F, d):
    """Build E = F(sqrt(d)) with norm and trace maps.

    Raises ValueError when d is a square.  The relative integral basis
    (1, rho) is chosen so that rho generates O_E over O_F.
    """
    v = F.val(d)
    if v is INF:
        raise ValueError("d must be nonzero")
    d0 = F.shift(d, -(v - (v % 2)))
    v0 = v % 2
    if F.p != 2:
        if v0 == 1:
            return QuadExt(F, "ramified", F.zero(), d0, d, 1)
        r = F.residue(d0)
        if F.rf.is_square(r):
            raise ValueError("d is a square")
        return QuadExt(F, "unramified", F.zero(), d0, d, 0)
    # p = 2
    if v0 == 1:
        return QuadExt(F, "ramified", F.zero(), d0, d, 2 * F.e + 1)
    from .unitgroups import c_alpha

    c, lam = c_alpha(F, d0)
    if c == INF:
        raise ValueError("d is a square")
    t = d0 / (lam * lam) - F.one()
    if c == 2 * F.e:
        # unramified: rho = (sqrt(d0)/lam - 1)/pi^e, rho^2 = a rho + b
        two = F.from_int(2)
        a = F.normalize_pshift(F.neg(F.mul(two, F.inv(F.power(F.pi(), F.e)))))
        b = F.normalize_pshift(F.shift(t, -2 * F.e))
        return QuadExt(F, "unramified", a, b, d, 0)
    if c % 2 == 1:
        # ramified with even discriminant valuation m1 = 2e - c + 1
        k = (c - 1) // 2
        two = F.from_int(2)
        a = F.normalize_pshift(F.neg(F.mul(two, F.inv(F.power(F.pi(), k)))))
        # t/pi^(c-1) = pi * (t/pi^c)
        b = F.normalize_pshift(F.shift(t, -(c - 1)))
        return QuadExt(F, "ramified", a, b, d, 2 * F.e - c + 1)
    raise ValueError(f"unexpected square-class level c = {c}")


def disc_val_quadratic(F, u):
    """v_F of the discriminant of F(sqrt(u))/F, for p = 2."""
    if F.p != 2:
        raise ValueError("only defined for residue characteristic 2")
    from .unitgroups import c_alpha

    v = F.val(u)
    if v % 2 == 1:
        return 2 * F.e + 1
    u0 = F.shift(u, -v)
    c, _ = c_alpha(F, u0)
    if c == INF:
        raise ValueError("u is a square")
    if c == 2 * F.e:
        return 0
    return 2 * F.e - c + 1
