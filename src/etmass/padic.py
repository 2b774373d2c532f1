"""Exact fixed-precision arithmetic in p-adic fields.

A base field F is presented as an unramified extension of the p-adic
rationals (generator ``u``, lexicographically-first irreducible
modulus) extended by an Eisenstein binomial ``X^e - p*u0``.  An
element is a flat vector of e*f integers modulo p^K, its coefficients
on the monomials u^j * pi^i, over a power of p; every element carries
its own known absolute precision in v_F units.  Each field builds a
product table for these monomials once, so a product is a single pass
over the table.  The kernel rule: an op builds its result's ``Elt``
once, with the precision cap worked out inline, and an element of
either field kind caches its valuation bound, which ops read first.

Precision is decided here and nowhere above: ``val`` and ``digit`` raise
:class:`PrecisionError` at or past an element's known precision, so a
square class or any other quantity read through them is never guessed.

Quadratic extensions E = F(sqrt(d)) are realised relatively: the ring
of integers is O_F + O_F*rho with rho^2 = a*rho + b, so towers of
quadratics (the only extensions needed here) come for free.  They are
constructed by :func:`quad_extend`.  An element of E is a pair over F,
and E's products call F's methods directly, dropping the terms with
factor a when a is an exact zero.  Towers keep the pairs: one flat
product table per field made a product in a tower faster, but every
fresh tower then paid for building its table, which cost the tower
census more than it saved.  ``minus_one`` forms x - 1 by changing the
constant coefficient alone, for the unit-level digits read by
:mod:`etmass.unitgroups`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import wraps
from math import gcd

INF = float("inf")

CacheInfo = namedtuple("CacheInfo", "hits misses")


def field_cache(fn):
    """Memoise ``fn(F)`` in the field's own ``__dict__``.

    The value lives and dies with its field, unlike an ``lru_cache``
    keyed on the field, which keeps every field alive.  ``cache_info()``
    counts hits and misses over all fields, as ``lru_cache`` does.
    """
    key = f"_cache_{fn.__module__}.{fn.__qualname__}"
    counts = [0, 0]  # hits, misses

    @wraps(fn)
    def cached(F):
        d = F.__dict__
        if key in d:
            counts[0] += 1
            return d[key]
        counts[1] += 1
        value = d[key] = fn(F)
        return value

    cached.cache_info = lambda: CacheInfo(*counts)
    return cached


class PrecisionError(ArithmeticError):
    """A value needs digits beyond an element's known precision."""


class GuardError(RuntimeError):
    """A requested computation exceeds a configured size guard."""


def trial_divide(n: int, limit: int | None = None):
    """Divide the primes d <= limit out of |n|, stopping once d*d > cofactor.

    Returns (the primes found, the cofactor).  The cofactor is 1 or a
    prime whenever it is below (limit + 1)**2, and always with no limit.
    """
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n and (limit is None or d <= limit):
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    return out, n


def prime_factors(n: int) -> set:
    """The set of primes dividing |n| (trial division)."""
    out, n = trial_divide(n)
    if n > 1:
        out.add(n)
    return out


# psi_13, the least strong pseudoprime to all of the first 13 prime bases:
# below it, Miller-Rabin on those bases decides primality (Sorenson and
# Webster, Math. Comp. 86 (2017)).
MR_PROVEN_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is prime, proven for every n below ``MR_PROVEN_BOUND``.

    Raises ValueError from that bound on, where no proof is implemented.
    """
    if n < 2:
        return False
    if n >= MR_PROVEN_BOUND:
        raise ValueError(
            f"cannot decide whether {n} is prime: proven only below {MR_PROVEN_BOUND}"
        )
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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

    def mul(self, x, y):
        if self.f == 1:
            return ((x[0] * y[0]) % self.p,)
        return _poly_mulmod(x, y, self._red, self.p, self.f)

    def pow(self, x, n):
        if x == self.zero:
            return self.one if n == 0 else self.zero
        n %= self.q - 1
        if self.f == 1:
            return (pow(x[0], n, self.p),)
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
        return self.field.sub(self, self.field.coerce(other))

    def __rsub__(self, other):
        return self.field.sub(self.field.coerce(other), self)

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


class PadicField:
    """Methods shared by :class:`LocalField` and :class:`QuadExt`.

    They use only the element interface each field supplies (``add``,
    ``sub``, ``neg``, ``mul``, ``inv``, ``shift``, ``val_lower``,
    ``_digit``, ``residue``, ``one``, ``from_int``, ``from_rational``);
    ``base`` is the field below, or None for a base field.
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

    def val(self, x):
        if x.exact:
            return INF
        # both _mk cap prec so that an element with no digit left
        # reports val_lower >= prec, and fails here
        v = self.val_lower(x)
        if v >= x.prec:
            raise PrecisionError("valuation at or beyond known precision")
        return v

    def digit(self, x, k):
        """Residue of x / pi^k, for 0 <= k <= v(x), with no product.

        Raises PrecisionError for k at or beyond the known precision,
        ArithmeticError for k outside [0, v(x)].
        """
        if x.exact:
            return self.rf.zero
        if k >= x.prec:
            raise PrecisionError(f"digit {k} at or beyond known precision")
        if k < 0 or self.val_lower(x) < k:
            raise ArithmeticError(f"digit {k} outside [0, v(x)]")
        return self._digit(x, k)

    def is_zero(self, x):
        if x.exact:
            return True
        try:
            self.val(x)
        except PrecisionError:
            return True
        return False


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
        self._eK = e * self.K  # the precision cap of a p-integral element
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
        cap = self._eK - self.e * pshift
        return Elt(self, (vec, pshift), prec if prec < cap else cap, exact)

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

    def half(self):
        """1/2, exactly and with no inverse: 1 over the p-denominator p
        when p = 2, the integer inverse of 2 modulo p^K otherwise."""
        if self.p == 2:
            return self._mk(self._one_vec, 1, self.e * self.K)
        return self.from_int((self.pK + 1) // 2)

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
        if x.field is not y.field:
            raise ValueError("elements of different fields")
        (xv, xs), (yv, ys) = x.data, y.data
        pK = self.pK
        if xs == ys:
            s, vec = xs, tuple([(a + b) % pK for a, b in zip(xv, yv)])
        else:  # bring both over the larger p-denominator
            s = xs if xs > ys else ys
            mx, my = self.p ** (s - xs), self.p ** (s - ys)
            vec = tuple([(a * mx + b * my) % pK for a, b in zip(xv, yv)])
        prec, cap = x.prec if x.prec < y.prec else y.prec, self._eK - self.e * s
        return Elt(self, (vec, s), prec if prec < cap else cap, x.exact and y.exact)

    def sub(self, x, y):
        if x.field is not y.field:
            raise ValueError("elements of different fields")
        (xv, xs), (yv, ys) = x.data, y.data
        pK = self.pK
        if xs == ys:
            s, vec = xs, tuple([(a - b) % pK for a, b in zip(xv, yv)])
        else:
            s = xs if xs > ys else ys
            mx, my = self.p ** (s - xs), self.p ** (s - ys)
            vec = tuple([(a * mx - b * my) % pK for a, b in zip(xv, yv)])
        prec, cap = x.prec if x.prec < y.prec else y.prec, self._eK - self.e * s
        return Elt(self, (vec, s), prec if prec < cap else cap, x.exact and y.exact)

    def neg(self, x):
        vec, s = x.data
        pK, prec, cap = self.pK, x.prec, self._eK - self.e * s
        return Elt(self, (tuple([-a % pK for a in vec]), s), prec if prec < cap else cap, x.exact)

    def minus_one(self, x):
        """x - 1, changing only the constant coefficient."""
        vec, s = x.data
        prec, cap = x.prec, self._eK - self.e * s
        return Elt(self, (((vec[0] - self.p**s) % self.pK,) + vec[1:], s), prec if prec < cap else cap)

    def mul(self, x, y):
        if x.field is not y.field:
            raise ValueError("elements of different fields")
        (xv, xs), (yv, ys) = x.data, y.data
        px = x.prec + (self.val_lower(y) if y.vlow is None else y.vlow)
        py = y.prec + (self.val_lower(x) if x.vlow is None else x.vlow)
        s = xs + ys
        prec, cap = px if px < py else py, self._eK - self.e * s
        return Elt(self, (self._vec_mul(xv, yv), s), prec if prec < cap else cap, x.exact or y.exact)

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
            v = self._eK
            for i in range(e):
                if v <= i:
                    break
                g = vec[i] if f == 1 else gcd(*vec[i * f : (i + 1) * f])
                if g and (w := e * self._vp(g) + i) < v:
                    v = w
            v -= e * s
        x.vlow = v
        return v

    def shift(self, x, k):
        """Multiply by pi^k (k may be negative).

        For k < 0 the p-denominator grows by ceil(-k/e), since
        pi^k = pi^(k + e*ds) / (p*u0)^ds with k + e*ds >= 0; for k > 0 it
        falls by one per pi^e = p*u0 while it is positive.  A larger
        p-denominator would cost e digits of precision per unit, since
        every element's precision is capped at e*(K - pshift).
        """
        if k == 0 or x.exact:
            return x
        vec, s = x.data
        ds = -(k // self.e) if k < 0 or k // self.e < s else -s
        prec, cap = x.prec + k, self._eK - self.e * (s + ds)
        return Elt(self, (self._vec_mul(vec, self._shift_vec(k, ds)), s + ds), prec if prec < cap else cap)

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
        # 1/u is known to as many digits as u, and 1/x = pi^(-v)/u
        return self.shift(self._mk(yv, 0, u.prec), -v)

    def residue(self, x):
        x = self.normalize_pshift(x)
        if x.prec <= 0:
            raise PrecisionError("digit 0 at or beyond known precision")
        vec, s = x.data
        if s > 0:
            raise ArithmeticError("element is not integral")
        return tuple(a % self.p for a in vec[: self.f])

    def _digit(self, x, k):
        """The digit at k, read off the stored coefficients.

        With k + e*pshift = e*a + r, 0 <= r < e, only the r-th pi-block
        c_r reaches valuation k: its p^a-digit, since p^a * pi^r / p^pshift
        = pi^k * u0^(pshift - a).
        """
        rf = self.rf
        vec, s = x.data
        a, r = divmod(k + self.e * s, self.e)
        p, pa, f = self.p, self.p**a, self.f
        d = tuple([c // pa % p for c in vec[r * f : (r + 1) * f]])
        if self.u0 != rf.one and s != a:
            d = rf.mul(d, rf.pow(self.u0, s - a))
        return d


# ---------------------------------------------------------------------------
# quadratic extensions
# ---------------------------------------------------------------------------


class QuadExt(PadicField):
    """E = F(sqrt(d)) with O_E = O_F + O_F*rho, rho^2 = a*rho + b."""

    def __init__(self, base, kind, a, b, d, disc_val):
        self.base = base
        self.kind = kind  # "ramified" | "unramified"
        self._ram = kind == "ramified"
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
        self._rho_pows = {}  # k -> rho^k, for ramified shifts
        self._c = None  # res(pi_F / rho^2), for ramified digits

    def __repr__(self):
        return f"{self.base!r}[sqrt,{self.kind[:3]}]"

    def _mk(self, x, y):
        a, b = (2 * x.prec, 2 * y.prec + 1) if self._ram else (x.prec, y.prec)
        return Elt(self, (x, y), a if a <= b else b, x.exact and y.exact)

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

    def half(self):
        return self.embed(self.base.half())

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
        if x.field is not y.field:
            raise ValueError("elements of different fields")
        (x0, x1), (y0, y1) = x.data, y.data
        return self._mk(self.base.add(x0, y0), self.base.add(x1, y1))

    def sub(self, x, y):
        if x.field is not y.field:
            raise ValueError("elements of different fields")
        (x0, x1), (y0, y1) = x.data, y.data
        B = self.base
        return self._mk(B.sub(x0, y0), B.sub(x1, y1))

    def neg(self, x):
        x0, x1 = x.data
        B = self.base
        return self._mk(B.neg(x0), B.neg(x1))

    def minus_one(self, x):
        """x - 1, changing only the first half."""
        x0, x1 = x.data
        return self._mk(self.base.minus_one(x0), x1)

    # The products below call the base field's methods directly.  A term
    # with the factor a is dropped when a is an exact zero (every E at
    # odd p, and every E = F(sqrt(d)) with v(d) odd): the value is the
    # same, and the precision can only be higher.

    def mul(self, x, y):
        if x.field is not y.field:
            raise ValueError("elements of different fields")
        (x0, x1), (y0, y1) = x.data, y.data
        B = self.base
        # an embedded operand (second half exact zero) needs two base
        # products, not the five of the full formula
        if y1.exact:
            return self._mk(B.mul(x0, y0), B.mul(x1, y0))
        if x1.exact:
            return self._mk(B.mul(x0, y0), B.mul(x0, y1))
        cross = B.mul(x1, y1)
        re = B.add(B.mul(x0, y0), B.mul(self.b, cross))
        im = B.add(B.mul(x0, y1), B.mul(x1, y0))
        if not self.a.exact:
            im = B.add(im, B.mul(self.a, cross))
        return self._mk(re, im)

    def conj(self, x):
        x0, x1 = x.data
        B = self.base
        re = x0 if self.a.exact else B.add(x0, B.mul(self.a, x1))
        return self._mk(re, B.neg(x1))

    def norm(self, x):
        """N_{E/F}(x), an element of the base field."""
        x0, x1 = x.data
        B = self.base
        n = B.mul(x0, x0)
        if not self.a.exact:
            n = B.add(n, B.mul(B.mul(self.a, x0), x1))
        n = B.sub(n, B.mul(B.mul(self.b, x1), x1))
        return B.normalize_pshift(n)

    def inv(self, x):
        if x.exact:
            raise ZeroDivisionError("inverse of zero")
        # p-denominators on the halves would add up in the norm's
        # products and eat the precision window
        x = self.normalize_pshift(x)
        n = self.norm(x)
        ninv = self.base.inv(n)
        c0, c1 = self.conj(x).data
        B = self.base
        return self._mk(B.mul(c0, ninv), B.mul(c1, ninv))

    def val_lower(self, x):
        if x.vlow is None:  # cached on the element, as over the base
            x0, x1 = x.data
            a, b = self.base.val_lower(x0), self.base.val_lower(x1)
            a, b = (2 * a, 2 * b + 1) if self._ram else (a, b)
            x.vlow = a if a <= b else b
        return x.vlow

    def shift(self, x, k):
        """Multiply by pi^k: pi^k of the base on each half when E/F is
        unramified, one product with rho^k when it is ramified."""
        if k == 0 or x.exact:
            return x
        if self.kind == "unramified":
            x0, x1 = x.data
            return self._mk(self.base.shift(x0, k), self.base.shift(x1, k))
        return self.mul(x, self._rho_power(k))

    def _rho_power(self, k):
        """rho^k with its p-denominators cleared, built once per k from
        rho or rho^-1 = (rho - a)/b and kept on the field."""
        pows = self._rho_pows
        if k not in pows:
            s = 1 if k > 0 else -1
            if s not in pows:
                if s == 1:
                    pows[s] = self.rho()
                else:
                    B = self.base
                    binv = B.inv(self.b)
                    pows[s] = self.normalize_pshift(self._mk(B.mul(B.neg(self.a), binv), binv))
            for j in range(2 * s, k + s, s):
                if j not in pows:
                    pows[j] = self.normalize_pshift(self.mul(pows[j - s], pows[s]))
        return pows[k]

    def normalize_pshift(self, x):
        x0, x1 = x.data
        B = self.base
        return self._mk(B.normalize_pshift(x0), B.normalize_pshift(x1))

    def residue(self, x):
        if x.prec <= 0:
            raise PrecisionError("digit 0 at or beyond known precision")
        x0, x1 = x.data
        B = self.base
        if self.kind == "ramified":
            # v_E(x1 * rho) is odd, so the residue comes from x0 alone
            return B.residue(x0)
        return (B.residue(x0), B.residue(x1))

    def _digit(self, x, k):
        """The digit at k, from base digits.

        Unramified: the digits of both halves at k.  Ramified, with
        pi = rho: the base digit at j of x0 (k = 2j) or of x1 (k = 2j + 1),
        times c^j for c = res(pi_F / rho^2), since the other half has the
        other parity of valuation.
        """
        rf = self.rf
        x0, x1 = x.data
        B = self.base
        if self.kind == "unramified":
            return (B.digit(x0, k), B.digit(x1, k))
        j, odd = divmod(k, 2)
        d = B.digit(x1 if odd else x0, j)
        if self._c is None:
            # rho^2 / pi_F = b / pi_F + (a / pi_F) rho, and v(a) >= 1
            self._c = rf.inv(B.digit(self.b, 1))
        if j and self._c != rf.one:
            d = rf.mul(d, rf.pow(self._c, j))
        return d


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
    t = F.minus_one(d0 / (lam * lam))
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

