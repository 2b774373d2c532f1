"""Structure of F^x modulo prime-power classes for p-adic fields F.

The central object is the quotient F^x / F^{x ell} for a rational prime
ell.  When ell differs from the residue characteristic p the quotient is
tame and tiny; when ell = p it is governed by the unit filtration
U^(i) = 1 + pi^i O and the wild "level" c_alpha of a unit, computed by a
digit-by-digit reduction.  Everything here works uniformly over the base
fields and the relative quadratic extensions from :mod:`etmass.padic`,
because only the generic element interface is used.

Field structure is built once per field and kept on the field itself
(:func:`etmass.padic.field_cache`), so it dies with the field.  The
unit-class basis (:class:`UnitClassBasis`) stores its elements, their
levels and, for a field containing mu_p, the column span of phi's
columns followed by u*, u* the residue outside the image of phi.  Each
field also keeps the column span of phi (:func:`phi_matrix`) and, when
it is a quadratic E, the span of its norm image
(:func:`norm_class_matrix`), so a later solve on either only reduces a
vector.  The root u = 1 + pi^k y and the strip factor 1/u^p of each
shift k and residue y are kept too, made on first use, with the root's
square class once :func:`class4_vec` has read it.

One walk of the unit levels (:func:`_class_walk`) reads every class.
A digit is read off the stored coefficients (``F.digit``) of m - 1,
which ``F.minus_one`` forms in place without a negation and a sum, and
is cleared by products with stored basis elements and strip factors;
no element is inverted per read.  :func:`p_class_coords` is its
coordinates, :func:`c_alpha` its least nonzero level and the roots it
strips below that level, :func:`quad_disc_val` a discriminant read off
a class vector, and :func:`class4_vec` (p = 2) the walk continued past
the top level to 3e.

A constraint group A = <gens> enters the prime-degree mass formulas at
ell = p only through its :class:`FiltrationProfile`: the order of its
image Abar in F^x/F^{x p} and the orders of its intersections with the
images of U^(t), which :func:`filtration_profile` reads as ranks of the
generators' class vectors, forming no element of A.  With
:func:`quotient_size` they give the index |F^x/(A U^(c) F^{x p})|, the
number of characters of conductor at most c trivial on A, from which
``massprime.count_Cp`` counts the cyclic degree-p extensions.

For p = 2 the classes that span the images of the unit levels in
F^x/F^{x4} (:func:`level_classes4`) are kept on the field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fplinalg import Span, colspan
from .padic import INF, field_cache


def ceil_frac(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# the residue map phi and roots of unity
# ---------------------------------------------------------------------------


@field_cache
def _pi_e_over_p_residue(F):
    """Residue of pi^e / p, a unit of O_F (e the absolute ramification)."""
    return F.rf.inv(F.digit(F.from_int(F.p), F.e))


def _phi_columns(F) -> list:
    """The images under y |-> y + (pi^e/p) * y^p of the F_p-coordinate
    basis of the residue field, as coordinate vectors.

    Only meaningful when (p-1) | e, which is when the map is ever used.
    """
    rf = F.rf
    c0 = _pi_e_over_p_residue(F)
    cols = []
    for j in range(rf.f):
        v = [0] * rf.f
        v[j] = 1
        y = rf.from_coords(v)
        cols.append(rf.coords(rf.add(y, rf.mul(c0, rf.pow(y, F.p)))))
    return cols


@field_cache
def phi_matrix(F) -> Span:
    """The column span of phi over F_p (:func:`_phi_columns`), kept on F."""
    return colspan(F.p, _phi_columns(F), F.rf.f)


@field_cache
def contains_mu_p(F) -> bool:
    """Whether F contains the p-th roots of unity."""
    p = F.p
    if p == 2:
        return True
    if F.e % (p - 1) != 0:
        return False
    # mu_p in F  <=>  -pi^e/p is a (p-1)st power in the residue field
    rf = F.rf
    x = rf.neg(_pi_e_over_p_residue(F))
    return rf.pow(x, (F.q - 1) // (p - 1)) == rf.one


# ---------------------------------------------------------------------------
# basis of F^x / F^{x p} and coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitClassBasis:
    """Elements of F^x descending to an F_p-basis of F^x / F^{x p}.

    The first element is the uniformizer (tagged with level -1); then
    come blocks of f elements 1 + pi^i u at each prime-to-p level i; if
    mu_p is contained in F there is a final element at the top level
    pe/(p-1).  ``levels`` records the level of each basis element.

    When mu_p is in F, ``top_aug`` is the column span over F_p of phi's
    columns followed by the residue u* of the top element, built once
    for the solves of :func:`p_class_coords`; otherwise it is None.
    """

    field: object
    elems: tuple
    levels: tuple
    top_aug: Span | None

    @property
    def dim(self) -> int:
        return len(self.elems)


@field_cache
def _strip_factors(F):
    """The strip factors of F made so far, by (shift, residue)."""
    return {}


def _strip(F, k, y):
    """[u, 1/u^p, class of u or None] for u = 1 + pi^k lift(y), computed
    once per (F, k, y) and shared by :func:`p_class_coords`,
    :func:`c_alpha` and :func:`class4_vec`; :func:`_root_class` fills in
    the class."""
    strips = _strip_factors(F)
    s = strips.get((k, y))
    if s is None:
        u = F.one() + F.shift(F.lift(y), k)
        s = strips[(k, y)] = [u, F.inv(F.power(u, F.p)), None]
    return s


def _root_class(F, k, y):
    """The class mod squares of the root u of ``_strip(F, k, y)``, read once."""
    s = _strip(F, k, y)
    if s[2] is None:
        s[2] = class_vec(F, s[0], 2)
    return s[2]


def _level_reps(F):
    """Yield (level, element) for the unit-class basis below the top level.

    The uniformizer comes first (level -1), then 1 + pi^i u for each
    prime-to-p level i < pe/(p-1) and each residue lift u, in level
    order.
    """
    p = F.p
    one = F.one()
    yield -1, F.pi()
    lifts = F.residue_lifts()
    for i in range(1, ceil_frac(p * F.e, p - 1)):
        if i % p:
            for u in lifts:
                yield i, one + F.shift(u, i)


@field_cache
def unit_basis(F) -> UnitClassBasis:
    p, e = F.p, F.e
    one = F.one()
    levels, elems = (list(t) for t in zip(*_level_reps(F)))
    top_aug = None
    if contains_mu_p(F):
        # top element 1 + p pi^{e/(p-1)} u* with [u*] outside im(phi)
        ustar = _non_phi_value(F)
        elems.append(one + F.shift(F.mul(F.from_int(p), F.lift(ustar)), e // (p - 1)))
        levels.append((p * e) // (p - 1))
        top_aug = colspan(p, [*_phi_columns(F), F.rf.coords(ustar)], F.rf.f)
    assert p ** len(elems) == quotient_size(F, INF)
    return UnitClassBasis(F, tuple(elems), tuple(levels), top_aug)


def _non_phi_value(F):
    """A residue element outside the image of phi (exists when mu_p in F)."""
    image = phi_matrix(F)
    rf = F.rf
    for j in range(rf.f):
        v = [0] * rf.f
        v[j] = 1
        if image.solve(v) is None:
            return rf.from_coords(v)
    raise ArithmeticError("phi is surjective; no such element")


def _top_digit(F, m1):
    """Residue of m1 / (pi^{e/(p-1)} p), for m1 = m - 1 with
    m = 1 mod pi^{pe/(p-1)}: the digit of m1 at pe/(p-1) times the
    residue of pi^e / p."""
    r = F.digit(m1, (F.p * F.e) // (F.p - 1))
    return F.rf.mul(r, _pi_e_over_p_residue(F))


def p_class_coords(F, alpha) -> tuple:
    """Coordinates of [alpha] in F^x / F^{x p} on the unit-class basis,
    read by the level walk :func:`_class_walk` with no inverse: a level
    prime to p costs at most p - 1 products per residue coordinate, a
    level divisible by p one product with a stored strip factor."""
    return _class_walk(F, alpha)[0]


def _class_walk(F, alpha, roots=None):
    """(coordinates, v, rest m) of the level walk of alpha = pi^v m0.

    Each level's digit is a residue (U^(i)/U^(i+1) is the residue
    field), read off the stored coefficients of m - 1 by ``F.digit``
    with no product, and cleared by products with stored elements, none
    of them inverted:

    * at a level prime to p, each coordinate d of the digit by the
      basis element b of its residue, taken (-d) mod p times: b^(-d)
      would clear the digit too, and the two differ by a p-th power;
    * at a level i = pk below pe/(p-1), a p-th root y of the digit by
      the strip factor 1/u^p, u = 1 + pi^k lift(y) (:func:`_strip`);
    * at the top level pe/(p-1), when (p-1) | e, the digit is
      phi(y) + d u*, d the top coordinate (0 when mu_p is not in F).

    Without ``roots`` the walk ends with the top coordinate.  Given a
    list ``roots``, it appends the (k, y) of each strip, and at the top
    level clears d with the top element and strips y, so that
    m = m0 prod b^((-d) mod p) / prod u^p lies in U^(pe/(p-1)+1).
    Either way it reads no digit past pe/(p-1).
    """
    basis = unit_basis(F)
    p, e = F.p, F.e
    T = (p * e) // (p - 1)
    out = [0] * basis.dim
    alpha = F.normalize_pshift(alpha)
    v = F.val(alpha)
    if v is INF:
        raise ValueError("alpha must be nonzero")
    out[0] = v % p
    m = F.shift(alpha, -v) if v else alpha
    rf = F.rf
    pos = 1  # write position in the coordinate vector
    for i in range(T + 1):
        if i % p != 0:
            lam = rf.coords(F.digit(F.minus_one(m), i))
            for j, lj in enumerate(lam):
                for _ in range(-lj % p):
                    m = F.mul(m, basis.elems[pos + j])
            out[pos : pos + rf.f] = lam
            pos += rf.f
            continue
        if i == T and e % (p - 1) == 0:
            top = basis.top_aug
            if top is None and roots is None:
                break
            r = rf.coords(_top_digit(F, F.minus_one(m)))
            if top is None:  # mu_p is not in F: phi is onto
                *y, d = *phi_matrix(F).solve(r), 0
            else:
                *y, d = top.solve(r)
                out[pos] = d
            if roots is None:
                break
            for _ in range(-d % p):
                m = F.mul(m, basis.elems[pos])
            y = rf.from_coords(y)
        else:
            # p | i, i < pe/(p-1): invisible level, strip a p-th root
            y = rf.pth_root(F.digit(F.minus_one(m), i))
        if not rf.is_zero(y):
            if roots is not None:
                roots.append((i // p, y))
            m = F.mul(m, _strip(F, i // p, y)[1])
    return tuple(out), v, m


def _least_level(F, vec):
    """The least level of a nonzero unit coordinate of the class vector
    ``vec`` (:func:`p_class_coords`), or INF when there is none."""
    return min((lv for lv, d in zip(unit_basis(F).levels[1:], vec[1:]) if d), default=INF)


# ---------------------------------------------------------------------------
# the level c_alpha of a class modulo p-th powers
# ---------------------------------------------------------------------------


def c_alpha(F, alpha):
    """The level c of [alpha] in F^x / F^{x p}, with a p-th-root witness.

    Returns a pair (c, lam).  For a unit alpha, c is the largest i such
    that alpha lies in U^(i) F^{x p} (infinity when alpha is a p-th
    power), and lam satisfies alpha = lam^p modulo pi^c.  When the
    valuation of alpha is not a multiple of p the level is -1 by
    convention.

    Both are read off the walk of :func:`p_class_coords`: c is the least
    level with a nonzero coordinate, and lam is pi^(v/p) times the roots
    the walk strips below c.  The read needs the digits of alpha / pi^v
    up to pe/(p-1).
    """
    p = F.p
    v = F.val(alpha)
    if v is INF:
        raise ValueError("alpha must be nonzero")
    if v % p != 0:
        return -1, F.one()
    roots = []
    c = _least_level(F, _class_walk(F, alpha, roots)[0])
    lam = F.one()
    for k, y in roots:
        if p * k < c:
            lam = F.mul(lam, _strip(F, k, y)[0])
    if v:
        lam = F.mul(lam, F.power(F.pi(), v // p))
    return c, lam


def quad_disc_val(F, vec) -> int:
    """v_F of the discriminant of F(sqrt(delta))/F, for a 2-adic F and a
    non-square delta with square class ``vec`` (:func:`p_class_coords`).

    An odd valuation gives 2e + 1.  Otherwise the unit part has level
    c = :func:`c_alpha`, the least level with a nonzero coordinate: the
    extension is unramified when c = 2e, and has discriminant valuation
    2e - c + 1 when c < 2e.
    """
    if vec[0]:
        return 2 * F.e + 1
    c = _least_level(F, vec)
    if c is INF:
        raise ValueError("the class of a square has no quadratic extension")
    return 0 if c == 2 * F.e else 2 * F.e - c + 1


# ---------------------------------------------------------------------------
# sizes of quotients and filtration steps
# ---------------------------------------------------------------------------


def quotient_size(F, c) -> int:
    """Size of F^x / U^(c) F^{x p} (c = INF gives the full quotient).

    By local class field theory it is the number of characters of
    F^x/F^{x p} of conductor at most c.  The steps
    U^(i) F^{x p} / U^(i+1) F^{x p} have q elements for i < pe/(p-1)
    prime to p, p at i = pe/(p-1) when F contains mu_p, and one
    otherwise; the valuation adds a factor p, and U^(c) F^{x p} is
    F^x for c < 0.
    """
    p, q, e = F.p, F.q, F.e
    ceil_top = ceil_frac(p * e, p - 1)
    if c is INF or c > ceil_top:
        return (p * p if contains_mu_p(F) else p) * q**e
    if c < 0:
        return 1
    return p * q ** (c - 1 - (c - 1) // p)


# ---------------------------------------------------------------------------
# tame class coordinates (ell != p)
# ---------------------------------------------------------------------------


def dlog_mod(F, r, ell: int) -> int:
    """Discrete log of a nonzero residue r modulo ell, for ell | q - 1."""
    rf = F.rf
    k = (F.q - 1) // ell
    xi = rf.pow(r, k)
    eta = rf.pow(rf.generator(), k)
    acc = rf.one
    for j in range(ell):
        if acc == xi:
            return j
        acc = rf.mul(acc, eta)
    raise ArithmeticError("discrete log failed")  # pragma: no cover


def class_dim(F, ell: int) -> int:
    """F_ell-dimension of F^x / F^{x ell} for a rational prime ell."""
    if ell == F.p:
        n = quotient_size(F, INF)
        d = 0
        while n > 1:
            n //= ell
            d += 1
        return d
    return 2 if (F.q - 1) % ell == 0 else 1


def class_vec(F, alpha, ell: int) -> tuple:
    """Coordinates of [alpha] in F^x / F^{x ell}; index 0 is v(alpha) mod ell."""
    if ell == F.p:
        return p_class_coords(F, alpha)
    v = F.val(alpha)
    if v is INF:
        raise ValueError("alpha must be nonzero")
    if (F.q - 1) % ell != 0:
        return (v % ell,)
    u = F.shift(alpha, -v) if v else alpha
    return (v % ell, dlog_mod(F, F.residue(u), ell))


# ---------------------------------------------------------------------------
# square classes, exact square roots, and norm equations
# ---------------------------------------------------------------------------


def square_class_basis(F):
    """Elements whose classes form an F_2-basis of F^x / F^{x 2}."""
    if F.p == 2:
        return list(unit_basis(F).elems)
    return [F.pi(), F.lift(F.rf.generator())]


def basis_product(K, elems, vec):
    """The product in K of the ``elems[j]`` with ``vec[j]`` = 1, taken
    from K.one() in the order of ``elems``."""
    x = K.one()
    for b, c in zip(elems, vec):
        if c:
            x = K.mul(x, b)
    return x


def _rf_sqrt(rf, r):
    """A square root in the residue field, or None."""
    for y in rf.elements():
        if rf.mul(y, y) == r:
            return y
    return None


def sqrt_exact(F, w):
    """A square root of w in F, to working precision.

    Raises ValueError when w is not a square.  For w = pi^(2k) u, u a
    unit, the root is pi^k u z with z = 1/sqrt(u) from
    :func:`_inv_sqrt`: it is the root congruent to the c_alpha (p = 2)
    or residue (p odd) root of u, and it costs one inverse.
    """
    if w.exact:
        return F.zero()
    v, u, z = _inv_sqrt(F, w)
    return F.shift(F.normalize_pshift(F.mul(u, z)), v // 2)


def _inv_sqrt(F, w):
    """(v, u, z) with w = pi^v u, u a unit and z = 1/sqrt(u), for a
    nonzero square w of F; one inverse.

    Newton's step z <- z(3 - u z^2)/2 for 1/sqrt(u) needs no inverse
    (Brent-Zimmermann, *Modern Computer Arithmetic*, 2010, ch. 4): only
    the start, the inverse of a root lam of u to level 2e + 1
    (:func:`c_alpha`, p = 2) or to the residue (p odd), is inverted.
    With t = 1 - u z^2 the next residual has valuation at least
    2(v(t) - v(2)), so the loop stops as soon as that reaches the
    precision of t.  Raises ValueError when w is not a square.
    """
    v = F.val(w)
    if v % 2:
        raise ValueError("valuation is odd; not a square")
    u = F.shift(w, -v) if v else w
    if F.p == 2:
        c, lam = c_alpha(F, u)
        if c is not INF:
            raise ValueError("not a square")
    else:
        r = _rf_sqrt(F.rf, F.residue(u))
        if r is None:
            raise ValueError("not a square")
        lam = F.lift(r)
    z = F.inv(lam)
    one, half = F.one(), F.half()
    v2 = F.e if F.p == 2 else 0
    for _ in range((F.prec + 2 * F.e + 2).bit_length() + 1):
        t = one - F.mul(u, F.mul(z, z))
        z = F.normalize_pshift(z + F.mul(F.mul(z, t), half))
        if F.is_zero(t) or 2 * (F.val(t) - v2) >= t.prec:
            return v, u, z
    raise ArithmeticError("square-root Newton did not converge")  # pragma: no cover


def _norm_walk(E):
    """E's square-class representatives in level order.

    For p = 2 these are the unit-class basis elements below the top
    level, then the top element, whose unit basis is built only when the
    walk reaches it; for p odd, :func:`square_class_basis`.
    """
    if E.p != 2:
        yield from square_class_basis(E)
        return
    for _, b in _level_reps(E):
        yield b
    yield unit_basis(E).elems[-1]


@field_cache
def _norm_image(E):
    """(:func:`norm_class_matrix`, the walked elements of its columns).

    The span's tail has one column per possible walk step, counted by
    ``class_dim(E, 2)`` so that no unit basis of E is built for it."""
    F = E.base
    dim, steps = class_dim(F, 2), class_dim(E, 2)
    span, walked = Span(2, dim, tail=steps), []
    for j, b in enumerate(_norm_walk(E)):
        walked.append(b)
        span.insert([*class_vec(F, E.norm(b), 2), *(int(i == j) for i in range(steps))])
        if span.log == dim - 1:
            return span, tuple(walked)
    raise ArithmeticError("norm image is not a hyperplane")  # pragma: no cover


def norm_class_matrix(E) -> Span:
    """The column span of the image of N_{E/F} in F^x/F^{x2}.

    By local class field theory the norm group of a quadratic E/F has
    index 2 in F^x, so its image is a hyperplane of F^x/F^{x2}.  Column
    j is the class of the norm of the j-th element of E's square-class
    walk (:func:`_norm_walk`), entered with e_j in the tail, and the
    walk stops as soon as the span reaches rank dim - 1: one column per
    walked element, not one per basis element of E.  The span and the
    walked elements are kept on E together (:func:`_norm_image`), so
    :func:`solve_norm_equation` walks E once and eliminates nothing.
    """
    return _norm_image(E)[0]


# lookups of the one cache, as for any field_cache
norm_class_matrix.cache_info = _norm_image.cache_info


def solve_norm_equation(E, alpha):
    """An element beta of E with N_{E/F}(beta) = alpha, or None.

    A solve on the span of :func:`norm_class_matrix` finds beta, a
    product of the walked elements its columns come from, up to a square
    of F.  The square w = alpha N(beta) is then removed exactly:
    beta alpha / sqrt(w) has norm alpha, and :func:`_inv_sqrt` gives
    1/sqrt(w) = pi^(-v/2) z with one inverse of F.
    """
    F = E.base
    alpha = F.coerce(alpha)
    span, walked = _norm_image(E)
    x = span.solve(class_vec(F, alpha, 2))
    if x is None:
        return None
    beta = basis_product(E, walked, x)
    v, _, z = _inv_sqrt(F, F.mul(alpha, E.norm(beta)))
    return E.normalize_pshift(E.mul(beta, E.embed(F.shift(F.mul(alpha, z), -(v // 2)))))


# ---------------------------------------------------------------------------
# classes modulo fourth powers (p = 2)
# ---------------------------------------------------------------------------


def class4_vec(F, x) -> tuple:
    """Coordinates over Z/4 of [x] in G = F^x/F^{x4}, for a 2-adic F.

    The unit-class basis b_j generates G, and G = (Z/4)^r / <2c(-1)>,
    c the square class: the sign of a square root is the one relation,
    trivial when -1 is a square.

    No root is taken: the walk of :func:`p_class_coords` reads c = c(x)
    and leaves m = x pi^(-v) prod b_j^(c_j) / prod u^2 in U^(2e+1), the
    u being its strip roots.  Squaring maps U^(i) onto U^(i+e) for i > e
    (Serre, *Local Fields*, ch. XIV), so the walk goes on: the digit d
    of m at a level 2e < i <= 3e is that of u^2, u = 1 + pi^(i-e) y with
    y = d res(pi^e/2), which strips it.  What is left lies in U^(3e+1),
    which consists of fourth powers, so x = pi^v prod b_j^(-c_j) (prod u)^2
    modulo fourth powers, and [x] = (v, -c_1, ..., -c_r) + 2 sum c(u)
    mod 4, with each c(u) kept on F (:func:`_root_class`).  The read
    takes no inverse and needs 3e + 1 known relative digits.
    """
    roots = []
    c, v, m = _class_walk(F, x, roots)
    e, rf = F.e, F.rf
    for i in range(2 * e + 1, 3 * e + 1):
        y = rf.mul(F.digit(F.minus_one(m), i), _pi_e_over_p_residue(F))
        if not rf.is_zero(y):
            roots.append((i - e, y))
            m = F.mul(m, _strip(F, i - e, y)[1])
    cu = [_root_class(F, k, y) for k, y in roots]
    return tuple((a + 2 * sum(b)) % 4 for a, *b in zip((v, *(-a for a in c[1:])), *cu))


@field_cache
def level_classes4(F) -> tuple:
    """(j, class4_vec of 1 + theta pi^j) for theta in ``F.residue_lifts()``
    and 1 <= j <= 3e, for a 2-adic F.

    The image of U^(c) in F^x/F^{x4} is spanned by the entries with
    j >= c: U^(j) lies in F^{x4} for j > 3e (squaring maps U^(i) onto
    U^(i+e) for i > e), and U^(0) = U^(1) modulo fourth powers.  For odd
    j < 2e the element is a basis element, whose class is a unit vector.
    """
    basis = unit_basis(F)
    one, lifts = F.one(), F.residue_lifts()
    out = []
    for j in range(1, 3 * F.e + 1):
        if j % 2 and j < 2 * F.e:
            at = [k for k, lv in enumerate(basis.levels) if lv == j]
            out.extend((j, tuple(int(i == k) for i in range(basis.dim))) for k in at)
        else:
            out.extend((j, class4_vec(F, one + F.shift(t, j))) for t in lifts)
    return tuple(out)


@dataclass(frozen=True)
class FiltrationProfile:
    """The filtration of a finitely generated subgroup of F^x / F^{x p}.

    ``n`` is p; ``group_size`` is the order of the subgroup Abar
    generated by the given classes; ``sizes[t]`` is the order of its
    intersection with the image of U^(t) F^{x p}, for t = 0 upward.
    Beyond the stored range every level-t subgroup is trivial, and
    level -1 is the whole group (U^(-1) = F^x by convention).
    """

    n: int
    group_size: int
    sizes: tuple

    def size_at(self, t: int) -> int:
        if t < 0:
            return self.group_size
        if t < len(self.sizes):
            return self.sizes[t]
        return 1


def filtration_profile(F, gens, n: int) -> FiltrationProfile:
    """Filtration data for the subgroup generated by ``gens`` mod p-th
    powers, n = p the residue characteristic (else ``ValueError``).

    Each generator's class vector is read once; in those coordinates the
    image of U^(t) F^{x p} is the coordinate subspace of the unit-class
    basis levels >= t, so |Abar_t| is p to the corank, on the span of
    the generators, of the rows below level t: the levels ascend, so one
    echelon (:class:`Span`) takes the rows in turn and is read after
    each level.
    """
    if n != F.p:
        raise ValueError(f"profiles are of p-th power classes: n = {n}, p = {F.p}")
    return class_profile(F, [p_class_coords(F, F.coerce(g)) for g in gens])


def class_profile(F, vecs) -> FiltrationProfile:
    """:func:`filtration_profile` of the subgroup whose generators have
    the class vectors ``vecs`` mod p-th powers (entries are read mod p)."""
    p = F.p
    top = ceil_frac(p * F.e, p - 1)
    span, low = Span(p, len(vecs)), []
    for i, lv in enumerate(unit_basis(F).levels):
        while len(low) <= min(lv, top):
            low.append(span.log)
        span.insert([v[i] for v in vecs])
    low += [span.log] * (top + 1 - len(low))
    full = span.log
    return FiltrationProfile(p, p**full, tuple(p ** (full - x) for x in low))
