"""Structure of F^x modulo prime-power classes for p-adic fields F.

The central object is the quotient F^x / F^{x ell} for a rational prime
ell.  When ell differs from the residue characteristic p the quotient is
tame and tiny; when ell = p it is governed by the unit filtration
U^(i) = 1 + pi^i O and the wild "level" c_alpha of a unit, computed by a
digit-by-digit reduction.  Everything here works uniformly over the base
fields and the relative quadratic extensions from :mod:`etmass.padic`,
because only the generic element interface is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .fplinalg import FpMatrix, in_colspan
from .fplinalg import rank as fp_rank
from .padic import INF, is_prime


def ceil_frac(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# the residue map phi and roots of unity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pi_e_over_p_residue(F):
    """Residue of pi^e / p, a unit of O_F (e the absolute ramification)."""
    x = F.mul(F.power(F.pi(), F.e), F.inv(F.from_int(F.p)))
    return F.residue(x)


@lru_cache(maxsize=None)
def phi_matrix(F) -> FpMatrix:
    """Matrix of y |-> y + (pi^e/p) * y^p on the residue field over F_p.

    Only meaningful when (p-1) | e, which is when the map is ever used.
    """
    rf = F.rf
    c0 = _pi_e_over_p_residue(F)
    cols = []
    for j in range(rf.f):
        v = [0] * rf.f
        v[j] = 1
        y = rf.from_coords(v)
        img = rf.add(y, rf.mul(c0, rf.pow(y, F.p)))
        cols.append(rf.coords(img))
    return FpMatrix(F.p, np.array(cols, dtype=np.int64).T)


def phi_preimage(F, r):
    """A residue element y with phi(y) = r, or None if r is not a value."""
    sol = in_colspan(phi_matrix(F), np.array(F.rf.coords(r), dtype=np.int64))
    if sol is None:
        return None
    return F.rf.from_coords([int(c) for c in sol])


@lru_cache(maxsize=None)
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
# the level c_alpha of a class modulo p-th powers
# ---------------------------------------------------------------------------


def c_alpha(F, alpha):
    """The level c of [alpha] in F^x / F^{x p}, with a p-th-root witness.

    Returns a pair (c, lam).  For a unit alpha, c is the largest i such
    that alpha lies in U^(i) F^{x p} (infinity when alpha is a p-th
    power), and lam satisfies alpha = lam^p modulo pi^c.  When the
    valuation of alpha is not a multiple of p the level is -1 by
    convention.
    """
    p = F.p
    v = F.val(alpha)
    if v is INF:
        raise ValueError("alpha must be nonzero")
    if v % p != 0:
        return -1, F.one()
    if v == 0:
        return _c_alpha_unit(F, alpha)
    m = F.shift(alpha, -v)
    c, lam = _c_alpha_unit(F, m)
    return c, F.mul(lam, F.power(F.pi(), v // p))


def _c_alpha_unit(F, m):
    p, e = F.p, F.e
    T = (p * e) // (p - 1)
    top_exact = e % (p - 1) == 0
    one = F.one()
    lam = one
    for i in range(T + 1):
        if i % p != 0:
            if F.congruent(m, one, i + 1):
                continue
            return i, lam
        if top_exact and i == T:
            r = _top_digit(F, m)
            y = phi_preimage(F, r)
            if y is None:
                return T, lam
            if not F.rf.is_zero(y):
                u = one + F.shift(F.lift(y), i // p)
                lam = F.mul(lam, u)
                m = F.mul(m, F.inv(F.power(u, p)))
            continue
        # p | i and i < pe/(p-1): strip one wild digit by a p-th root
        r = F.digit(m - one, i)
        y = F.rf.pth_root(r)
        if not F.rf.is_zero(y):
            u = one + F.shift(F.lift(y), i // p)
            lam = F.mul(lam, u)
            m = F.mul(m, F.inv(F.power(u, p)))
    return INF, lam


def _top_digit(F, m):
    """Residue of (m - 1) / (pi^{e/(p-1)} p), for m = 1 mod pi^{pe/(p-1)}."""
    t = F.shift(m - F.one(), -(F.e // (F.p - 1)))
    return F.residue(F.mul(t, F.inv(F.from_int(F.p))))


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
    """

    field: object
    elems: tuple
    levels: tuple

    @property
    def dim(self) -> int:
        return len(self.elems)


@lru_cache(maxsize=None)
def unit_basis(F) -> UnitClassBasis:
    p, e = F.p, F.e
    ceil_top = ceil_frac(p * e, p - 1)
    one = F.one()
    elems = [F.pi()]
    levels = [-1]
    lifts = F.residue_lifts()
    for i in range(1, ceil_top):
        if i % p == 0:
            continue
        pik = F.power(F.pi(), i)
        for u in lifts:
            elems.append(one + F.mul(pik, u))
            levels.append(i)
    if contains_mu_p(F):
        # top element 1 + p pi^{e/(p-1)} u* with [u*] outside im(phi)
        ustar = _non_phi_value(F)
        top = one + F.mul(
            F.mul(F.from_int(p), F.power(F.pi(), e // (p - 1))), F.lift(ustar)
        )
        elems.append(top)
        levels.append((p * e) // (p - 1))
    assert p ** len(elems) == quotient_size(F, INF)
    return UnitClassBasis(F, tuple(elems), tuple(levels))


def _non_phi_value(F):
    """A residue element outside the image of phi (exists when mu_p in F)."""
    M = phi_matrix(F)
    rf = F.rf
    for j in range(rf.f):
        v = np.zeros(rf.f, dtype=np.int64)
        v[j] = 1
        if in_colspan(M, v) is None:
            coords = [0] * rf.f
            coords[j] = 1
            return rf.from_coords(coords)
    raise ArithmeticError("phi is surjective; no such element")


def p_class_coords(F, alpha) -> np.ndarray:
    """Coordinates of [alpha] in F^x / F^{x p} on the unit-class basis."""
    basis = unit_basis(F)
    p, e = F.p, F.e
    T = (p * e) // (p - 1)
    top_exact = e % (p - 1) == 0
    has_top = basis.levels[-1] == T and top_exact and contains_mu_p(F)
    out = np.zeros(basis.dim, dtype=np.int64)
    alpha = F.normalize_pshift(alpha)
    v = F.val(alpha)
    if v is INF:
        raise ValueError("alpha must be nonzero")
    out[0] = v % p
    m = F.shift(alpha, -v) if v else alpha
    one = F.one()
    rf = F.rf
    lifts = F.residue_lifts()
    pos = 1  # write position in the coordinate vector
    for i in range(T + 1):
        if i % p != 0:
            if i >= ceil_frac(p * e, p - 1):
                break
            r = F.digit(m - one, i)
            lam = rf.coords(r)
            if any(lam):
                pik = F.power(F.pi(), i)
                prod = one
                for j, lj in enumerate(lam):
                    if lj:
                        prod = F.mul(prod, F.power(one + F.mul(pik, lifts[j]), lj))
                m = F.mul(m, F.inv(prod))
            out[pos : pos + rf.f] = lam
            pos += rf.f
            continue
        if top_exact and i == T:
            if not has_top:
                break
            r = _top_digit(F, m)
            ustar = F.rf.coords(F.residue(F.lift(_non_phi_value(F))))
            aug = FpMatrix(
                p,
                np.hstack(
                    [
                        phi_matrix(F).arr,
                        np.array(ustar, dtype=np.int64).reshape(-1, 1),
                    ]
                ),
            )
            sol = in_colspan(aug, np.array(rf.coords(r), dtype=np.int64))
            if sol is None:  # pragma: no cover - phi + u* spans everything
                raise ArithmeticError("top-level digit not decomposable")
            out[pos] = int(sol[-1])
            break
        # p | i, i < pe/(p-1): invisible level, strip a p-th root
        r = F.digit(m - one, i)
        y = rf.pth_root(r)
        if not rf.is_zero(y):
            u = one + F.shift(F.lift(y), i // p)
            m = F.mul(m, F.inv(F.power(u, p)))
    return out


# ---------------------------------------------------------------------------
# sizes of quotients and filtration steps
# ---------------------------------------------------------------------------


def quotient_size(F, c) -> int:
    """Size of F^x / U^(c) F^{x p} (c = INF gives the full quotient)."""
    p, q, e = F.p, F.q, F.e
    ceil_top = ceil_frac(p * e, p - 1)
    if c is INF or c > ceil_top:
        return (p * p if contains_mu_p(F) else p) * q**e
    if c < 0:
        return 1
    return p * q ** (c - 1 - (c - 1) // p)


def w_size(F, i) -> int:
    """Size of the graded piece U^(i)F^{xp}/U^(i+1)F^{xp} of the filtration."""
    p, e = F.p, F.e
    if i % p != 0 and Fraction(i) < Fraction(p * e, p - 1):
        return F.q
    if e % (p - 1) == 0 and i == (p * e) // (p - 1) and contains_mu_p(F):
        return p
    return 1


# ---------------------------------------------------------------------------
# tame class coordinates (ell != p) and stratified generating sets
# ---------------------------------------------------------------------------


def residue_generator(F):
    """A generator of the multiplicative group of the residue field."""
    return F.rf.generator()


def dlog_mod(F, r, ell: int) -> int:
    """Discrete log of a nonzero residue r modulo ell, for ell | q - 1."""
    rf = F.rf
    k = (F.q - 1) // ell
    xi = rf.pow(r, k)
    eta = rf.pow(residue_generator(F), k)
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


def class_vec(F, alpha, ell: int) -> np.ndarray:
    """Coordinates of [alpha] in F^x / F^{x ell}; index 0 is v(alpha) mod ell."""
    if ell == F.p:
        return p_class_coords(F, alpha)
    v = F.val(alpha)
    if v is INF:
        raise ValueError("alpha must be nonzero")
    if (F.q - 1) % ell != 0:
        return np.array([v % ell], dtype=np.int64)
    u = F.shift(alpha, -v) if v else alpha
    return np.array([v % ell, dlog_mod(F, F.residue(u), ell)], dtype=np.int64)


@dataclass(frozen=True)
class StratGens:
    """A stratified generating set for the image of <gens> in F^x/F^{x ell}.

    ``A0`` are the generators of valuation 0, ``A1`` those of valuation 1
    (at most one).  ``mat`` has the class vectors of A0 + A1 as columns;
    its rank is the number of generators.
    """

    field: object
    ell: int
    A0: tuple
    A1: tuple
    mat: FpMatrix

    @property
    def rank(self) -> int:
        return self.mat.cols

    @property
    def group_size(self) -> int:
        return self.ell**self.rank

    def is_trivial(self) -> bool:
        return self.rank == 0


def strat_gens(F, gens, ell: int) -> StratGens:
    """Build a stratified generating set from arbitrary nonzero elements.

    Gaussian elimination on class vectors (valuation coordinate first)
    keeps track of actual field elements, so the output elements have
    the exact classes of the reduced basis.  Each output element is then
    moved within its class to valuation 0, except the at-most-one
    element whose valuation is prime to ell, which is moved to
    valuation 1.
    """
    pivots = []  # (element, vector, pivot column)
    pi = F.pi()
    for g in gens:
        g = F.coerce(g)
        # slide to the least nonnegative valuation in the class, so the
        # reduction products below stay inside the precision window
        v = F.val(g)
        if v != v % ell:
            g = F.normalize_pshift(F.shift(g, v % ell - v))
        vec = class_vec(F, g, ell) % ell
        elt = g
        for pe_elt, pv, pc in pivots:
            c = int(vec[pc])
            if c:
                vec = (vec - c * pv) % ell
                elt = F.mul(elt, F.power(pe_elt, ell - c))
        nz = np.flatnonzero(vec)
        if nz.size == 0:
            continue
        pc = int(nz[0])
        s = pow(int(vec[pc]), -1, ell)
        if s != 1:
            elt = F.power(elt, s)
            vec = (s * vec) % ell
        # normalize the valuation immediately: 1 on the uniformizer
        # pivot, 0 on unit pivots
        v = F.val(elt)
        want = 1 if pc == 0 else 0
        assert (v - want) % ell == 0
        if v != want:
            elt = F.normalize_pshift(F.shift(elt, want - v))
        pivots.append((elt, vec, pc))
    A0, A1 = [], []
    for elt, vec, pc in pivots:
        (A1 if pc == 0 else A0).append(elt)
    order = A0 + A1
    mat = FpMatrix(
        ell,
        np.array([class_vec(F, e_, ell) % ell for e_ in order], dtype=np.int64).T
        if order
        else np.zeros((class_dim(F, ell), 0), dtype=np.int64),
    )
    return StratGens(F, ell, tuple(A0), tuple(A1), mat)


# ---------------------------------------------------------------------------
# square classes, exact square roots, and norm equations
# ---------------------------------------------------------------------------


def square_class_basis(F):
    """Elements whose classes form an F_2-basis of F^x / F^{x 2}."""
    if F.p == 2:
        return list(unit_basis(F).elems)
    return [F.pi(), F.lift(residue_generator(F))]


def _rf_sqrt(rf, r):
    """A square root in the residue field, or None."""
    for y in rf.elements():
        if rf.mul(y, y) == r:
            return y
    return None


def sqrt_exact(F, w):
    """A square root of w in F, to working precision.

    Raises ValueError when w is not a square.  The unit part is refined
    by Newton iteration from a residue-level (p odd) or p-th-root-level
    (p = 2) approximation.
    """
    v = F.val(w)
    if v is INF:
        return F.zero()
    if v % 2:
        raise ValueError("valuation is odd; not a square")
    u = F.shift(w, -v) if v else w
    if F.p == 2:
        c, lam = c_alpha(F, u)
        if c is not INF:
            raise ValueError("not a square")
        y = lam
    else:
        r = _rf_sqrt(F.rf, F.residue(u))
        if r is None:
            raise ValueError("not a square")
        y = F.lift(r)
    two_inv = F.inv(F.from_int(2))
    steps = 1
    while (1 << steps) < F.prec + 2 * F.e + 2:
        steps += 1
    for _ in range(steps + 1):
        y = F.normalize_pshift(F.mul(F.add(y, F.mul(u, F.inv(y))), two_inv))
    return F.shift(y, v // 2)


@lru_cache(maxsize=None)
def norm_class_matrix(E) -> FpMatrix:
    """Matrix of the norm-induced map E^x/E^{x2} -> F^x/F^{x2}.

    Columns are the classes of the norms of a square-class basis of E.
    Its column span is the image of the norm group, which has index 2
    in F^x/F^{x2} by local class field theory.
    """
    F = E.base
    cols = [class_vec(F, E.norm(b), 2) for b in square_class_basis(E)]
    return FpMatrix(2, np.array(cols, dtype=np.int64).T)


def norm_class_contains(E, alpha) -> bool:
    """Whether alpha in F^x is a norm from the quadratic extension E."""
    F = E.base
    v = class_vec(F, F.coerce(alpha), 2)
    return in_colspan(norm_class_matrix(E), v) is not None


def solve_norm_equation(E, alpha):
    """An element beta of E with N_{E/F}(beta) = alpha, or None.

    Linear algebra over F_2 finds beta up to a square of F; the square
    is then removed exactly with :func:`sqrt_exact`.
    """
    F = E.base
    alpha = F.coerce(alpha)
    x = in_colspan(norm_class_matrix(E), class_vec(F, alpha, 2))
    if x is None:
        return None
    beta = E.one()
    for b, c in zip(square_class_basis(E), x):
        if c:
            beta = E.mul(beta, b)
    w = F.mul(E.norm(beta), F.inv(alpha))
    s = sqrt_exact(F, w)
    return E.normalize_pshift(E.mul(beta, E.inv(E.embed(s))))


@dataclass(frozen=True)
class FiltrationProfile:
    """The filtration of a finitely generated subgroup of F^x / F^{x n}.

    ``group_size`` is the order of the subgroup Abar generated by the
    given classes; ``sizes[t]`` is the order of its intersection with
    the image of U^(t) F^{x n}, for t = 0 upward.  Beyond the stored
    range every level-t subgroup is trivial, and level -1 is the whole
    group (U^(-1) = F^x by convention).
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

    def is_trivial(self) -> bool:
        return self.group_size == 1


def filtration_profile(F, gens, n: int) -> FiltrationProfile:
    """Filtration data for the subgroup generated by ``gens`` mod n-th powers.

    Supports prime n.  For n equal to the residue characteristic the
    unit filtration is computed on the unit-class basis; for tame n the
    principal units are all n-th powers, so only the level-0 unit part
    survives.
    """
    if not is_prime(n):
        raise ValueError(f"n = {n} is not prime")
    s = strat_gens(F, gens, n)
    if n == F.p:
        return FiltrationProfile(n, s.group_size, tuple(abar_p_filtration_sizes(F, s)))
    return FiltrationProfile(n, s.group_size, (n ** len(s.A0), 1))


def abar_p_filtration_sizes(F, strat: StratGens):
    """Sizes of Abar^p_c for c = 0, ..., ceil(pe/(p-1)).

    Abar^p_c is the intersection of the subgroup generated by the given
    classes with the image of U^(c) F^{x p}.  In unit-basis coordinates
    the latter is the coordinate subspace of levels >= c, so the size is
    p to the corank of the low-level rows on the generator span.
    """
    p, e = F.p, F.e
    if strat.ell != p:
        raise ValueError("filtration sizes only defined for ell = p")
    levels = unit_basis(F).levels
    B = strat.mat
    full = fp_rank(B)
    sizes = []
    for c in range(ceil_frac(p * e, p - 1) + 1):
        rows = [j for j, lev in enumerate(levels) if lev < c]
        sub = FpMatrix(p, B.arr[rows, :]) if B.cols else None
        low_rank = fp_rank(sub) if sub is not None else 0
        sizes.append(p ** (full - low_rank))
    return sizes
