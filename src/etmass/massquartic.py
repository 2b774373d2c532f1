"""Quartic pre-masses with a prescribed norm subgroup.

For an odd residue characteristic every quartic etale algebra is tame
and the five constrained splitting symbols have short closed forms,
driven by stratified generating sets of the image of the constraint
group in F^x/F^{x2} and F^x/F^{x4}.  Over a 2-adic field the three
wild symbols (1^2 1^2), (2^2) and (1^4) are computed per Galois
closure group from discriminant-layer counts.  The C4 layers need the
norm-class sets N_{E,c} of the quadratic subextensions E, computed
here by two independent algorithms (brute enumeration of square
classes and F_2 subspace arithmetic) on top of quadratic Hilbert
symbols, plus a minimal-discriminant cyclic quartic extender omega of
each E, produced in the hard small-discriminant case by an explicit
nine-step construction.  Whether a generator is a norm from the cyclic
quartic E(sqrt(omega)) is the symbol (beta, omega)_E, computed from
quadratic Hilbert symbols over F alone, so no quartic field is built.

Each quadratic E is built at most once per F: a table kept on F maps
the square class of d, as a bitmask over the square-class basis, to E,
and the Hilbert Gram matrix, both ``counts_14`` sweeps and ``counts_22``
take E from it.  E keeps its mask, its norm image and its omega, which
does not depend on the generators, so a second ``premass4`` on the same
F with other generators builds no E and pays only for the signs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd

from .fplinalg import FpMatrix, in_colspan
from .fplinalg import rank as fp_rank
from .massprime import MassReport, count_Cp
from .padic import GuardError, disc_val_quadratic, field_cache, quad_extend
from .unitgroups import (
    c_alpha,
    class_vec,
    dlog_mod,
    filtration_profile,
    norm_class_matrix,
    p_class_coords,
    solve_norm_equation,
    square_class_basis,
    strat_gens,
    unit_basis,
)

__all__ = [
    "hilbert2",
    "choose_omega",
    "omega_small_disc",
    "OmegaState",
    "NormClassSet",
    "nec_sizes",
    "counts_1212",
    "counts_22",
    "counts_14",
    "counts_12E_C4",
    "premass4_tame",
    "tame_coefficients",
    "premass4_wild",
    "premass4",
]


# ---------------------------------------------------------------------------
# quadratic Hilbert symbols
# ---------------------------------------------------------------------------


@field_cache
def _quad_table(F):
    """The quadratic extensions of F built so far, by square-class mask."""
    return {}


def _quad_of_class(F, mask):
    """E = F(sqrt(d)), d the product of the elements of
    :func:`square_class_basis` whose bits are set in ``mask``.

    Each E is built once per (F, mask) and kept on F, so the Gram
    matrix, both ``counts_14`` sweeps and ``counts_22`` share it and its
    cached structure (norm image, omega).  ``E.dmask`` is the mask,
    which is the class vector of d as a bitmask.
    """
    table = _quad_table(F)
    E = table.get(mask)
    if E is None:
        basis = square_class_basis(F)
        d = reduce(F.mul, [b for j, b in enumerate(basis) if mask >> j & 1])
        E = table[mask] = quad_extend(F, d)
        E.dmask = mask
    return E


@field_cache
def _hilbert_gram(F):
    """Gram matrix of the Hilbert pairing on a square-class basis.

    Entry (i, j) is the F_2 exponent of (b_i, b_j)_F, i.e. 1 exactly
    when b_i is *not* a norm from F(sqrt(b_j)): when the unit vector
    e_i, the class of b_i, is outside the norm image of E_j.  The
    pairing is symmetric and bilinear, so this matrix determines every
    symbol.  Returned as a tuple of row tuples.
    """
    dim = len(square_class_basis(F))
    units = [tuple(int(i == k) for k in range(dim)) for i in range(dim)]
    cols = []
    for j in range(dim):
        N = norm_class_matrix(_quad_of_class(F, 1 << j))
        cols.append(tuple(0 if in_colspan(N, ei) is not None else 1 for ei in units))
    H = tuple(zip(*cols))
    assert H == tuple(cols), "Hilbert pairing must be symmetric"
    return H


@field_cache
def _minus_one_class(F):
    """The square-class vector of -1, read once per field."""
    return class_vec(F, F.from_int(-1), 2)


def _gram_apply(F, v):
    """The F_2 vector H v for the Hilbert Gram matrix H of F."""
    return tuple(sum(h * x for h, x in zip(row, v)) % 2 for row in _hilbert_gram(F))


def _hilbert_exp(F, va, vb) -> int:
    """The F_2 exponent of (a, b)_F, from the class vectors of a and b."""
    return sum(x * y for x, y in zip(va, _gram_apply(F, vb))) % 2


def hilbert2(F, a, b) -> int:
    """The quadratic Hilbert symbol (a, b)_F, returned as +1 or -1."""
    va = class_vec(F, F.coerce(a), 2)
    vb = class_vec(F, F.coerce(b), 2)
    return -1 if _hilbert_exp(F, va, vb) else 1


def _bitmask(v) -> int:
    """An F_2 vector as an int, bit j for coordinate j."""
    return sum(1 << j for j, c in enumerate(v) if c)


def _symbol_masks(F, gens):
    """For a = -1 and each a in ``gens``, the row H v_a as a bitmask:
    (a, d)_F = -1 exactly when it shares an odd number of bits with the
    class vector of d."""
    vecs = [_minus_one_class(F)] + [class_vec(F, F.coerce(a), 2) for a in gens]
    return [_bitmask(_gram_apply(F, v)) for v in vecs]


def _all_symbols_trivial(masks, dmask) -> bool:
    """Whether (a, d)_F = +1 for every a, given the masks of the a and
    the class vector of d as a bitmask."""
    return not any((m & dmask).bit_count() % 2 for m in masks)


@field_cache
def _cyclic_extendable(E) -> bool:
    """Whether -1 is a norm from the quadratic E/F, i.e. whether E has a
    cyclic quartic extension of F; computed once per E.

    (-1, d)_F is read off the Gram row of -1 and the class of d, which
    an E from :func:`_quad_of_class` carries as its mask."""
    F = E.base
    dmask = getattr(E, "dmask", None)
    if dmask is None:
        dmask = _bitmask(class_vec(F, F.coerce(E.d), 2))
    return _all_symbols_trivial(_symbol_masks(F, ()), dmask)


# ---------------------------------------------------------------------------
# cyclic quartic extenders omega of a quadratic extension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OmegaState:
    """Intermediate values of the small-discriminant omega construction.

    Returned by ``omega_small_disc(..., with_state=True)`` so that tests
    can restate the nine-step invariants independently of the asserts
    inside the construction.
    """

    d: object
    a: object
    b: object
    omega: object
    lam: object
    omega1: object
    omega2: object
    lam2: object
    r2: object
    s2: object
    q: object
    n: object
    output: object


def omega_small_disc(F, E, with_state: bool = False):
    """A unit omega in E with E(sqrt(omega)) cyclic quartic over F and
    v_E of its relative discriminant equal to 3 m1 - 2.

    Applies to a ramified quadratic E/F of even discriminant valuation
    m1 <= e_F over a 2-adic base.  The element is built by an explicit
    nine-step procedure whose step invariants are asserted throughout.
    """
    if F.p != 2:
        raise ValueError("only defined over 2-adic fields")
    if E.kind != "ramified":
        raise ValueError("E must be ramified")
    m1 = E.disc_val
    e = F.e
    if m1 % 2 != 0 or m1 > e:
        raise ValueError("requires even discriminant valuation m1 <= e_F")

    # step 1-3: E = F(sqrt(d)) with v_F(d) = m1, and a uniformizer
    # rho = (a + sqrt(d))/2 of E with rho^2 = a rho + b, v(a) = m1/2,
    # v(b) = 1.  The constructor of E already stores such a and b.
    a, b = E.a, E.b
    d = F.normalize_pshift(a * a + 4 * b)
    assert F.val(a) == m1 // 2 and F.val(b) == 1 and F.val(d) == m1
    rho = E.rho()

    # step 4: a unit omega with N(omega) in d F^{x2}
    beta = solve_norm_equation(E, d)
    assert beta is not None, "d is a norm from E = F(sqrt(d))"
    vb_ = E.val(beta)
    assert vb_ == m1 and vb_ % 2 == 0
    omega = E.normalize_pshift(E.shift(beta, -vb_))

    # step 5: lam with N(omega) = lam^2 mod pi^(2e+1-m1)
    c, lam = c_alpha(F, E.norm(omega))
    assert c == 2 * e + 1 - m1
    assert F.congruent(E.norm(omega), F.mul(lam, lam), 2 * e + 1 - m1)

    # step 6: adjust so that omega1 = lam mod p_E^(m1)
    lamE = E.embed(lam)
    v6 = E.val(omega - lamE)
    assert v6 >= m1 - 1
    if v6 >= m1:
        omega1 = omega
    else:
        omega1 = E.normalize_pshift(E.shift(E.mul(omega, E.embed(b)), -2))

    # step 7: push the conjugate gap to exactly 2 m1
    v7 = E.val(omega1 - E.conj(omega1))
    assert v7 >= 2 * m1
    if v7 == 2 * m1:
        omega2, lam2 = omega1, lam
    else:
        opr = E.one() + rho
        omega2 = E.normalize_pshift(E.mul(omega1, E.mul(opr, opr)))
        lam2 = F.normalize_pshift(lam * (F.one() + a - b))
    assert E.congruent(omega2, E.embed(lam2), m1)

    # step 8: coordinates omega2 = r2 + s2 rho and the correctors
    r2, s2 = omega2.data
    assert F.val(s2) == m1 // 2
    qq = F.normalize_pshift((r2 - lam2) / s2)
    nn = F.normalize_pshift((qq * qq + b) / r2)

    # step 9: the small-discriminant representative
    g = E.add(E.embed(qq), rho)
    out = E.normalize_pshift(E.mul(E.mul(omega2, E.embed(nn)), E.inv(E.mul(g, g))))
    assert E.congruent(out, E.one(), 4 * e + 3 - 3 * m1)
    assert disc_val_quadratic(E, out) == 3 * m1 - 2
    assert p_class_coords(F, E.norm(out)) == p_class_coords(F, d), (
        "norm class of omega must be the class of d"
    )

    if with_state:
        return OmegaState(d, a, b, omega, lam, omega1, omega2, lam2, r2, s2, qq, nn, out)
    return out


def choose_omega(F, E):
    """A minimal-discriminant omega in E^x with E(sqrt(omega))/F cyclic.

    Raises ValueError when E has no cyclic quartic extension of F,
    i.e. when -1 is not a norm from E.  omega depends on E alone, not
    on any generators, so it is computed once per E and kept on it.
    """
    if F.p != 2:
        raise ValueError("only defined over 2-adic fields")
    if not _cyclic_extendable(E):
        raise ValueError("E admits no cyclic quartic extension of F")
    return _omega(E)


@field_cache
def _omega(E):
    """:func:`choose_omega` for a cyclic-extendable E."""
    F = E.base
    d = F.coerce(E.d)
    e = F.e
    m1 = E.disc_val
    if E.kind == "unramified":
        # the top unit class of E defines its unramified quadratic,
        # which is the unramified quartic of F: cyclic, discriminant 0
        omega = unit_basis(E).elems[-1]
        expected = 0
    elif m1 % 2 == 0 and m1 <= e:
        omega = omega_small_disc(F, E)
        expected = 3 * m1 - 2
    else:
        # every extender has relative discriminant valuation m1 + 2e,
        # so sliding a norm preimage of d to a unit (or uniformizer
        # times unit) by an even power of the uniformizer suffices
        beta = solve_norm_equation(E, d)
        assert beta is not None
        v = E.val(beta)
        omega = E.normalize_pshift(E.shift(beta, -(v - v % 2)))
        expected = m1 + 2 * e
    assert disc_val_quadratic(E, omega) == expected
    assert p_class_coords(F, E.norm(omega)) == p_class_coords(F, d)
    return omega


def omega_norm_signs(E, omega, gens4):
    """For each generator alpha: is alpha a norm from E(sqrt(omega))/F?

    alpha is a norm from the cyclic quartic M = E(sqrt(omega)) exactly
    when some, and then every, beta in E with N_{E/F}(beta) = alpha is a
    norm from M/E, i.e. when (beta, omega)_E = 1.  That symbol is read
    from symbols over F (:func:`_tower_symbol`), so M is never built.
    The omega side of the symbols is read once for all generators, and
    only when some beta needs it.
    """
    F = E.base
    betas = [solve_norm_equation(E, F.coerce(alpha)) for alpha in gens4]
    side = None
    if any(b is not None and not b.data[1].exact for b in betas):
        side = _omega_side(E, omega)
    return tuple(b is not None and _tower_symbol(E, b, omega, side) == 0 for b in betas)


def _omega_side(E, omega):
    """(A2, class of f(A2), class of c2) for omega = c2 (A2 - rho): what
    :func:`_tower_symbol` reads of omega when beta is not in F."""
    F = E.base
    w0, w1 = omega.data
    c2 = -w1
    A2 = w0 / c2
    return A2, class_vec(F, A2 * (A2 - E.a) - E.b, 2), class_vec(F, c2, 2)


def _tower_symbol(E, beta, omega, side=None) -> int:
    """The F_2 exponent of (beta, omega)_E, from symbols over F.

    Write x = x0 + x1 rho as c (A - rho) with c = -x1, A = -x0/x1, so
    N(A - rho) = f(A) for f(X) = X^2 - aX - b, the minimal polynomial
    of rho.  The projection formula (c, y)_E = (c, N y)_F for c in F and
    the Steinberg relation on A1 - rho and A2 - rho (Rosset-Tate,
    Comment. Math. Helv. 58, 1983) give, for beta = c1 (A1 - rho) and
    omega = c2 (A2 - rho),

        (beta, omega)_E = (c1, f(A2)) (f(A1), c2) (f(A1), -1) (A1 - A2, f(A1) f(A2)),

    all symbols over F; the Steinberg relation gives the last two as
    (f(A1), A2 - A1) (A1 - A2, f(A2)), which bilinearity rewrites so.
    The last factor is 1 whenever f(A1) f(A2) is a square, as it is when
    beta/omega lies in F and A1 = A2; A1 - A2, which may then vanish to
    working precision, is formed only otherwise.  ``side`` is
    :func:`_omega_side` of omega, when the caller has read it already.
    """
    F = E.base

    b0, b1 = beta.data
    if b1.exact:
        return _hilbert_exp(F, class_vec(F, b0, 2), class_vec(F, E.norm(omega), 2))
    A2, vf2, vc2 = side if side is not None else _omega_side(E, omega)
    c1 = -b1
    A1 = b0 / c1
    vf1 = class_vec(F, A1 * (A1 - E.a) - E.b, 2)
    exp = (
        _hilbert_exp(F, class_vec(F, c1, 2), vf2)
        + _hilbert_exp(F, vf1, vc2)
        + _hilbert_exp(F, vf1, _minus_one_class(F))
    )
    vf12 = tuple((x + y) % 2 for x, y in zip(vf1, vf2))
    if any(vf12):
        exp += _hilbert_exp(F, class_vec(F, A1 - A2, 2), vf12)
    return exp % 2


# ---------------------------------------------------------------------------
# the norm-class sets N_{E,c}^A
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormClassSet:
    """Sizes of the norm-class set of a cyclic-extendable E, by level.

    ``total`` is the number of square classes t of F such that the
    Hilbert symbol (t, alpha)_F is +1 for every generator alpha that is
    a quartic norm and -1 for every generator that is not;  ``sizes``
    restricts t to the image of U^(c) for c = 0, ..., 2 e_F.  ``omega``
    is the cyclic extender used for the signs, or None when there are no
    generators and no extender was given: the empty constraint needs
    none.
    """

    omega: object
    signs: tuple
    total: int
    sizes: tuple

    def size_at(self, c: int) -> int:
        if c < 0:
            return self.total
        if c < len(self.sizes):
            return self.sizes[c]
        # above the top level only the trivial class remains, and it is
        # a member exactly when every generator is a quartic norm
        return int(all(self.signs))


def _nec_rows(F, gens4):
    """Constraint rows over F_2: row_alpha . x = target_alpha."""
    return [_gram_apply(F, p_class_coords(F, g)) for g in gens4]


def _nec_brute(F, rows, targets, levels):
    dim = len(levels)
    if F.e * F.f > 12:
        raise GuardError("brute square-class enumeration limited to [F:Q_2] <= 12")
    # a class x is a bitmask, bit j for coordinate j; r.x is the parity
    # of the bits shared with row r
    masks = [_bitmask(r) for r in rows]
    ok = [
        x
        for x in range(1 << dim)
        if all((x & m).bit_count() % 2 == t for m, t in zip(masks, targets))
    ]
    sizes = []
    for c in range(2 * F.e + 1):
        # x lies in the image of U^(c) when it has no coordinate below c
        low = sum(1 << j for j, lv in enumerate(levels) if lv < c)
        sizes.append(sum(1 for x in ok if not x & low))
    return len(ok), tuple(sizes)


def _span_size(dim, base_rows, extra_rows, coord_cols):
    """The size of {x : r.x = 0 for all rows} within the coordinate
    subspace on ``coord_cols`` (all columns when it is None).

    An x supported on the columns C is in the kernel exactly when its
    C-part is in the kernel of the rows restricted to C, so the size is
    2^(|C| - rank R[:, C]).
    """
    cols = range(dim) if coord_cols is None else coord_cols
    R = [[r[j] for j in cols] for r in (*base_rows, *extra_rows)]
    return 1 << (len(cols) - fp_rank(FpMatrix.make(2, R, len(cols))))


def _nec_subspace(F, rows, targets, levels):
    dim = len(levels)
    in_rows = [r for r, t in zip(rows, targets) if t == 0]
    out_rows = [r for r, t in zip(rows, targets) if t == 1]

    def count(coord_cols):
        acc = 0
        for k in range(len(out_rows) + 1):
            for S in itertools.combinations(out_rows, k):
                acc += (-1) ** k * _span_size(dim, in_rows, S, coord_cols)
        return acc

    total = count(None)
    sizes = tuple(
        count([j for j, lv in enumerate(levels) if lv >= c])
        for c in range(2 * F.e + 1)
    )
    return total, sizes


def nec_sizes(F, E, gens=(), algo: str = "auto", omega=None):
    """Level-filtered sizes of the norm-class set of a quadratic E/F.

    Any family ``gens`` generating the same subgroup modulo fourth
    powers gives the same answer.  ``algo`` is
    one of ``brute`` (enumerate all square classes; guarded by the
    degree of F), ``subspace`` (F_2 kernel intersections with
    inclusion-exclusion over the excluded generators) or ``auto``.
    Raises ValueError when E has no cyclic quartic extension of F.
    With no generators no extender omega is chosen, since no sign needs
    one.
    """
    if F.p != 2:
        raise ValueError("only defined over 2-adic fields")
    gens4 = tuple(F.coerce(g) for g in gens)
    if omega is None:
        if gens4:
            omega = choose_omega(F, E)
        elif not _cyclic_extendable(E):
            raise ValueError("E admits no cyclic quartic extension of F")
    signs = omega_norm_signs(E, omega, gens4)
    rows = _nec_rows(F, gens4)
    targets = [0 if s else 1 for s in signs]
    levels = unit_basis(F).levels
    if algo == "auto":
        algo = "subspace" if len(gens4) < F.e * F.f else "brute"
    if algo == "brute":
        total, sizes = _nec_brute(F, rows, targets, levels)
    elif algo == "subspace":
        total, sizes = _nec_subspace(F, rows, targets, levels)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    assert all(a >= b for a, b in zip(sizes, sizes[1:])), "sizes must decrease"
    assert total >= sizes[0] >= 0
    return NormClassSet(omega, signs, total, tuple(sizes))


# ---------------------------------------------------------------------------
# closed-form counting helpers (2-adic quadratic towers)
# ---------------------------------------------------------------------------


def _h_nneq(q, e, m):
    """Unordered pairs of distinct ramified quadratics with disc sum m."""
    if m % 2 == 0 and 4 <= m <= 2 * e:
        val = 2 * (q - 1) ** 2 * q ** (m // 2 - 2) * (m // 2 - 1)
        if m % 4 == 0:
            val -= (q - 1) * q ** (m // 4 - 1)
        return val
    if m % 2 == 0 and 2 * e + 2 <= m <= 4 * e:
        val = 2 * (q - 1) ** 2 * q ** (m // 2 - 2) * (2 * e - m // 2 + 1)
        if m % 4 == 0:
            val -= (q - 1) * q ** (m // 4 - 1)
        return val
    if m % 2 == 1 and 2 * e + 3 <= m <= 4 * e + 1:
        return 4 * (q - 1) * q ** ((m - 1) // 2 - 1)
    if m == 4 * e + 2:
        return q**e * (2 * q**e - 1)
    return 0


def _h_nc2(q, e, m2):
    """Ramified quadratic extensions of a ramified quadratic E, by disc."""
    if m2 <= 0:
        return 0
    if m2 % 2 == 0 and m2 <= 4 * e:
        return 2 * (q - 1) * q ** (m2 // 2 - 1)
    if m2 == 4 * e + 1:
        return 2 * q ** (2 * e)
    return 0


def _h_nc4(q, e, m1, m2):
    """Quadratic extensions of E (disc m1) cyclic quartic over F."""
    if m2 <= 0:
        return 0
    if m1 % 2 == 0 and 2 <= m1 <= e:
        if m2 == 3 * m1 - 2:
            return q ** (m1 - 1)
        if m2 % 2 == 0 and 3 * m1 <= m2 <= 4 * e - m1 + 1:
            return q ** ((m1 + m2) // 4) - q ** ((m1 + m2 - 2) // 4)
        if m2 == 4 * e - m1 + 2:
            return q**e
        return 0
    if m1 == 2 * e + 1 or (m1 % 2 == 0 and e < m1 <= 2 * e):
        return 2 * q**e if m2 == m1 + 2 * e else 0
    return 0


def _h_nv4(q, e, m1, m2):
    """Quadratic extensions of E (disc m1) biquadratic over F."""
    if m2 <= 0:
        return 0
    if not (m1 == 2 * e + 1 or (m1 % 2 == 0 and 2 <= m1 <= 2 * e)):
        return 0
    if m2 % 2 == 0 and 2 <= m2 < m1:
        return 2 * (q - 1) * q ** (m2 // 2 - 1)
    if m2 == m1 and m1 % 2 == 0:
        return (q - 2) * q ** (m1 // 2 - 1)
    if m1 < m2 <= 4 * e - m1 and (m2 - m1) % 4 == 0:
        return (q - 1) * q ** ((m1 + m2) // 4 - 1)
    if m2 > m1 and m1 + m2 == 4 * e + 2:
        return q**e
    return 0


# ---------------------------------------------------------------------------
# per-discriminant counts of constrained quartic fields (p = 2)
# ---------------------------------------------------------------------------


def _even_valuations(F, gens):
    return all(F.val(g) % 2 == 0 for g in gens)


def _unramified_quadratic(F):
    return _quad_of_class(F, 1 << (unit_basis(F).dim - 1))


def _half(n: int) -> int:
    h, r = divmod(n, 2)
    assert r == 0, "count must be even before halving"
    return h


def counts_1212(F, gens=()):
    """Counts of constrained (1^2 1^2) algebras by closure group and disc.

    The diagonal pairs L x L (closure C2) are constrained through the
    norm group of L; a product of two non-isomorphic ramified
    quadratics has full norm group, so those pairs (closure V4) are
    never constrained.
    """
    if F.p != 2:
        raise ValueError("only defined over 2-adic fields")
    gens_c = tuple(F.coerce(g) for g in gens)
    e, q = F.e, F.q
    prof2 = filtration_profile(F, gens_c, 2)
    out = {}
    for m in range(4, 4 * e + 3, 2):
        n = count_Cp(F, m // 2, prof2)
        if n:
            out[("C2", m)] = n
    for m in range(4, 4 * e + 3):
        n = _h_nneq(q, e, m)
        if n:
            out[("V4", m)] = n
    return out


def counts_22(F, gens=(), algo: str = "auto"):
    """Counts of constrained (2^2) quartic fields by closure group and
    discriminant valuation."""
    if F.p != 2:
        raise ValueError("only defined over 2-adic fields")
    gens_c = tuple(F.coerce(g) for g in gens)
    if not _even_valuations(F, gens_c):
        return {}
    e, q = F.e, F.q
    prof2 = filtration_profile(F, gens_c, 2)
    out = {}
    # biquadratic: compositum of the unramified quadratic with a
    # ramified one; the two members of each unramified twin pair give
    # the same field
    for m in range(4, 4 * e + 3, 2):
        n = count_Cp(F, m // 2, prof2)
        if n:
            out[("V4", m)] = _half(n)
    # dihedral: the norm group is that of the unramified quadratic, so
    # the even-valuation condition is the only constraint
    for m in range(4, 4 * e + 1, 4):
        out[("D4", m)] = (q - 1) * ((q + 1) * q ** (m // 2 - 2) - q ** (m // 4 - 1))
    out[("D4", 4 * e + 2)] = q**e * (q**e - 1)
    # cyclic: layers of the norm-class set of the unramified quadratic
    E = _unramified_quadratic(F)
    nec = nec_sizes(F, E, gens_c, algo=algo)
    for c in range(1, e + 1):
        n = _half(nec.size_at(2 * e - 2 * c) - nec.size_at(2 * e - 2 * c + 2))
        if n:
            out[("C4", 4 * c)] = n
    n = _half(nec.total - nec.size_at(0))
    if n:
        out[("C4", 4 * e + 2)] = n
    return out


def _c4_m2_support(e, m1):
    """Relative discriminant valuations of cyclic extenders of E."""
    if m1 > e:
        return [m1 + 2 * e]
    out = [3 * m1 - 2]
    out.extend(range(3 * m1, 4 * e - m1 + 2, 2))
    out.append(4 * e - m1 + 2)
    return sorted(set(out))


def counts_12E_C4(F, E, gens=(), algo: str = "auto"):
    """Constrained cyclic quartic extensions of F through the ramified
    quadratic E, as a dict {m2: count} by relative discriminant
    valuation m2 over E.

    :func:`counts_14` reaches the same counts by a sweep over class
    vectors that skips the unconstrained E before building them; this
    per-class form is the reference that sweep is tested against.
    """
    if F.p != 2:
        raise ValueError("only defined over 2-adic fields")
    if E.kind != "ramified":
        raise ValueError("E must be a ramified quadratic of F")
    gens_c = tuple(F.coerce(g) for g in gens)
    d = F.coerce(E.d)
    constrained = _cyclic_extendable(E) and all(hilbert2(F, g, d) == 1 for g in gens_c)
    if not constrained:
        return {}
    return _c4_counts(F, E, gens_c, algo)


def _c4_counts(F, E, gens_c, algo):
    """:func:`counts_12E_C4` for an E already known to be constrained."""
    nec = nec_sizes(F, E, gens_c, algo=algo)
    e = F.e
    m1 = E.disc_val

    def level(mm):
        return 2 * e - 2 * ((m1 + mm) // 4)

    def one(mm):
        if m1 > e:
            return _half(nec.total) if mm == m1 + 2 * e else 0
        if mm == 3 * m1 - 2:
            return _half(nec.size_at(level(mm)))
        if mm % 2 == 0 and 3 * m1 <= mm <= 4 * e - m1 + 1:
            return _half(nec.size_at(level(mm)) - nec.size_at(level(mm - 2)))
        if mm == 4 * e - m1 + 2:
            return _half(nec.total - nec.size_at(level(mm - 2)))
        return 0

    return {mm: n for mm in _c4_m2_support(e, m1) if (n := one(mm))}


def counts_14(F, gens=(), algo: str = "auto"):
    """Counts of constrained totally ramified quartic fields (1^4) by
    closure group and discriminant valuation.  The S4/A4 part is not
    included: it does not depend on the constraint group."""
    if F.p != 2:
        raise ValueError("only defined over 2-adic fields")
    gens_c = tuple(F.coerce(g) for g in gens)
    e, q = F.e, F.q
    prof2 = filtration_profile(F, gens_c, 2)
    out = {}

    # biquadratic: unordered pairs of distinct ramified quadratics,
    # plus a correction for triples with pairwise equal discriminants
    A = prof2.group_size
    for m in range(6, 6 * e + 3, 2):
        tot = Fraction(0)
        for m2 in range(1, m):
            m1 = m - 2 * m2
            if 0 < m1 < m2:
                tot += Fraction(count_Cp(F, m1, prof2) * count_Cp(F, m2, prof2), 2)
        if m % 3 == 0:
            k = m // 3
            sz = prof2.size_at
            tot += (
                Fraction(2, 3 * A * A)
                * q ** (k - 2)
                * (q * sz(k) - sz(k - 1))
                * (q * sz(k) - 2 * sz(k - 1))
            )
        assert tot.denominator == 1 and tot >= 0
        if tot:
            out[("V4", m)] = int(tot)

    # dihedral: quadratic extensions of a constrained E that are
    # neither cyclic nor biquadratic over F.  The cyclic subtraction
    # only concerns the E admitting a cyclic quartic extension, i.e.
    # those with -1 a norm, so it gets a -1-augmented constraint group
    prof2x = filtration_profile(F, gens_c + (F.from_int(-1),), 2)
    for m in range(6, 8 * e + 4):
        s = 0
        for m1 in range(2, (m - 1) // 2 + 1):
            n1 = count_Cp(F, m1, prof2)
            if n1 == 0:
                continue
            m2 = m - 2 * m1
            s += n1 * (_h_nc2(q, e, m2) - _h_nv4(q, e, m1, m2))
            s -= count_Cp(F, m1, prof2x) * _h_nc4(q, e, m1, m2)
        assert s >= 0
        if s:
            ok = (
                (m % 2 == 0 and 6 <= m <= 8 * e + 2)
                or (m % 4 == 1 and 4 * e + 5 <= m <= 8 * e + 1)
                or m == 8 * e + 3
            )
            assert ok, f"unexpected dihedral support at m = {m}"
            out[("D4", m)] = _half(s)

    # cyclic: sweep the ramified quadratics E = F(sqrt(d)) and count
    # extenders.  The mask is the class vector of d, so the unramified
    # class (the top basis vector) and every d with (-1, d) = -1 or
    # (g, d) = -1 for a generator g are skipped by a parity test,
    # before E is looked up
    dim = unit_basis(F).dim
    masks = _symbol_masks(F, gens_c)
    unramified = 1 << (dim - 1)
    for mask in range(1, 1 << dim):
        if mask == unramified or not _all_symbols_trivial(masks, mask):
            continue
        E = _quad_of_class(F, mask)
        per_m2 = _c4_counts(F, E, gens_c, algo)
        for mm, n in per_m2.items():
            key = ("C4", 2 * E.disc_val + mm)
            out[key] = out.get(key, 0) + n
    return out


# ---------------------------------------------------------------------------
# tame symbols (all five have closed forms; three survive at p = 2)
# ---------------------------------------------------------------------------


def _abar4_closure(elems, g4):
    S = {(0, 0)} | set(elems)
    while True:
        new = {((a0 + b0) % 4, (a1 + b1) % g4) for a0, a1 in S for b0, b1 in S}
        if new <= S:
            return frozenset(S)
        S |= new


def _abar4_strata(S, g4):
    """All stratified minimal generating sets (A0, A1, A2) of S.

    Candidate generators keep valuation coordinate 0, 1 or 2 (an
    element of valuation 3 is replaced by its inverse) and at most one
    generator of odd valuation is allowed.
    """
    cands = sorted(x for x in S if x != (0, 0) and x[0] in (0, 1, 2))
    found = []
    for k in range(0, 3):
        for combo in itertools.combinations(cands, k):
            if sum(x[0] % 2 for x in combo) > 1:
                continue
            if _abar4_closure(combo, g4) == S:
                A0 = tuple(x for x in combo if x[0] == 0)
                A1 = tuple(x for x in combo if x[0] == 1)
                A2 = tuple(x for x in combo if x[0] == 2)
                found.append((A0, A1, A2))
        if found:
            return found
    raise ArithmeticError("no stratified generating set found")  # pragma: no cover


def _unique_value(values):
    vals = set(values)
    assert len(vals) == 1, "value must not depend on the stratification"
    return vals.pop()


@lru_cache(maxsize=1024)
def tame_coefficients(images: frozenset, g4: int) -> tuple:
    """The integers (k22, k14) of the tame (2^2) and (1^4) closed forms.

    Over F with odd residue characteristic the two pre-masses are
    k22/(8 q^2) and k14/(8 q^3).  ``images`` is the set of generator images
    (v mod 4, dlog mod g4) in F^x/F^{x4}, g4 = gcd(4, q - 1), and the
    pair depends on nothing else, so it is memoised on that key.  The
    dlog may be taken against any primitive g4-th root of unity: another
    choice maps the image set by an automorphism, which fixes the pair.
    """
    S = _abar4_closure(images, g4)
    twoM = _abar4_two_m(g4)
    strata = _abar4_strata(S, g4)

    def value22(strat):
        A0, A1, A2 = strat
        a0_sq = all(x in twoM for x in A0)
        if a0_sq and not A1 and not A2:
            return 4
        if (
            a0_sq
            and not A1
            and all(
                ((x[0] - y[0]) % 4, (x[1] - y[1]) % g4) in twoM
                for x in A2
                for y in A2
            )
        ):
            return 2
        return 0

    if g4 == 4:

        def value14(strat):
            A0, A1, A2 = strat
            if S == frozenset({(0, 0)}):
                return 8
            if not A0 and not A1 and len(A2) == 1 and A2[0] in twoM:
                return 4
            if not A0 and not A2 and len(A1) == 1:
                return 2
            return 0

    else:

        def value14(strat):
            A0, A1, A2 = strat
            if S <= twoM:
                return 8
            if not A0 and not A2 and len(A1) == 1:
                return 4
            return 0

    return (
        _unique_value(value22(s) for s in strata),
        _unique_value(value14(s) for s in strata),
    )


def _abar4_images(F, gens_c, g4):
    out = []
    for g in gens_c:
        v = F.val(g)
        u = F.shift(g, -v) if v else g
        out.append((v % 4, dlog_mod(F, F.residue(u), g4)))
    return out


def _abar4_two_m(g4):
    return frozenset(((2 * a) % 4, (2 * b) % g4) for a in range(4) for b in range(g4))


def premass4_tame(F, gens=()) -> MassReport:
    """The tame part of the constrained quartic pre-mass of F.

    Always contains the unconstrained epimorphic part (the six symbols
    with an unramified-split factor) and the two valuation-condition
    symbols (4) and (2 2); for odd residue characteristic the three
    remaining symbols are tame as well and are included here.
    """
    q = F.q
    gens_c = tuple(F.coerce(g) for g in gens)
    vals = [F.val(g) for g in gens_c]
    parts = [
        ("epi", Fraction(5 * q * q + 8 * q + 8, 8 * q * q)),
        ("(4)", Fraction(1, 4) if all(v % 4 == 0 for v in vals) else Fraction(0)),
        ("(2 2)", Fraction(1, 8) if all(v % 2 == 0 for v in vals) else Fraction(0)),
    ]
    if F.p != 2:
        s2 = strat_gens(F, gens_c, 2)
        if s2.is_trivial():
            v1212 = Fraction(1, 2 * q * q)
        elif not s2.A0 and len(s2.A1) == 1:
            v1212 = Fraction(3, 8 * q * q)
        else:
            v1212 = Fraction(1, 4 * q * q)
        parts.append(("(1^2 1^2)", v1212))
        g4 = gcd(4, q - 1)
        k22, k14 = tame_coefficients(frozenset(_abar4_images(F, gens_c, g4)), g4)
        parts.append(("(2^2)", Fraction(k22, 8 * q * q)))
        parts.append(("(1^4)", Fraction(k14, 8 * q**3)))
    return MassReport(tuple(parts))


# ---------------------------------------------------------------------------
# wild symbols (p = 2)
# ---------------------------------------------------------------------------


# automorphism counts by wild symbol and closure group: a count n at
# discriminant valuation m weighs n / (#Aut q^m)
_AUT = {
    "(1^2 1^2)": {"C2": 8, "V4": 4},
    "(2^2)": {"C4": 4, "V4": 4, "D4": 2},
    "(1^4)": {"C4": 4, "V4": 4, "D4": 2},
}


def premass4_wild(F, gens=(), symbol: str = "(1^4)", algo: str = "auto") -> MassReport:
    """Constrained pre-mass of one wild quartic symbol of a 2-adic F,
    broken down by Galois closure group and weighed from the count
    tables of :func:`counts_1212`, :func:`counts_22` and
    :func:`counts_14`."""
    if F.p != 2:
        raise ValueError("wild quartic symbols require residue characteristic 2")
    aut = _AUT.get(symbol)
    if aut is None:
        raise ValueError(f"unknown wild symbol {symbol!r}")
    gens_c = tuple(F.coerce(g) for g in gens)
    q = F.q

    def by_group(counts):
        acc = {g: Fraction(0) for g in aut}
        for (g, m), n in counts.items():
            acc[g] += Fraction(n, aut[g] * q**m)
        return acc

    if symbol == "(1^2 1^2)":
        parts = by_group(counts_1212(F, gens_c))
    elif symbol == "(2^2)":
        parts = by_group(counts_22(F, gens_c, algo=algo))
    else:
        parts = by_group(counts_14(F, gens_c, algo=algo))
        free = by_group(counts_14(F, (), algo=algo)) if gens_c else parts
        # the S4/A4 part is what the unconstrained total 1/q^3 leaves
        s4 = Fraction(1, q**3) - sum(free.values())
        assert s4 >= 0
        parts["A4/S4"] = s4
    return MassReport(tuple(parts.items()))


def premass4(F, gens=(), algo: str = "auto") -> MassReport:
    """The full constrained quartic pre-mass of F, all eleven symbols.

    Tame parts are labelled by their symbol; wild parts (p = 2) are
    labelled "symbol group".
    """
    parts = list(premass4_tame(F, gens).parts)
    if F.p == 2:
        for sym in _AUT:
            rep = premass4_wild(F, gens, sym, algo=algo)
            parts.extend((f"{sym} {g}", v) for g, v in rep.parts)
    return MassReport(tuple(parts))
