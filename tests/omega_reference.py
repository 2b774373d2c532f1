"""The paper's route to the cyclic quartic layers over a 2-adic field.

For each quadratic E/F with -1 a norm, a minimal-discriminant extender
omega (in the hard small-discriminant case by the paper's nine-step
construction), the signs (beta, omega)_E of the generators read from
quadratic Hilbert symbols over F, and the level-filtered norm-class sets
N_{E,c}, by brute enumeration and by F_2 subspace arithmetic.  The
library counts the same layers from characters of F^x/F^{x4}
(``massquartic.counts_14`` and ``counts_22``); this module is the
reference the tests compare that count with, and the source of the
towers E(sqrt(omega)) that the p-adic and unit-group tests build.
"""

import itertools
from dataclasses import dataclass

from etmass.fplinalg import colspan
from etmass.massquartic import _gram_apply, _half, _hilbert_exp, _quad_of_class, hilbert2
from etmass.padic import GuardError, field_cache
from etmass.unitgroups import (
    c_alpha,
    class_vec,
    p_class_coords,
    solve_norm_equation,
    unit_basis,
)

from test_padic import congruent
from tower_reference import disc_val_quadratic


def _bitmask(v) -> int:
    """An F_2 vector as an int, bit j for coordinate j."""
    return sum(1 << j for j, c in enumerate(v) if c)


@field_cache
def _minus_one_class(F):
    """The square-class vector of -1, read once per field."""
    return class_vec(F, F.from_int(-1), 2)


@field_cache
def _cyclic_extendable(E) -> bool:
    """Whether -1 is a norm from the quadratic E/F, i.e. whether E has a
    cyclic quartic extension of F; computed once per E."""
    F = E.base
    return hilbert2(F, -1, F.coerce(E.d)) == 1


def _unramified_quadratic(F):
    return _quad_of_class(F, 1 << (unit_basis(F).dim - 1))



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
    assert congruent(F, E.norm(omega), F.mul(lam, lam), 2 * e + 1 - m1)

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
    assert congruent(E, omega2, E.embed(lam2), m1)

    # step 8: coordinates omega2 = r2 + s2 rho and the correctors
    r2, s2 = omega2.data
    assert F.val(s2) == m1 // 2
    qq = F.normalize_pshift((r2 - lam2) / s2)
    nn = F.normalize_pshift((qq * qq + b) / r2)

    # step 9: the small-discriminant representative
    g = E.add(E.embed(qq), rho)
    out = E.normalize_pshift(E.mul(E.mul(omega2, E.embed(nn)), E.inv(E.mul(g, g))))
    assert congruent(E, out, E.one(), 4 * e + 3 - 3 * m1)
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
    return 1 << (len(cols) - colspan(2, R, len(cols)).log)


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
# cyclic quartic extensions of F through a ramified quadratic E
# ---------------------------------------------------------------------------


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

    Summed over E, keyed by 2 m1 + m2, these are the C4 entries of
    ``massquartic.counts_14``, which counts characters of F^x/F^{x4}
    instead.
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
