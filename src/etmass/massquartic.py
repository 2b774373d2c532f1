"""Quartic pre-masses with a prescribed norm subgroup.

For an odd residue characteristic every quartic etale algebra is tame
and the five constrained splitting symbols have short closed forms:
(4) and (2 2) read the generators' valuations, and (1^2 1^2), (2^2)
and (1^4) count the characters of F^x/F^{x4} that kill the image of
the constraint group A there (:func:`tame_coefficients`).  All six
tame rows (the five symbols and the unconstrained epimorphic part) are
written once, as integer coefficients over 8 q^3 in :func:`tame_rows4`,
which both :func:`premass4_tame` and ``density._tame_numerator`` read.
Over a 2-adic field the first three rows still hold, and the three wild
symbols (1^2 1^2), (2^2) and (1^4) are weighed per Galois closure group
from counts by discriminant valuation.  Those counts read the
constraint group A in two places only: its quadratic characters, as
``massprime.char_count`` and ``count_Cp`` count them, and the table of
:func:`_char_table` for the characters of order 4.

The cyclic (C4) layers come from F alone, by local class field theory
(Serre, *Local Fields*, GTM 67, ch. VI and chs. XIII-XV): a cyclic
quartic M/F is a pair {chi, -chi} of characters chi: F^x -> Z/4 with
norm group ker chi, so A lies in N(M) exactly when chi(A) = 0, and the
conductor-discriminant formula gives v(d_{M/F}) = 2 f(chi) + f(2 chi).
M has symbol (1^4) when 2 chi is ramified and (2^2) when 2 chi is
unramified and nonzero but chi is ramified.  The characters are counted
by index computations in G = F^x/F^{x4}, whose classes and unit levels
come from :func:`etmass.unitgroups.class4_vec` and
:func:`etmass.unitgroups.level_classes4`; no extension of F is built,
and no square root is taken.  The generators' classes are read once per
:func:`premass4` call.

Quadratic Hilbert symbols come from a Gram matrix on the square-class
basis, whose columns are the norm images of the quadratic extensions
of F, each built once per F.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .fplinalg import Span
from .massprime import MassReport, char_count, count_Cp, horner
from .padic import GuardError, field_cache, quad_extend
from .unitgroups import (
    basis_product,
    class4_vec,
    class_profile,
    class_vec,
    dlog_mod,
    level_classes4,
    norm_class_matrix,
    square_class_basis,
    unit_basis,
)

__all__ = [
    "hilbert2",
    "counts_1212",
    "counts_22",
    "counts_14",
    "premass4_tame",
    "tame_coefficients",
    "tame_rows4",
    "premass4",
]


# ---------------------------------------------------------------------------
# quadratic Hilbert symbols
# ---------------------------------------------------------------------------


@field_cache
def _quad_of_class(F, mask):
    """E = F(sqrt(d)), d the product of the elements of
    :func:`square_class_basis` whose bits are set in ``mask``.

    Each E is built once per (F, mask) and kept on F with its cached
    structure (norm image).
    """
    basis = square_class_basis(F)
    return quad_extend(F, basis_product(F, basis, [mask >> j & 1 for j in range(len(basis))]))


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
        cols.append(tuple(0 if N.reduce(ei)[0] is None else 1 for ei in units))
    H = tuple(zip(*cols))
    assert H == tuple(cols), "Hilbert pairing must be symmetric"
    return H


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


# ---------------------------------------------------------------------------
# closed-form counting helpers (2-adic quadratic towers)
# ---------------------------------------------------------------------------


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
# characters of G = F^x/F^{x4} (p = 2)
# ---------------------------------------------------------------------------


def _classes4(F, gens) -> tuple:
    """The classes in G = F^x/F^{x4} of ``gens`` and, last, of -1: all the
    wild counts read of the constraint group.  Mod 2 they are the square
    classes, and twice the last is the relation of G."""
    if F.p != 2:
        raise ValueError("only defined over 2-adic fields")
    return tuple(class4_vec(F, F.coerce(g)) for g in (*gens, -1))


def _tables_subspace(F, rows, levels, top):
    """:func:`_char_table` by elimination: S(c, c2) = |G/(A + U_c + 2U_c2)|,
    A given with the relation as ``rows``.

    The spans only grow: one echelon over Z/4 (:class:`Span`) takes A and
    the levels as c falls from ``top``, a copy of it per c the rows 2v of
    the levels below c as c2 falls, each read after a level.
    """
    r = unit_basis(F).dim
    by_level = [[v for j, v in levels if j == c] for c in range(top + 1)]
    span = Span(2, r, 2)
    for a in rows:
        span.insert(a)
    S = {}
    for c in range(top, -1, -1):
        for v in by_level[c]:
            span.insert(v)
        S[c, c] = 1 << (2 * r - span.log)
        low = span.copy()
        for c2 in range(c - 1, -1, -1):
            for v in by_level[c2]:
                low.insert([2 * x for x in v])
            S[c, c2] = 1 << (2 * r - low.log)
    return S


def _tables_brute(F, rows, levels, top):
    """:func:`_char_table` by testing every x in (Z/4)^r: x is a character
    of G when it kills the relation, and f(x) is one more than the
    highest level it does not kill."""
    if F.e * F.f > 6:
        raise GuardError("brute character enumeration limited to [F:Q_2] <= 6")

    def kills(x, v):
        return sum(a * b for a, b in zip(x, v)) % 4 == 0

    def conductor(x):
        return max((j + 1 for j, v in levels if not kills(x, v)), default=0)

    tally = {}
    for x in itertools.product(range(4), repeat=unit_basis(F).dim):
        if all(kills(x, a) for a in rows):
            key = (conductor(x), conductor(tuple(2 * a % 4 for a in x)))
            tally[key] = tally.get(key, 0) + 1
    return {
        (c, c2): sum(n for (f1, f2), n in tally.items() if f1 <= c and f2 <= c2)
        for c in range(top + 1)
        for c2 in range(c + 1)
    }


def _char_table(F, classes, algo):
    """S[c, c2], 0 <= c2 <= c <= 3e + 1, the number of characters chi of
    G = F^x/F^{x4} with chi(A) = 0, f(chi) <= c and f(2 chi) <= c2, A and
    the relation read as ``classes`` (:func:`_classes4`).

    A group of exponent 4 is its own dual, so S[c, c2] =
    |G/(A + U_c + 2U_c2)|, U_c the image of U^(c).  Those of order at
    most 2 are the quadratic characters of :func:`char_count`.  ``algo`` is
    ``subspace`` (elimination over Z/4) or ``brute`` (test every
    candidate character; guarded by the degree of F).  One table per
    (F, algo, set of generator classes) is kept on F
    (:func:`_char_table_of`), so every ordering of the generators
    shares it.
    """
    *A, minus = classes
    return _char_table_of(F, algo, frozenset(A), minus)


@field_cache
def _char_table_of(F, algo, A, minus):
    """:func:`_char_table` for the set A of generator classes and the
    class ``minus`` of -1."""
    if algo not in ("brute", "subspace"):
        raise ValueError(f"unknown algorithm {algo!r}")
    relation = tuple(2 * a % 4 for a in minus)
    build = _tables_brute if algo == "brute" else _tables_subspace
    return build(F, (relation, *A), level_classes4(F), 3 * F.e + 1)


# ---------------------------------------------------------------------------
# per-discriminant counts of constrained quartic fields (p = 2)
# ---------------------------------------------------------------------------


def _half(n: int) -> int:
    h, r = divmod(n, 2)
    assert r == 0, "count must be even before halving"
    return h


def counts_1212(F, gens=()):
    """Counts of constrained (1^2 1^2) algebras by closure group and disc.

    The diagonal pairs L x L (closure C2) are constrained through the
    norm group of L; a product of two non-isomorphic ramified
    quadratics has full norm group, so those pairs (closure V4) are
    never constrained; :func:`count_Cp` counts them by conductor.
    """
    return _counts_1212(F, _classes4(F, gens))


def _counts_1212(F, classes):
    e = F.e
    prof2 = class_profile(F, classes[:-1])
    out = {}
    for m in range(4, 4 * e + 3, 2):
        n = count_Cp(F, m // 2, prof2)
        if n:
            out[("C2", m)] = n
    cp = [count_Cp(F, m) for m in range(4 * e + 3)]
    for m in range(4, 4 * e + 3):
        # the ordered pairs, less the diagonal L x L
        pairs = sum(cp[m1] * cp[m - m1] for m1 in range(m + 1))
        n = _half(pairs - (0 if m % 2 else cp[m // 2]))
        if n:
            out[("V4", m)] = n
    return out


def counts_22(F, gens=(), algo: str = "subspace"):
    """Counts of constrained (2^2) quartic fields by closure group and
    discriminant valuation."""
    return _counts_22(F, _classes4(F, gens), algo)


def _counts_22(F, classes, algo):
    if any(v[0] % 2 for v in classes[:-1]):  # v[0] is the valuation mod 4
        return {}
    e, q = F.e, F.q
    prof2 = class_profile(F, classes[:-1])
    cp = [count_Cp(F, c, prof2) for c in range(3 * e + 2)]
    out = {}
    # biquadratic: compositum of the unramified quadratic with a
    # ramified one; the two members of each unramified twin pair give
    # the same field
    for m in range(4, 4 * e + 3, 2):
        n = cp[m // 2]
        if n:
            out[("V4", m)] = _half(n)
    # dihedral: the norm group is that of the unramified quadratic, so
    # the even-valuation condition is the only constraint
    for m in range(4, 4 * e + 1, 4):
        out[("D4", m)] = (q - 1) * ((q + 1) * q ** (m // 2 - 2) - q ** (m // 4 - 1))
    out[("D4", 4 * e + 2)] = q**e * (q**e - 1)
    # cyclic: the pairs {chi, -chi} of order 4 with 2 chi unramified,
    # f(chi) = c and discriminant valuation 2c: those with f(chi) = c,
    # less the quadratic ones
    S = _char_table(F, classes, algo)
    for c in range(1, 3 * e + 2):
        n = _half(S[c, 0] - S[c - 1, 0] - cp[c])
        if n:
            out[("C4", 2 * c)] = n
    return out


def counts_14(F, gens=(), algo: str = "subspace"):
    """Counts of constrained totally ramified quartic fields (1^4) by
    closure group and discriminant valuation.  The S4/A4 part is not
    included: it does not depend on the constraint group."""
    return _counts_14(F, _classes4(F, gens), algo)


def _counts_14(F, classes, algo):
    e, q = F.e, F.q
    prof2 = class_profile(F, classes[:-1])
    # count_Cp by index: the loops below read indices up to 4e + 1
    cp = [count_Cp(F, m, prof2) for m in range(4 * e + 2)]
    out = {}

    # biquadratic: the planes of quadratic characters that kill A, with
    # conductors (m1, m2, m2) and discriminant valuation m1 + 2 m2.  For
    # m1 < m2 a plane is its character of conductor m1 with either one of
    # conductor m2; for m1 = m2 = k it has six ordered bases (x, y) with
    # x, y and x + y all of conductor k (y outside H_(k-1) and x + H_(k-1),
    # H_c the N(c) characters of conductor at most c)
    for m in range(6, 6 * e + 3, 2):
        tot = sum(cp[m - 2 * m2] * cp[m2] for m2 in range(m // 3 + 1, (m + 1) // 2))
        if m % 3 == 0:
            k = m // 3
            third, rem = divmod(cp[k] * (cp[k] - char_count(F, k - 1, prof2)), 3)
            assert rem == 0
            tot += third
        tot = _half(tot)
        if tot:
            out[("V4", m)] = tot

    # dihedral: quadratic extensions of a constrained E that are
    # neither cyclic nor biquadratic over F.  The cyclic subtraction
    # only concerns the E admitting a cyclic quartic extension, i.e.
    # those with -1 a norm, so it gets a -1-augmented constraint group
    prof2x = class_profile(F, classes)
    cpx = [count_Cp(F, m, prof2x) for m in range(4 * e + 2)]
    for m in range(6, 8 * e + 4):
        s = 0
        for m1 in range(2, (m - 1) // 2 + 1):
            n1 = cp[m1]
            if n1 == 0:
                continue
            m2 = m - 2 * m1
            s += n1 * (_h_nc2(q, e, m2) - _h_nv4(q, e, m1, m2))
            s -= cpx[m1] * _h_nc4(q, e, m1, m2)
        assert s >= 0
        if s:
            ok = (
                (m % 2 == 0 and 6 <= m <= 8 * e + 2)
                or (m % 4 == 1 and 4 * e + 5 <= m <= 8 * e + 1)
                or m == 8 * e + 3
            )
            assert ok, f"unexpected dihedral support at m = {m}"
            out[("D4", m)] = _half(s)

    # cyclic: the pairs {chi, -chi} with 2 chi ramified, f(chi) = c,
    # f(2 chi) = c2 and discriminant valuation 2c + c2, the exact (c, c2)
    # by inclusion-exclusion (f(2 chi) <= f(chi), so S[c - 1, c] is
    # S[c - 1, c - 1])
    S = _char_table(F, classes, algo)
    for c in range(1, 3 * e + 2):
        for c2 in range(1, c + 1):
            n = S[c, c2] - S[c - 1, min(c2, c - 1)] - S[c, c2 - 1] + S[c - 1, c2 - 1]
            if n:
                key = ("C4", 2 * c + c2)
                out[key] = out.get(key, 0) + _half(n)
    return out


# ---------------------------------------------------------------------------
# tame symbols (all five have closed forms; three survive at p = 2)
# ---------------------------------------------------------------------------


def tame_coefficients(images: frozenset, g4: int) -> tuple:
    """The integers (k1212, k22, k14) of the tame quartic closed forms.

    Over F with odd residue characteristic the (1^2 1^2), (2^2) and
    (1^4) pre-masses are k1212/(8 q^2), k22/(8 q^2) and k14/(8 q^3).
    ``images`` holds the classes (a, b) of the generators in
    G = F^x/F^{x4} = Z/4 x Z/g4, g4 = gcd(4, q - 1): a = v mod 4 and b
    the dlog mod g4 of the residue of the unit part.  By local class
    field theory an algebra meets A exactly when the characters of G
    that cut out its abelian part kill every image (Serre, *Local
    Fields*, GTM 67, ch. XIV; a non-Galois tame quartic has the norm
    group of its largest abelian subfield), so each count is a
    homomorphism test on the images, in units of the masses above:

    - (1^2 1^2): r2 counts the ramified quadratic characters
      (a, b) -> a s + b mod 2, s in {0, 1}, that kill A, one L x L each;
      the pair L x L' of distinct ramified quadratics has norm group
      F^x and adds 2, so k1212 = 2 + r2.
    - (2^2): E(sqrt(pi)), E the unramified quadratic, is biquadratic
      with norm group 2G and adds 2 when every a and b is even; the
      cyclic quartic chi with 2 chi unramified, chi(a, b) = +-a + 2b,
      adds 2 when a + 2b = 0 mod 4 on every image (then a is even, so
      both signs kill A).
    - (1^4): when g4 = 4, the totally ramified Kummer characters
      chi(a, b) = a s + b t, s in Z/4, t in {1, 3}, one each; when
      g4 = 2 the quartics are not Galois and each counts through its
      ramified quadratic subfield, so k14 = 4 r2.

    b may be read against either primitive g4-th root of unity: the
    other maps b to -b, which fixes b mod 2 and 2b mod 4 and swaps
    t = 1 with t = 3, so it fixes each count.
    """
    r2 = sum(all((a * s + b) % 2 == 0 for a, b in images) for s in (0, 1))
    k22 = 2 * all(a % 2 == b % 2 == 0 for a, b in images) + 2 * all(
        (a + 2 * b) % 4 == 0 for a, b in images
    )
    if g4 == 4:
        k14 = sum(
            all((a * s + b * t) % 4 == 0 for a, b in images) for s in range(4) for t in (1, 3)
        )
    else:
        k14 = 4 * r2
    return 2 + r2, k22, k14


@lru_cache(maxsize=1024)
def tame_rows4(images: frozenset, g4: int) -> tuple:
    """The tame quartic pre-mass as labelled rows over 8 q^3: (label,
    coefficients of q^3 .. q^0), for the ``images`` and g4 of
    :func:`tame_coefficients`, memoised on them.

    - epi: the six symbols with an unramified-split factor,
      unconstrained, (5 q^2 + 8 q + 8)/(8 q^2);
    - (4) and (2 2): 1/4 when every a is 0, 1/8 when every a is even;
    - (1^2 1^2), (2^2), (1^4): k1212/(8 q^2), k22/(8 q^2), k14/(8 q^3),
      tame only for odd residue characteristic.
    """
    k1212, k22, k14 = tame_coefficients(images, g4)
    return (
        ("epi", (5, 8, 8, 0)),
        ("(4)", (2 * all(a == 0 for a, _ in images), 0, 0, 0)),
        ("(2 2)", (int(all(a % 2 == 0 for a, _ in images)), 0, 0, 0)),
        ("(1^2 1^2)", (0, 0, k1212, 0)),
        ("(2^2)", (0, 0, k22, 0)),
        ("(1^4)", (0, 0, 0, k14)),
    )


def _tame_images(F, gens_c, g4):
    """The classes (v mod 4, residue dlog mod g4) of the generators in
    F^x/F^{x4}, as :func:`tame_coefficients` reads them."""
    out = []
    for g in gens_c:
        v = F.val(g)
        u = F.shift(g, -v) if v else g
        out.append((v % 4, dlog_mod(F, F.residue(u), g4) if g4 > 1 else 0))
    return frozenset(out)


def premass4_tame(F, gens=()) -> MassReport:
    """The tame part of the constrained quartic pre-mass of F: the rows of
    :func:`tame_rows4` at q, the first three only when p = 2, where the
    other three symbols are wild.
    """
    q = F.q
    g4 = gcd(4, q - 1)
    rows = tame_rows4(_tame_images(F, [F.coerce(g) for g in gens], g4), g4)
    den = 8 * q**3
    return MassReport(
        tuple((label, Fraction(horner(c, q), den)) for label, c in rows[: 3 if F.p == 2 else 6])
    )


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


def _wild(F, classes, symbol, algo):
    """Constrained pre-mass of one wild quartic symbol of a 2-adic F, for
    the classes of :func:`_classes4`, broken down by Galois closure group
    and weighed from the count tables of :func:`counts_1212`,
    :func:`counts_22` and :func:`counts_14`."""
    aut = _AUT.get(symbol)
    if aut is None:
        raise ValueError(f"unknown wild symbol {symbol!r}")
    q = F.q

    def by_group(counts):
        acc = {g: Fraction(0) for g in aut}
        for (g, m), n in counts.items():
            acc[g] += Fraction(n, aut[g] * q**m)
        return acc

    if symbol == "(1^2 1^2)":
        parts = by_group(_counts_1212(F, classes))
    elif symbol == "(2^2)":
        parts = by_group(_counts_22(F, classes, algo))
    else:
        parts = by_group(_counts_14(F, classes, algo))
        free = by_group(_counts_14(F, classes[-1:], algo)) if len(classes) > 1 else parts
        # the S4/A4 part is what the unconstrained total 1/q^3 leaves
        s4 = Fraction(1, q**3) - sum(free.values())
        assert s4 >= 0
        parts["A4/S4"] = s4
    return MassReport(tuple(parts.items()))


def premass4(F, gens=(), algo: str = "subspace") -> MassReport:
    """The full constrained quartic pre-mass of F, all eleven symbols.

    Tame parts are labelled by their symbol; wild parts (p = 2) are
    labelled "symbol group".  The generators' classes are read once.
    """
    parts = list(premass4_tame(F, gens).parts)
    if F.p == 2:
        classes = _classes4(F, gens)
        for sym in _AUT:
            rep = _wild(F, classes, sym, algo)
            parts.extend((f"{sym} {g}", v) for g, v in rep.parts)
    return MassReport(tuple(parts))
