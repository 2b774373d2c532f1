"""Brute-force enumeration of small extensions of p-adic fields.

Three independent enumerations, used to cross-check the closed-form
counts elsewhere in the package:

* cyclic degree-p extensions (wild), through characters of the finite
  group F^x / F^{x p} on the unit-class basis;
* degree-ell extensions for ell != p (tame), through Kummer theory of
  the residue field;
* quartic fields with a quadratic subfield (groups C4, V4, D4 over a
  2-adic base), through towers of relative quadratic extensions.

Every record carries the discriminant valuation, the automorphism
count, and one membership flag per requested norm constraint, so
constrained pre-masses can be assembled downstream without re-running
the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fplinalg import Span, colspan
from .padic import GuardError, disc_val_quadratic, field_cache, quad_extend
from .unitgroups import (
    basis_product,
    class_dim,
    class_vec,
    dlog_mod,
    norm_class_matrix,
    p_class_coords,
    solve_norm_equation,
    sqrt_exact,
    square_class_basis,
    unit_basis,
)

DEFAULT_MAX_SIZE = 1 << 16


def _lines(p, d):
    """One nonzero vector of F_p^d per line through 0, the one whose first
    nonzero coordinate is 1; least-significant coordinate first."""
    for idx in range(1, p**d):
        v = []
        t = idx
        for _ in range(d):
            v.append(t % p)
            t //= p
        if next(c for c in v if c) == 1:
            yield v


def _conductor(levels, chi):
    """One more than the highest unit level in chi's support, 0 if none."""
    return max((lev + 1 for lev, c in zip(levels, chi) if c and lev >= 0), default=0)


# ---------------------------------------------------------------------------
# wild cyclic extensions through characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CpExtension:
    """A cyclic degree-p extension, encoded by its canonical character.

    ``chi`` is a linear functional on the unit-class basis coordinates,
    normalized so that its first nonzero entry is 1.  An element of F
    is a norm exactly when the functional kills its class.
    """

    chi: tuple
    cond: int
    disc_val: int
    aut: int
    norm_flags: tuple


def enum_cp_characters(F, gens=(), max_size=DEFAULT_MAX_SIZE):
    """All cyclic degree-p extensions of F, one record per extension.

    Extensions correspond to index-p subgroups of F^x / F^{x p}, i.e.
    to nonzero characters up to scalar.  The conductor is read off the
    highest unit-filtration level in the character's support, and the
    discriminant valuation is (p - 1) times the conductor.
    """
    basis = unit_basis(F)
    p, d = F.p, basis.dim
    total = (p**d - 1) // (p - 1)
    if total > max_size:
        raise GuardError(f"{total} characters exceeds guard {max_size}")
    gvecs = [p_class_coords(F, F.coerce(g)) for g in gens]
    out = []
    for chi in _lines(p, d):
        cond = _conductor(basis.levels, chi)
        flags = tuple(
            sum(c * g for c, g in zip(chi, gv)) % p == 0 for gv in gvecs
        )
        out.append(
            CpExtension(
                chi=tuple(chi),
                cond=cond,
                disc_val=(p - 1) * cond,
                aut=p,
                norm_flags=flags,
            )
        )
    assert len(out) == total
    return out


def cp_premass_from_characters(F, records=None):
    """Sum of 1/(#Aut * q^disc) over the ramified cyclic records."""
    if records is None:
        records = enum_cp_characters(F)
    return sum(
        (Fraction(1, r.aut * F.q**r.disc_val) for r in records if r.cond > 0),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# tame degree-ell extensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TameExtension:
    """A degree-ell extension of F for ell prime to the residue char."""

    symbol: str
    disc_val: int
    aut: int
    norm_flags: tuple


def enum_tame(F, ell, gens=()):
    """All degree-ell field extensions of F, for a prime ell != p.

    There is always the unramified extension (norms are the elements of
    valuation divisible by ell).  If ell does not divide q - 1 there is
    a single totally ramified extension; it is non-Galois with trivial
    automorphism group and, having no proper abelian subextension, a
    full norm group.  If ell divides q - 1 there are ell totally
    ramified cyclic extensions x^ell = u pi, distinguished by the
    residue class of u, with norm groups read off discrete logarithms.
    """
    if ell == F.p:
        raise ValueError("tame enumeration needs ell != p")
    gens = [F.coerce(g) for g in gens]
    vals = [F.val(g) for g in gens]
    out = [
        TameExtension(
            symbol=f"({ell})",
            disc_val=0,
            aut=ell,
            norm_flags=tuple(v % ell == 0 for v in vals),
        )
    ]
    if (F.q - 1) % ell != 0:
        out.append(
            TameExtension(
                symbol=f"(1^{ell})",
                disc_val=ell - 1,
                aut=1,
                norm_flags=(True,) * len(gens),
            )
        )
        return out
    delta = dlog_mod(F, F.rf.from_int((-1) ** (ell + 1)), ell)
    dlogs = [
        dlog_mod(F, F.residue(F.shift(g, -v) if v else g), ell)
        for g, v in zip(gens, vals)
    ]
    for j in range(ell):
        flags = tuple(
            (dl - v * (j + delta)) % ell == 0 for dl, v in zip(dlogs, vals)
        )
        out.append(
            TameExtension(
                symbol=f"(1^{ell})", disc_val=ell - 1, aut=ell, norm_flags=flags
            )
        )
    return out


# ---------------------------------------------------------------------------
# quartic fields over a 2-adic base, as towers of quadratics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticTower:
    """One pair (E, delta) with L = E(sqrt(delta)) a quartic field.

    Each quartic field is hit by ``pair_multiplicity`` distinct pairs
    (3 for V4: one per quadratic subfield; 2 for D4: delta and its
    conjugate; 1 for C4), so counting fields means summing the
    reciprocals of the multiplicities.
    """

    symbol: str
    group: str
    disc_val: int
    aut: int
    pair_multiplicity: int
    norm_flags: tuple


@field_cache
def _tower_pairs(F):
    """(E, pairs) for each quadratic extension E = F(sqrt(d)), d the
    product of F's unit-class basis elements that d's class vector
    selects, and (w, group, symbol, disc) in ``pairs`` for each
    nontrivial square class w of E.  None of it depends on the
    generators, so F keeps it and a second census builds no field.

    delta = prod b_j^(w_j) has class w, one product on the delta of w
    without its top bit.  The pair is V4 when w is a
    class of F, C4 when N_{E/F}(delta) lies in d's class, and D4
    otherwise; the norm is a homomorphism on square classes, so the
    class of N(delta) is sum_j w_j class(N(b_j)), one read per b_j.
    """
    fb = unit_basis(F)
    out = []
    for dvec in _lines(2, fb.dim):
        d_class = tuple(dvec)
        E = quad_extend(F, basis_product(F, fb.elems, d_class))
        eb = unit_basis(E)
        im = Span(2, eb.dim)
        for b in fb.elems:
            im.insert(p_class_coords(E, E.embed(b)))
        norms = [p_class_coords(F, E.norm(b)) for b in eb.elems]
        e_EF = 2 if E.kind == "ramified" else 1
        f_EF = 2 // e_EF
        pairs = []
        deltas = [E.one()]  # by _lines index, which for p = 2 is every idx
        for idx, wvec in enumerate(_lines(2, eb.dim), 1):
            top = idx.bit_length() - 1
            deltas.append(E.mul(deltas[idx - (1 << top)], eb.elems[top]))
            if im.reduce(wvec)[0] is None:
                group = "V4"
            elif tuple(sum(w * c for w, c in zip(wvec, col)) % 2 for col in zip(*norms)) == d_class:
                group = "C4"
            else:
                group = "D4"
            dl = disc_val_quadratic(E, deltas[idx])
            symbol = {1: "(4)", 2: "(2^2)", 4: "(1^4)"}[e_EF * (2 if dl > 0 else 1)]
            pairs.append((tuple(wvec), group, symbol, 2 * E.disc_val + f_EF * dl))
        out.append((E, pairs))
    return out


@field_cache
def _tower_norm_images(E):
    """The norm-image spans of the quadratics E(sqrt(beta)) the census
    has built, by the class vector of beta."""
    return {}


def _tower_norm_image(E, bvec):
    """:func:`norm_class_matrix` of E(sqrt(beta)), beta the product of
    E's unit-class basis elements that bvec selects, built once per
    (E, bvec).  Only the span is kept: keeping every tower with its own
    cached structure alive until F dies raised the peak RSS of a census
    benchmark by 5%."""
    table = _tower_norm_images(E)
    M = table.get(bvec)
    if M is None:
        beta = basis_product(E, unit_basis(E).elems, bvec)
        M = table[bvec] = norm_class_matrix(quad_extend(E, beta))
    return M


_GROUP_MULT = {"V4": 3, "C4": 1, "D4": 2}
_GROUP_AUT = {"V4": 4, "C4": 4, "D4": 2}


def enum_quartic_towers(F, gens=(), max_degree=3):
    """All quartic fields of a 2-adic F with a quadratic subfield.

    Iterates over pairs (E, delta): E runs through the quadratic
    extensions of F (one per nontrivial square class), delta through
    the nontrivial square classes of E.  Everything but the norm flags
    is read off :func:`_tower_pairs`, built once per base.  The field
    L = E(sqrt(delta)) has Galois closure group V4 when delta comes
    from F, C4 when N_{E/F}(delta) falls in the square class defining
    E, and D4 otherwise.  Discriminants follow the tower law
    v_F(d_L) = 2 v_F(d_E) + f(E/F) v_E(d_{L/E}).

    Norm membership of alpha in F: for D4 the norm group of L equals
    that of its unique quadratic subfield E; for the Galois groups,
    alpha is a norm from L exactly when some beta in E with
    N_{E/F}(beta) = alpha is itself a norm from L/E, that is when the
    Hilbert symbol (beta, delta)_E is 1.  The symbol is symmetric, so
    this is read as "delta is a norm from E(sqrt(beta))": one quadratic
    per (E, class of beta), kept on E (:func:`_tower_norm_image`), in
    place of one L per (E, delta).  A beta of trivial class is a square,
    a norm from every L, and needs no field.
    """
    if F.p != 2:
        raise ValueError("quartic tower enumeration needs a 2-adic base")
    if F.e * F.f > max_degree:
        raise GuardError(
            f"base degree {F.e * F.f} exceeds tower guard {max_degree}"
        )
    gens = [F.coerce(g) for g in gens]
    out = []
    for E, pairs in _tower_pairs(F):
        betas = [solve_norm_equation(E, g) for g in gens]
        bvecs = [None if beta is None else class_vec(E, beta, 2) for beta in betas]
        # a beta of trivial class is a square: a norm from every L
        images = [
            None if vec is None or not any(vec) else _tower_norm_image(E, vec)
            for vec in bvecs
        ]
        for wvec, group, symbol, disc in pairs:
            flags = tuple(
                vec is not None and (group == "D4" or M is None or M.reduce(wvec)[0] is None)
                for vec, M in zip(bvecs, images)
            )
            out.append(
                QuarticTower(
                    symbol=symbol,
                    group=group,
                    disc_val=disc,
                    aut=_GROUP_AUT[group],
                    pair_multiplicity=_GROUP_MULT[group],
                    norm_flags=flags,
                )
            )
    return out


def tally_towers(records, pred=None):
    """Field counts keyed by (symbol, group, disc_val).

    Sums reciprocal pair multiplicities, so a V4 field seen through its
    three quadratic subfields counts once.  A non-integer total means
    the records are inconsistent across pairs and raises.
    """
    acc = {}
    for r in records:
        if pred is not None and not pred(r):
            continue
        key = (r.symbol, r.group, r.disc_val)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(1, r.pair_multiplicity)
    out = {}
    for k, v in sorted(acc.items()):
        if v.denominator != 1:
            raise ArithmeticError(f"inconsistent pair multiplicities at {k}")
        out[k] = int(v)
    return out


# ---------------------------------------------------------------------------
# all totally ramified degree-p extensions, through resolvent descent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WildExtension:
    """A totally ramified degree-p extension of F, p the residue char.

    ``group`` names the Galois group of the closure: ``Cp`` for the
    cyclic ones, ``Cp:Cd`` for those whose closure is the semidirect
    product with the faithful degree-d resolvent twist.
    """

    disc_val: int
    aut: int
    group: str


def _square_class_product_reps(F):
    """One representative per nontrivial square class of F."""
    basis = square_class_basis(F)
    return [
        basis_product(F, basis, [(mask >> i) & 1 for i in range(len(basis))])
        for mask in range(1, 1 << len(basis))
    ]


def quadratic_extensions(F):
    """All quadratic extensions of F, one per square class."""
    return [quad_extend(F, d) for d in _square_class_product_reps(F)]


def cyclic_quartic_towers(F):
    """All C4 extensions of F, each as a tower of two quadratics.

    K = E(sqrt(delta)) is Galois over F exactly when the conjugate of
    delta stays in the same square class of E, and biquadratic exactly
    when delta is a base-field class; cyclic is Galois and not
    biquadratic.  Each C4 field has a unique quadratic subfield, so
    each appears exactly once.
    """
    out = []
    f_reps = _square_class_product_reps(F)
    for E in quadratic_extensions(F):
        base = Span(2, class_dim(E, 2))
        for g in f_reps:
            base.insert(class_vec(E, E.embed(g), 2))
        for d in _square_class_product_reps(E):
            ratio = E.mul(E.conj(d), E.inv(d))
            if any(class_vec(E, ratio, 2)):
                continue  # not Galois over F
            if base.reduce(class_vec(E, d, 2))[0] is None:
                continue  # biquadratic
            out.append(quad_extend(E, d))
    return out


def _elt_eq(K, x, y):
    """Equality of field elements to working precision."""
    return K.is_zero(K.sub(x, y))


def extend_conjugation(K):
    """Extend conj of E/F to a generator of Gal(K/F), K = E(rho) cyclic.

    The image of rho must satisfy the conjugated quadratic relation
    s^2 = conj(a) s + conj(b); either root works, and for a C4 tower
    both choices have order four.
    """
    E = K.base
    sa, sb = E.conj(K.a), E.conj(K.b)
    root = sqrt_exact(K, K.embed(sa * sa + 4 * sb))
    s = (K.embed(sa) + root) / 2

    def sigma(x):
        x0, x1 = x.data
        return K.embed(E.conj(x0)) + K.embed(E.conj(x1)) * s

    rho = K.rho()
    assert _elt_eq(K, sigma(sigma(sigma(sigma(rho)))), rho)
    assert not _elt_eq(K, sigma(sigma(rho)), rho), "tower is not cyclic"
    return sigma


def _resolvents(F):
    """(K, sigma, d, v_F(disc K), f(K/F)) for each resolvent K of F.

    K runs through the quadratic extensions (d = 2, sigma = conj) and,
    when 4 divides p - 1, the cyclic quartic towers (d = 4, sigma from
    :func:`extend_conjugation`).
    """
    out = [(K, K.conj, 2, K.disc_val, K.f // F.f) for K in quadratic_extensions(F)]
    if (F.p - 1) % 4 == 0:
        for K in cyclic_quartic_towers(F):
            E = K.base
            v_disc = 2 * E.disc_val + (E.f // F.f) * K.disc_val
            out.append((K, extend_conjugation(K), 4, v_disc, K.f // F.f))
    return out


def _eigenlines(p, rows, t, max_size):
    """The lines of characters chi with chi o sigma = t chi, as vectors.

    ``rows[j]`` is the class vector of sigma of the j-th basis element,
    so chi o sigma is the matrix with these rows applied to chi: the
    characters are the kernel of that matrix minus t, and its lines are
    counted against ``max_size`` before any is built.
    """
    n = len(rows)
    cols = [[r[i] - t * (i == j) for j, r in enumerate(rows)] for i in range(n)]
    basis = colspan(p, cols, n).kernel
    total = (p ** len(basis) - 1) // (p - 1)
    if total > max_size:
        raise GuardError(f"{total} eigencharacters exceeds guard {max_size}")
    for c in _lines(p, len(basis)):
        yield [sum(ck * v[i] for ck, v in zip(c, basis)) % p for i in range(n)]


def enum_wild_totally_ramified(F, max_size=DEFAULT_MAX_SIZE):
    """All totally ramified degree-p extensions of F, p the residue char.

    The cyclic ones come from characters of F^x/F^{x p}.  When mu_p is
    not in F, a non-Galois extension L has closure M with group
    C_p : C_d acting faithfully, d > 1 dividing p - 1; M is cyclic of
    degree p over the resolvent K (the unique cyclic degree-d subfield)
    and corresponds to a character of K^x/K^{x p} whose norm group is
    Galois-stable with twist eigenvalue of exact order d.  (This needs
    no hypothesis on mu_p: roots of unity make cyclic extensions
    Kummer, but non-Galois ones exist regardless.)  Conversely
    every such character yields one isomorphism class of L, with
    trivial automorphism group, and

        v_F(disc L) = (p - 1) (v_F(disc K) + f(K/F) cond) / d

    by the conductor-discriminant formula applied to the permutation
    character of G on G/C_d.  A stable character is an eigenvector of
    the action of a generator sigma of Gal(K/F) on characters, so only
    the eigenspaces of the eigenvalues of order d are enumerated, each
    line once, never the whole character group of K (``max_size``
    bounds the lines of one eigenspace).  Resolvents are enumerated as
    towers of quadratics, so the descent supports p - 1 in {2, 4}.
    """
    p = F.p
    out = [
        WildExtension(disc_val=r.disc_val, aut=p, group="Cp")
        for r in enum_cp_characters(F, max_size=max_size)
        if r.cond > 0
    ]
    if p == 2:
        return out  # quadratic extensions are always Galois
    if p - 1 not in (2, 4):
        raise GuardError("resolvent descent implemented for p - 1 in {2, 4}")
    for K, sigma, d, v_disc_k, f_rel in _resolvents(F):
        basis = unit_basis(K)
        rows = [p_class_coords(K, sigma(b)) for b in basis.elems]
        for t in range(2, p):
            # d is 2 or 4, so t has exact order d when t^d = 1 != t^(d/2)
            if pow(t, d, p) != 1 or pow(t, d // 2, p) == 1:
                continue
            for chi in _eigenlines(p, rows, t, max_size):
                # sigma keeps valuations, so t != 1 rules out the
                # unramified character: cond > 0
                cond = _conductor(basis.levels, chi)
                num = (p - 1) * (v_disc_k + f_rel * cond)
                assert cond > 0 and num % d == 0, (d, v_disc_k, f_rel, cond)
                out.append(WildExtension(disc_val=num // d, aut=1, group=f"Cp:C{d}"))
    return out


def wild_premass(F, records=None) -> Fraction:
    """Sum of 1/(#Aut * q^disc) over all totally ramified records."""
    if records is None:
        records = enum_wild_totally_ramified(F)
    return sum(
        (Fraction(1, r.aut * F.q**r.disc_val) for r in records), Fraction(0)
    )
