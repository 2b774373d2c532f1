"""Tests for the structure of F^x modulo prime-power classes."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etmass import unitgroups as ug
from etmass.fplinalg import Span, colspan
from etmass.massquartic import hilbert2
from etmass.padic import INF, Elt, LocalField, PrecisionError, quad_extend

import strat_reference as ref_strat
from omega_reference import choose_omega
from test_padic import congruent, cut, random_unit
from tower_reference import disc_val_quadratic


def make_field(p, e, f, seed=0):
    return LocalField(p, e, f, seed=seed)


FIELDS = [
    (2, 1, 1),
    (2, 2, 1),
    (2, 1, 2),
    (2, 3, 2),
    (3, 1, 1),
    (3, 2, 1),
    (5, 1, 2),
]


# ---------------------------------------------------------------------------
# c_alpha and mu_p
# ---------------------------------------------------------------------------


def test_c_alpha_q2_known_values():
    F = make_field(2, 1, 1)
    expected = {-1: 1, 3: 1, 7: 1, -5: 1, 5: 2, -3: 2, 17: INF, 9: INF, 2: -1, 8: -1}
    for n, c in expected.items():
        got, lam = ug.c_alpha(F, F.from_int(n))
        assert got == c, n
        if c not in (-1, INF) and c > 0:
            ratio = F.mul(F.from_int(n), F.inv(F.power(lam, 2)))
            assert congruent(F, ratio, F.one(), c)


def test_c_alpha_even_valuation_reduces():
    F = make_field(2, 1, 1)
    c, lam = ug.c_alpha(F, F.from_int(20))  # 4 * 5
    assert c == 2
    assert F.val(lam) == 1


def _quad_disc_fields():
    Q2 = make_field(2, 1, 1)
    towers = [quad_extend(Q2, Q2.from_int(d)) for d in (-1, 2)]
    return [Q2, make_field(2, 2, 1), make_field(2, 1, 2), *towers]


@pytest.mark.parametrize("F", _quad_disc_fields(), ids=["Q2", "F21", "F12", "Q2(i)", "Q2(sqrt2)"])
def test_quad_disc_val_matches_c_alpha_route(F):
    # the discriminant read off a class vector equals the one computed
    # from c_alpha of a representative, on every nonzero square class
    basis = ug.unit_basis(F)
    for i in range(1, 2**basis.dim):
        vec = tuple((i >> j) & 1 for j in range(basis.dim))
        delta = ug.basis_product(F, basis.elems, vec)
        assert ug.p_class_coords(F, delta) == vec
        assert ug.quad_disc_val(F, vec) == disc_val_quadratic(F, delta), vec
    with pytest.raises(ValueError):
        ug.quad_disc_val(F, (0,) * basis.dim)


def test_mu_p_membership():
    assert ug.contains_mu_p(make_field(2, 1, 1))
    assert ug.contains_mu_p(make_field(2, 3, 2))
    assert not ug.contains_mu_p(make_field(3, 1, 1))
    assert not ug.contains_mu_p(make_field(3, 2, 1))  # Q_3(sqrt 3)
    assert ug.contains_mu_p(make_field(3, 2, 1, seed=2))  # Q_3(sqrt 6) = Q_3(zeta_3)
    # zeta_p generates a ramified extension, so unramified fields miss it
    assert not ug.contains_mu_p(make_field(3, 1, 2))
    assert not ug.contains_mu_p(make_field(5, 2, 1))
    assert not ug.contains_mu_p(make_field(5, 4, 1))  # x^4 = 5
    assert ug.contains_mu_p(make_field(5, 4, 1, seed=4))  # x^4 = -5: Q_5(zeta_5)


def test_mu_p_forces_classification_bounds():
    # c_alpha of a unit lies in {1..floor(pe/(p-1))} u {inf}; values
    # strictly below pe/(p-1) are prime to p; the top value needs mu_p.
    for p, e, f in FIELDS:
        F = make_field(p, e, f)
        T = (p * e) // (p - 1)
        rng = np.random.default_rng(11)
        for _ in range(25):
            u = random_unit(F, rng)
            c, _ = ug.c_alpha(F, u)
            if c is INF:
                continue
            assert 1 <= c <= T
            if c * (p - 1) < p * e:
                assert c % p != 0
            if c * (p - 1) == p * e:
                assert ug.contains_mu_p(F)


@pytest.mark.parametrize(
    "p,e,f,seed", [(p, e, f, 0) for p, e, f in FIELDS] + [(3, 2, 1, 2), (5, 4, 1, 0), (5, 4, 1, 4)]
)
def test_c_alpha_root_witnesses_the_level(p, e, f, seed):
    # alpha = lam^p modulo pi^c, and modulo pi^(T+1), T = pe/(p-1), for a
    # p-th power; the fields with (p-1) | e test the top level with and
    # without mu_p
    F = make_field(p, e, f, seed=seed)
    T = (p * e) // (p - 1)
    rng = np.random.default_rng(23)
    for k in range(12):
        u = random_unit(F, rng)
        alpha = F.power(u, p) if k % 2 else u
        c, lam = ug.c_alpha(F, alpha)
        assert c is INF or not k % 2
        assert congruent(F, alpha, F.power(lam, p), T + 1 if c is INF else c), (k, c)


# ---------------------------------------------------------------------------
# unit-class basis and coordinates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_basis_dimension_matches_quotient(p, e, f):
    F = make_field(p, e, f)
    b = ug.unit_basis(F)
    assert p**b.dim == ug.quotient_size(F, INF)
    expected = 1 + e * f + (1 if ug.contains_mu_p(F) else 0)
    assert b.dim == expected


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_basis_elements_give_unit_vectors(p, e, f):
    F = make_field(p, e, f)
    b = ug.unit_basis(F)
    for j, el in enumerate(b.elems):
        v = ug.p_class_coords(F, el)
        want = np.zeros(b.dim, dtype=np.int64)
        want[j] = 1
        assert np.array_equal(v, want), (j, b.levels[j])


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_coords_homomorphism_and_pth_powers(p, e, f):
    F = make_field(p, e, f)
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_unit(F, rng)
        b = random_unit(F, rng)
        va = ug.p_class_coords(F, a)
        vb = ug.p_class_coords(F, b)
        assert ug.p_class_coords(F, F.mul(a, b)) == tuple((x + y) % p for x, y in zip(va, vb))
        assert not any(ug.p_class_coords(F, F.power(a, p)))


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_c_alpha_is_min_nonzero_level(p, e, f):
    F = make_field(p, e, f)
    b = ug.unit_basis(F)
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_unit(F, rng)
        v = ug.p_class_coords(F, a)
        c, _ = ug.c_alpha(F, a)
        nz = [lev for lev, co in zip(b.levels, v) if co]
        assert c == (INF if not nz else min(nz))


def test_level_digits_build_no_difference(monkeypatch):
    # m - 1 is read in place (F.minus_one), and the roots and strip
    # factors of the wild levels are kept on F: once those are built, a
    # class read or a level of a unit calls no add and no neg of F
    Q2 = make_field(2, 1, 1)
    E = quad_extend(Q2, Q2.from_int(5))
    fields = [Q2, make_field(3, 2, 1), E, quad_extend(E, choose_omega(Q2, E))]
    rng = np.random.default_rng(37)
    for F in fields:
        units = [random_unit(F, rng) for _ in range(4)]
        units += [F.power(u, F.p) for u in units]  # level INF: every level stripped
        want = [(ug.p_class_coords(F, m), ug.c_alpha(F, m)[0]) for m in units]
        calls = []
        for name in ("add", "neg"):
            monkeypatch.setattr(F, name, lambda *a, f=getattr(F, name), n=name: calls.append(n) or f(*a))
        assert [(ug.p_class_coords(F, m), ug.c_alpha(F, m)[0]) for m in units] == want
        assert calls == [], F
        monkeypatch.undo()


def test_coords_on_quadratic_extensions():
    F = make_field(2, 1, 1)
    for d in (-1, 5, 2):
        E = quad_extend(F, F.from_int(d))
        b = ug.unit_basis(E)
        assert 2**b.dim == ug.quotient_size(E, INF)
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = random_unit(E, rng)
            bb = random_unit(E, rng)
            va = ug.p_class_coords(E, a)
            vb = ug.p_class_coords(E, bb)
            assert ug.p_class_coords(E, E.mul(a, bb)) == tuple((x + y) % 2 for x, y in zip(va, vb))
            assert not any(ug.p_class_coords(E, E.power(a, 2)))


def test_valuation_coordinate():
    F = make_field(3, 1, 1)
    v = ug.p_class_coords(F, F.power(F.pi(), 7))
    assert v[0] == 7 % 3
    assert not any(v[1:])


@pytest.mark.parametrize(
    "e,f,d", [(1, 1, None), (2, 1, None), (1, 2, None), (1, 1, 2), (1, 1, 5), (4, 1, None), (8, 1, None), (16, 1, None)]
)
def test_class_read_refuses_unknown_digits(e, f, d):
    # a square class is fixed by 2e + 1 known relative digits, a class mod
    # fourth powers by 3e + 1: a read from fewer must raise rather than
    # guess, and a read from that many or more must answer
    F = make_field(2, e, f)
    if d is not None:
        F = quad_extend(F, F.from_int(d))  # d = 2: ramified, 5: unramified
    rng = np.random.default_rng(29)
    for _ in range(6):
        x = F.shift(random_unit(F, rng), int(rng.integers(0, 4)))
        v = F.val(x)
        for r in range(1, 2 * F.e + 1):
            with pytest.raises(PrecisionError):
                ug.class_vec(F, cut(F, x, v + r), 2)
        assert ug.class_vec(F, cut(F, x, v + 2 * F.e + 1), 2) == ug.class_vec(F, x, 2)
        for r in range(1, 3 * F.e + 1):
            with pytest.raises(PrecisionError):
                ug.class4_vec(F, cut(F, x, v + r))
        full = ug.class4_vec(F, x)
        for r in range(3 * F.e + 1, min(5 * F.e + 3, x.prec - v + 1)):
            assert ug.class4_vec(F, cut(F, x, v + r)) == full, r


def test_class_read_of_three_mod_four():
    # 3 known modulo 2 or 4 could be 1, a square; modulo 8 it is not
    Q2 = make_field(2, 1, 1)
    three = Q2.from_int(3)
    for r in (1, 2):
        with pytest.raises(PrecisionError):
            ug.class_vec(Q2, Elt(Q2, three.data, r), 2)
    assert ug.class_vec(Q2, Elt(Q2, three.data, 3), 2) == (0, 1, 0)


# ---------------------------------------------------------------------------
# quotient and graded-piece sizes
# ---------------------------------------------------------------------------


def w_size(F, i) -> int:
    """Size of the graded piece U^(i)F^{xp}/U^(i+1)F^{xp} of the
    filtration: the reference that quotient_size is checked against."""
    p, e = F.p, F.e
    if i % p != 0 and Fraction(i) < Fraction(p * e, p - 1):
        return F.q
    if e % (p - 1) == 0 and i == (p * e) // (p - 1) and ug.contains_mu_p(F):
        return p
    return 1


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_quotient_size_formula_vs_w_sizes(p, e, f):
    # the full quotient factors through the graded pieces and the
    # valuation coordinate
    F = make_field(p, e, f)
    T = ug.ceil_frac(p * e, p - 1)
    prod = p  # valuation coordinate
    for i in range(0, T + 1):
        prod *= w_size(F, i)
    assert prod == ug.quotient_size(F, INF)
    # partial products give the finite-level quotients
    for c in range(0, T + 1):
        partial = p
        for i in range(0, c):
            partial *= w_size(F, i)
        assert partial == ug.quotient_size(F, c)


def test_quotient_size_q2_values():
    F = make_field(2, 1, 1)
    assert ug.quotient_size(F, INF) == 8
    assert [ug.quotient_size(F, c) for c in range(0, 3)] == [2, 2, 4]


def test_empirical_class_count_q2():
    # coordinates of many integers should hit all 8 classes
    F = make_field(2, 1, 1)
    seen = {
        tuple(ug.p_class_coords(F, F.from_int(n)))
        for n in range(1, 60)
        if n % 4 != 0
    }
    assert len(seen) == 8


# ---------------------------------------------------------------------------
# tame classes and stratified generating sets
# ---------------------------------------------------------------------------


def test_tame_class_vec():
    F = make_field(7, 1, 1)
    # squares mod 7: 1,2,4
    assert ug.class_vec(F, F.from_int(2), 2) == (0, 0)
    assert ug.class_vec(F, F.from_int(3), 2) == (0, 1)
    assert ug.class_vec(F, F.from_int(7), 2)[0] == 1
    # ell = 5 does not divide q - 1 = 6: only the valuation survives
    assert ug.class_vec(F, F.from_int(3), 5) == (0,)
    assert ug.class_vec(F, F.from_int(7), 5) == (1,)


def strata_agree_with_profile(F, gens, p):
    """The reference's stratified set and the profile read off it match
    the library's profile; returns the set."""
    s = ref_strat.strat_gens(F, gens, p)
    prof = ug.filtration_profile(F, gens, p)
    assert ref_strat.profile_from_strata(F, gens, p) == prof
    assert prof.group_size == p ** (len(s.A0) + len(s.A1))
    assert prof.size_at(0) == p ** len(s.A0)
    return s


def test_strat_gens_q2_square_classes():
    # (|A0|, |A1|) of a stratified generating set, read off the profile:
    # |Abar| = 2^(|A0| + |A1|) and |Abar_0| = 2^|A0|
    F = make_field(2, 1, 1)
    cases = {
        (-1,): (1, 0),
        (2,): (0, 1),
        (8,): (0, 1),
        (5,): (1, 0),
        (-1, 2): (1, 1),
        (17,): (0, 0),
        (6, 10): (1, 1),
        (2, 8): (0, 1),
    }
    def rank(vecs):
        return colspan(2, vecs, 3).log

    for ints, (n0, n1) in cases.items():
        gens = [F.from_int(g) for g in ints]
        prof = ug.filtration_profile(F, gens, 2)
        assert (prof.size_at(0), prof.group_size) == (2**n0, 2 ** (n0 + n1)), ints
        # the reference's elements have valuations 0 (A0) and 1 (A1), and
        # their classes generate the same subgroup as the input's
        s = strata_agree_with_profile(F, gens, 2)
        assert [F.val(a) for a in s.A0 + s.A1] == [0] * n0 + [1] * n1, ints
        in_vecs = [ug.class_vec(F, g, 2) for g in gens]
        out_vecs = [ug.class_vec(F, a, 2) for a in s.A0 + s.A1]
        assert rank(in_vecs + out_vecs) == rank(in_vecs) == rank(out_vecs) == s.rank, ints


def test_strat_gens_distinct_classes_and_minimality():
    F = make_field(2, 2, 1)
    gens = [F.from_int(n) for n in (3, 5, 7, -1, 2, 6)]
    s = strata_agree_with_profile(F, gens, 2)
    vecs = [tuple(ug.class_vec(F, a, 2)) for a in s.A0 + s.A1]
    assert len(set(vecs)) == len(vecs)
    assert all(any(v) for v in vecs)
    assert len(s.A1) <= 1
    assert 2**s.rank == s.group_size


def test_filtration_sizes_q2():
    F = make_field(2, 1, 1)
    table = {
        (-1,): [2, 2, 1],
        (5,): [2, 2, 2],
        (2,): [1, 1, 1],
        (-1, 5): [4, 4, 2],
        (-1, 2): [2, 2, 1],
        (): [1, 1, 1],
    }
    for gens, sizes in table.items():
        prof = ug.filtration_profile(F, [F.from_int(g) for g in gens], 2)
        assert list(prof.sizes) == sizes, gens


def test_filtration_profile_is_for_p_th_powers():
    # profiles serve the wild degree ell = p only
    F = make_field(3, 1, 1)
    for n in (2, 5, 9):
        with pytest.raises(ValueError):
            ug.filtration_profile(F, [F.from_int(2)], n)


def test_filtration_monotone_and_bounded():
    for p, e, f in FIELDS:
        F = make_field(p, e, f)
        rng = np.random.default_rng(23)
        gens = [random_unit(F, rng) for _ in range(2)] + [F.pi()]
        prof = ug.filtration_profile(F, gens, p)
        assert ref_strat.profile_from_strata(F, gens, p) == prof
        sizes = prof.sizes
        assert all(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1))
        assert sizes[0] <= prof.group_size
        assert sizes[-1] in (1, p)


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_strat_gens_property(seed):
    rng = np.random.default_rng(seed)
    p, e, f = [(2, 1, 1), (2, 2, 1), (3, 1, 1), (5, 1, 1)][int(rng.integers(4))]
    F = make_field(p, e, f)
    ints = [int(n) for n in rng.integers(-40, 40, size=3) if n != 0]
    gens = [F.from_int(n) for n in ints]
    s = strata_agree_with_profile(F, gens, p)
    assert len(s.A1) <= 1
    for a in s.A0:
        assert F.val(a) == 0
    for a in s.A1:
        assert F.val(a) == 1
    vecs = [tuple(ug.class_vec(F, a, p)) for a in s.A0 + s.A1]
    assert len(set(vecs)) == len(vecs)
    assert all(any(v) for v in vecs)


# ---------------------------------------------------------------------------
# norm images of quadratic extensions
# ---------------------------------------------------------------------------


def _quadratic_extensions(F):
    """Every quadratic extension of F, one per nontrivial square class."""
    basis = ug.square_class_basis(F)
    out = []
    for mask in range(1, 1 << len(basis)):
        d = F.one()
        for j, b in enumerate(basis):
            if mask >> j & 1:
                d = F.mul(d, b)
        out.append(quad_extend(F, d))
    return out


def _norm_image_cases():
    """Quadratic E/F over small bases, and towers M = E(sqrt(omega))/E
    for every cyclic-extendable E of Q_2 and of the ramified (2,2,1)."""
    cases = []
    for p, e, f in [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (5, 1, 1)]:
        cases.extend(_quadratic_extensions(make_field(p, e, f)))
    for p, e, f in [(2, 1, 1), (2, 2, 1)]:
        F = make_field(p, e, f)
        for E in _quadratic_extensions(F):
            if hilbert2(F, -1, F.coerce(E.d)) == 1:
                cases.append(quad_extend(E, choose_omega(F, E)))
    return cases


def _norm_cols(E, elems):
    """The norm classes of the given elements of E, as columns."""
    return [ug.class_vec(E.base, E.norm(b), 2) for b in elems]


def _full_norm_image(E):
    """Reference: the span of the norm classes of E's whole square-class
    basis, and their number."""
    cols = _norm_cols(E, ug.square_class_basis(E))
    return colspan(2, cols, ug.class_dim(E.base, 2)), len(cols)


def test_norm_class_matrix_spans_full_basis_image():
    # the span may stop early but must be the same hyperplane
    full_walks = early_stops = 0
    for E in _norm_image_cases():
        ref, ref_cols = _full_norm_image(E)
        M = ug.norm_class_matrix(E)
        walked = ug._norm_image(E)[1]
        both = colspan(2, _norm_cols(E, [*ug.square_class_basis(E), *walked]), ref.n)
        assert ref.log == M.log == both.log == ref.n - 1
        assert len(walked) <= ref_cols
        # for p = 2 a full walk is one that needed the top element
        full_walks += len(walked) == ref_cols and E.p == 2
        early_stops += len(walked) < ref_cols
    assert full_walks and early_stops


def test_solve_norm_equation_round_trips():
    for E in _norm_image_cases():
        F = E.base
        ref = _full_norm_image(E)[0]
        # every basis class of F, and each basis norm of E times one
        fb = ug.square_class_basis(F)
        eb = ug.square_class_basis(E)
        alphas = fb + [F.mul(E.norm(b), fb[j % len(fb)]) for j, b in enumerate(eb)]
        for alpha in alphas:
            beta = ug.solve_norm_equation(E, alpha)
            if ref.solve(ug.class_vec(F, alpha, 2)) is None:
                assert beta is None
            else:
                assert beta is not None
                assert F.is_zero(F.sub(E.norm(beta), alpha))


def test_second_solve_walks_no_element(monkeypatch):
    # the walked elements are kept beside the norm image, so only the
    # first solve on E builds the 1 + shift(u, i) of the walk; over a
    # quadratic E and over a tower M = E(sqrt(omega))
    F = make_field(2, 2, 1)
    E = quad_extend(F, F.from_int(-1))
    for K in (E, None):
        if K is None:  # choose_omega solves on E, so after E's turn
            K = quad_extend(E, choose_omega(F, E))
        shifts, shift = [], K.shift
        monkeypatch.setattr(K, "shift", lambda x, k, s=shifts, f=shift: s.append(k) or f(x, k))
        rho = K.rho()
        alphas = [K.norm(K.one() + rho), K.norm(K.from_int(3) + rho)]
        assert ug.solve_norm_equation(K, alphas[0]) is not None
        assert shifts
        shifts.clear()
        assert ug.solve_norm_equation(K, alphas[1]) is not None
        assert ug.solve_norm_equation(K, alphas[0]) is not None
        assert shifts == []


def test_second_solves_insert_no_row(monkeypatch):
    # the spans of phi and of a norm image are kept on their fields, so
    # a repeated solve on the same field eliminates nothing
    inserts, insert = [], Span.insert
    monkeypatch.setattr(Span, "insert", lambda self, v: inserts.append(v) or insert(self, v))
    F = make_field(2, 2, 1)
    E = quad_extend(F, F.from_int(-1))
    alpha = E.norm(E.one() + E.rho())
    r = F.rf.from_coords([1])
    assert ug.solve_norm_equation(E, alpha) is not None
    ug.phi_matrix(F).solve(F.rf.coords(r))
    assert inserts
    inserts.clear()
    assert ug.solve_norm_equation(E, alpha) is not None
    ug.phi_matrix(F).solve(F.rf.coords(r))
    assert inserts == []


def _phi(F, y):
    """phi(y) = y + (pi^e/p) y^p, from its definition."""
    rf = F.rf
    return rf.add(y, rf.mul(ug._pi_e_over_p_residue(F), rf.pow(y, F.p)))


@pytest.mark.parametrize("p,e,f", [(2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1), (3, 2, 2)])
def test_phi_preimage_and_non_phi_value(p, e, f):
    F = make_field(p, e, f)
    rf = F.rf
    image = {_phi(F, y) for y in rf.elements()}
    for r in rf.elements():
        sol = ug.phi_matrix(F).solve(rf.coords(r))
        assert (sol is None) == (r not in image), r
        if sol is not None:
            assert _phi(F, rf.from_coords(sol)) == r
    # phi misses a residue exactly when mu_p lies in F
    assert (len(image) < F.q) == ug.contains_mu_p(F)
    if ug.contains_mu_p(F):
        assert ug._non_phi_value(F) not in image
    else:
        with pytest.raises(ArithmeticError):
            ug._non_phi_value(F)


# ---------------------------------------------------------------------------
# exact square roots
# ---------------------------------------------------------------------------


def _sqrt_with_inverses(F, w):
    """Reference square root: Newton y <- (y + u/y)/2 from the same start
    as ``sqrt_exact``, with a full inverse in every step and a fixed step
    count."""
    v = F.val(w)
    u = F.shift(w, -v) if v else w
    if F.p == 2:
        y = ug.c_alpha(F, u)[1]
    else:
        y = F.lift(ug._rf_sqrt(F.rf, F.residue(u)))
    two_inv = F.inv(F.from_int(2))
    steps = 1
    while (1 << steps) < F.prec + 2 * F.e + 2:
        steps += 1
    for _ in range(steps + 1):
        y = F.normalize_pshift(F.mul(F.add(y, F.mul(u, F.inv(y))), two_inv))
    return F.shift(y, v // 2), y


def _sqrt_fields():
    fields = [make_field(2, e, f) for e, f in [(1, 1), (2, 1), (3, 1), (2, 2), (5, 1)]]
    Q5 = make_field(5, 1, 1)
    fields += [make_field(3, 1, 1), Q5, quad_extend(Q5, Q5.from_int(2))]
    return fields


@pytest.mark.parametrize("F", _sqrt_fields(), ids=repr)
def test_sqrt_exact_on_random_squares(F, monkeypatch):
    rng = np.random.default_rng(7 * F.p + F.e + 3 * F.f)
    # v(2) + 1: the level at which the two roots of a unit differ
    sep = (F.e if F.p == 2 else 0) + 1
    ws = []
    for k in range(12):
        x = random_unit(F, rng)
        ws.append(F.normalize_pshift(F.shift(F.mul(x, x), 2 * (k % 5) - 4)))
    roots = []
    for w in ws:
        y = ug.sqrt_exact(F, w)
        ref, start_root = _sqrt_with_inverses(F, w)
        v = F.val(w)
        # y^2 = w to the precision y carries
        d = F.mul(y, y) - w
        assert d.exact or F.val_lower(d) >= min(y.prec + F.val(y), w.prec)
        # the root congruent to the start value, known no worse than by
        # Newton with inverses
        assert congruent(F, F.shift(y, -(v // 2)), start_root, sep)
        assert F.is_zero(F.sub(y, ref))
        assert y.prec >= ref.prec
        roots.append(y)

    # once the field's strip factors exist, a call makes one inverse
    calls = [0]
    inv = F.inv

    def counting(x):
        calls[0] += 1
        return inv(x)

    monkeypatch.setattr(F, "inv", counting, raising=False)
    for w, y in zip(ws, roots):
        calls[0] = 0
        again = ug.sqrt_exact(F, w)
        assert calls[0] <= 1
        assert F.is_zero(F.sub(again, y)) and again.prec == y.prec
    monkeypatch.undo()

    # non-squares and odd valuations are refused
    x = random_unit(F, rng)
    x2 = F.mul(x, x)
    for b in ug.square_class_basis(F):
        with pytest.raises(ValueError):
            ug.sqrt_exact(F, F.mul(x2, b))
    with pytest.raises(ValueError):
        ug.sqrt_exact(F, F.shift(x2, 3))


# ---------------------------------------------------------------------------
# classes modulo fourth powers
# ---------------------------------------------------------------------------


def _class4_fields():
    Q2 = make_field(2, 1, 1)
    return [Q2, make_field(2, 2, 1), make_field(2, 1, 2), make_field(2, 3, 1), quad_extend(Q2, Q2.from_int(-1))]


@pytest.mark.parametrize("F", _class4_fields(), ids=repr)
def test_class4_vec_is_a_homomorphism_onto_g(F):
    # class4_vec is additive modulo the relation 2c(-1), kills fourth
    # powers, and sends b_j to the unit vector e_j
    rel = tuple(2 * a % 4 for a in ug.class_vec(F, F.from_int(-1), 2))

    def same(v, w):
        d = tuple((a - b) % 4 for a, b in zip(v, w))
        return not any(d) or d == rel

    basis = ug.unit_basis(F)
    for j, b in enumerate(basis.elems):
        assert same(ug.class4_vec(F, b), tuple(int(i == j) for i in range(basis.dim)))
    rng = np.random.default_rng(71 + F.e + 2 * F.f)
    for _ in range(6):
        x = F.mul(random_unit(F, rng), F.power(F.pi(), int(rng.integers(0, 4))))
        y = random_unit(F, rng)
        vx, vy = ug.class4_vec(F, x), ug.class4_vec(F, y)
        assert same(ug.class4_vec(F, F.mul(x, y)), tuple((a + b) % 4 for a, b in zip(vx, vy)))
        assert same(ug.class4_vec(F, F.power(x, 4)), (0,) * basis.dim)


def _class4_by_square_root(F, x):
    """c + 2 class_vec(sqrt_exact(x prod b_j^(-c_j))), c the square class
    of x: the class of x mod fourth powers by its definition."""
    basis = ug.unit_basis(F)
    c = ug.class_vec(F, x, 2)
    for b, cj in zip(basis.elems, c):
        if cj:
            x = F.mul(x, F.inv(b))
    cy = ug.class_vec(F, ug.sqrt_exact(F, x), 2)
    return tuple((a + 2 * b) % 4 for a, b in zip(c, cy))


@pytest.mark.parametrize("F", _class4_fields() + [make_field(2, 4, 1), make_field(2, 2, 2)], ids=repr)
def test_class4_vec_matches_square_root_reference(F):
    # the walk's class equals the square-root definition up to the
    # relation 2c(-1): on the basis, on every level element 1 + theta pi^j
    # with 1 <= j <= 3e + 1, and on seeded elements of mixed valuation
    rel = tuple(2 * a % 4 for a in ug.class_vec(F, F.from_int(-1), 2))
    basis = ug.unit_basis(F)
    one = F.one()
    xs = list(basis.elems)
    xs += [one + F.shift(t, j) for j in range(1, 3 * F.e + 2) for t in F.residue_lifts()]
    rng = np.random.default_rng(83 + F.e + 2 * F.f)
    for _ in range(20):
        x = F.mul(random_unit(F, rng), F.power(F.pi(), int(rng.integers(-3, 5))))
        for b in basis.elems[1:]:
            x = F.mul(x, F.power(b, int(rng.integers(0, 4))))
        xs.append(x)
    for x in xs:
        d = tuple((a - b) % 4 for a, b in zip(ug.class4_vec(F, x), _class4_by_square_root(F, x)))
        assert not any(d) or d == rel, x


@pytest.mark.parametrize("F", _class4_fields(), ids=repr)
def test_level_classes4_stop_at_3e(F):
    # 1 + theta pi^j is a fourth power for j > 3e but not, for some
    # theta, at j = 3e; the levels are listed in order, f per level
    levels = ug.level_classes4(F)
    e = F.e
    assert [j for j, _ in levels] == [j for j in range(1, 3 * e + 1) for _ in range(F.rf.f)]
    rel = tuple(2 * a % 4 for a in ug.class_vec(F, F.from_int(-1), 2))
    assert any(v != rel and any(v) for j, v in levels if j == 3 * e)
    one = F.one()
    for t in F.residue_lifts():
        v = ug.class4_vec(F, one + F.shift(t, 3 * e + 1))
        assert not any(v) or v == rel
