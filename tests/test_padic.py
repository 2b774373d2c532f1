"""Tests for exact p-adic field arithmetic and quadratic extensions."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etmass.padic import (
    INF,
    LocalField,
    PrecisionError,
    ResidueField,
    disc_val_quadratic,
    quad_extend,
)

FIELDS = [
    (2, 1, 1),
    (2, 2, 1),
    (2, 1, 2),
    (2, 3, 2),
    (3, 1, 1),
    (3, 2, 1),
    (5, 1, 2),
    (7, 1, 1),
]


def random_unit(F, rng, depth=6):
    while True:
        x = F.zero()
        for k in range(depth):
            coords = [int(t) for t in rng.integers(0, F.p, size=F.rf.f)]
            x = x + F.mul(F.power(F.pi(), k), F.lift(F.rf.from_coords(coords)))
        try:
            if F.val(x) == 0:
                return x
        except PrecisionError:
            continue


# ---------------------------------------------------------------------------
# residue fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,f", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1)])
def test_residue_field_axioms(p, f):
    rf = ResidueField(p, f)
    elems = list(rf.elements())
    assert len(elems) == p**f
    rng = np.random.default_rng(0)
    for _ in range(40):
        a, b, c = (elems[int(rng.integers(len(elems)))] for _ in range(3))
        assert rf.mul(a, rf.mul(b, c)) == rf.mul(rf.mul(a, b), c)
        assert rf.mul(a, rf.add(b, c)) == rf.add(rf.mul(a, b), rf.mul(a, c))
        if not rf.is_zero(a):
            assert rf.mul(a, rf.inv(a)) == rf.one
        # Frobenius inverse really is the p-th root
        assert rf.pow(rf.pth_root(a), p) == a


def test_residue_zero_powers():
    rf = ResidueField(3, 2)
    assert rf.pow(rf.zero, 5) == rf.zero
    assert rf.pow(rf.zero, 0) == rf.one


def test_square_detection_matches_enumeration():
    rf = ResidueField(5, 2)
    squares = {rf.mul(x, x) for x in rf.elements()}
    for x in rf.elements():
        assert rf.is_square(x) == (x in squares)


# ---------------------------------------------------------------------------
# base fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_field_ring_axioms(p, e, f):
    F = LocalField(p, e, f)
    rng = np.random.default_rng(1)
    for _ in range(15):
        a = random_unit(F, rng)
        b = random_unit(F, rng)
        assert F.unit_eq(a * b, b * a)
        assert F.unit_eq((a + b) * b, a * b + b * b)
        assert F.unit_eq(a * F.inv(a), F.one())
        assert F.unit_eq(F.inv(F.inv(a)), a)


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_valuations(p, e, f):
    F = LocalField(p, e, f)
    pi = F.pi()
    assert F.val(pi) == 1
    assert F.val(F.from_int(p)) == e
    assert F.val(F.power(pi, 5)) == 5
    assert F.val(F.shift(F.one(), -3)) == -3
    assert F.val(F.from_rational(Fraction(1, p))) == -e
    assert F.val(F.zero()) is INF


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_shift_and_inverse_roundtrip(p, e, f):
    F = LocalField(p, e, f)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_unit(F, rng)
        x = F.shift(a, -4)
        assert F.val(x) == -4
        assert F.unit_eq(F.shift(x, 4), a)
        assert F.unit_eq(x * F.power(F.pi(), 4), a)


def test_shift_up_lowers_pshift():
    # 2^-35 carries p-denominator 35 > K; multiplying by pi^40 must spend
    # that denominator rather than push the digits past p^K
    F = LocalField(2, 1, 1)
    assert F.K == 34
    x = F.shift(F.shift(F.one(), -35), 40)
    assert F.val(x) == 5
    assert F.unit_eq(x, F.power(F.pi(), 5))


def test_inverse_of_pshift_beyond_K():
    F = LocalField(2, 1, 1)
    x = F.power(F.pi(), -35)
    assert F.val(x) == -35
    y = F.inv(x)
    # pi^35 lies below the field's p^K window: known to be 0 mod pi^34
    assert F.unit_eq(y, F.power(F.pi(), 35))
    assert F.congruent(y, F.zero(), F.e * F.K)


def test_rational_coercion():
    F = LocalField(3, 1, 1)
    x = F.from_rational(Fraction(7, 5))
    assert F.unit_eq(x * F.from_int(5), F.from_int(7))
    assert F.val(F.from_rational(Fraction(9, 2))) == 2


def expansion_digits(F, x, t):
    """First t pi-adic digits of an integral element."""
    digits = []
    rem = x
    for k in range(t):
        d = F.digit(rem, k)
        digits.append(d)
        rem = rem - F.mul(F.power(F.pi(), k), F.lift(d))
    return digits


def test_precision_growth_consistency():
    # same computation at two precisions agrees on shared digits
    results = []
    for prec in (20, 40):
        field = LocalField(2, 3, 1, prec=prec)
        x = field.from_int(7) * field.inv(field.from_int(3)) + field.pi()
        results.append(expansion_digits(field, x, 18))
    assert results[0] == results[1]


# Kernel golden test: a seeded op sequence per field, hashed over each
# result's valuation and its first GOLDEN_DIGITS pi-adic digits.  The
# hashes were recorded with the tuple-of-W-tuples kernel that preceded the
# flat coefficient vector, so any change of representation must keep them.
GOLDEN_DIGITS = 6
GOLDEN = {
    (2, 1, 1): "d64734997a41ec87",
    (2, 2, 1): "951c834bcdba875d",
    (2, 1, 2): "e5e3cfbacac9cdc5",
    (2, 3, 2): "4e42160b2c50941f",
    (3, 1, 1): "cd7edf30838731f3",
    (3, 2, 1): "1ca7462deff07fa1",
    (5, 1, 2): "45c1620e8413087a",
    (7, 1, 1): "74ab169342e7f547",
}


def golden_element(F, rng):
    x = F.zero()
    for k in range(4):
        coords = [rng.randrange(F.p) for _ in range(F.f)]
        x = x + F.mul(F.power(F.pi(), k), F.lift(F.rf.from_coords(coords)))
    if F.val_lower(x) > 0:
        x = x + F.one()
    return F.shift(x, rng.randint(-3, 3))


def golden_sequence(F, seed):
    """Thirty results of mul, add, neg, shift +-k, inv, power, from_rational
    and normalize_pshift; half the steps chain on the previous result."""
    rng = random.Random(seed)
    prev = F.one()
    out = []
    for step in range(30):
        x = prev if rng.random() < 0.5 else golden_element(F, rng)
        y = golden_element(F, rng)
        op = step % 8
        if op == 0:
            z = F.mul(x, y)
        elif op == 1:
            z = F.add(x, y)
        elif op == 2:
            z = F.neg(x)
        elif op == 3:
            k = rng.randint(1, 5)
            z = F.shift(F.shift(x, k), -rng.randint(0, 2 * k))
        elif op == 4:
            z = F.inv(x)
        elif op == 5:
            z = F.power(y, rng.choice([-3, -2, 2, 3, 5]))
        elif op == 6:
            r = Fraction(rng.randint(1, 99) * rng.choice([-1, 1]), rng.randint(1, 99))
            z = F.mul(x, F.from_rational(r))
        else:
            z = F.normalize_pshift(F.shift(x, -rng.randint(1, 4)))
        out.append(z)
        if -6 <= F.val(z) <= 6:
            prev = z
    return out


@pytest.mark.parametrize("p,e,f", FIELDS)
def test_kernel_golden_digits(p, e, f):
    F = LocalField(p, e, f)
    h = hashlib.sha256()
    for z in golden_sequence(F, 1000 * p + 10 * e + f):
        v = F.val(z)
        assert z.prec >= v + GOLDEN_DIGITS
        h.update(repr((v, expansion_digits(F, F.shift(z, -v), GOLDEN_DIGITS))).encode())
    assert h.hexdigest()[:16] == GOLDEN[(p, e, f)]


def test_congruence_raises_beyond_precision():
    F = LocalField(2, 1, 1)
    x = F.pi()
    with pytest.raises(PrecisionError):
        F.congruent(x, F.zero(), F.e * F.K + 100)


@st.composite
def field_elements(draw, F):
    """pi^k times a unit with up to six pi-adic digits (k in -4..4)."""
    q = F.q
    digits = [draw(st.integers(1, q - 1))] + draw(st.lists(st.integers(0, q - 1), max_size=5))
    x = F.zero()
    for k, d in enumerate(digits):
        coords = [(d // F.p**j) % F.p for j in range(F.f)]
        x = x + F.mul(F.power(F.pi(), k), F.lift(F.rf.from_coords(coords)))
    return F.shift(x, draw(st.integers(-4, 4)))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_kernel_identities(data):
    F = LocalField(*data.draw(st.sampled_from(FIELDS)))
    x, y, z = (data.draw(field_elements(F)) for _ in range(3))
    k = data.draw(st.integers(-8, 8))
    checks = [
        (F.mul(F.mul(x, y), z), F.mul(x, F.mul(y, z))),
        (F.mul(x, F.add(y, z)), F.add(F.mul(x, y), F.mul(x, z))),
        (F.mul(x, F.inv(x)), F.one()),
        (F.shift(F.shift(x, k), -k), x),
    ]
    for lhs, rhs in checks:
        assert lhs.prec >= F.val(lhs) + 8  # the comparison is not vacuous
        assert F.unit_eq(lhs, rhs)
    assert F.val(F.mul(x, y)) == F.val(x) + F.val(y)


def vp_fraction(r, p):
    v, num, den = 0, r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(-5, 5), st.booleans()),
             min_size=2, max_size=2),
)
def test_kernel_matches_fraction_arithmetic(p, parts):
    # on Q_p (e = f = 1, u0 = 1) an element (vec, pshift) is the rational
    # vec[0] / p^pshift known modulo p^prec
    F = LocalField(p, 1, 1)
    a, b = (Fraction(n, d) for n, d, _, _ in parts)
    # valuations exactly k in -5..5, so the known precision stays ample
    a, b = (r * Fraction(p) ** (k - vp_fraction(r, p)) * (-1 if neg else 1)
            for r, (_, _, k, neg) in zip((a, b), parts))
    x, y = F.from_rational(a), F.from_rational(b)
    for z, r in ((x, a), (F.mul(x, y), a * b), (F.inv(x), 1 / a), (F.inv(F.mul(x, y)), 1 / (a * b))):
        assert F.val(z) == vp_fraction(r, p)
        assert z.prec >= F.val(z) + 8
        vec, s = z.data
        diff = Fraction(vec[0], p**s) - r
        assert diff == 0 or vp_fraction(diff, p) >= z.prec


# ---------------------------------------------------------------------------
# quadratic extensions
# ---------------------------------------------------------------------------


QUAD_CASES = [
    (2, 1, 1, -1, "ramified", 2),
    (2, 1, 1, 2, "ramified", 3),
    (2, 1, 1, -2, "ramified", 3),
    (2, 1, 1, 3, "ramified", 2),
    (2, 1, 1, 5, "unramified", 0),
    (3, 1, 1, 3, "ramified", 1),
    (3, 1, 1, 2, "unramified", 0),
    (5, 1, 1, 10, "ramified", 1),
    (5, 1, 1, 2, "unramified", 0),
]


@pytest.mark.parametrize("p,e,f,d,kind,disc", QUAD_CASES)
def test_quadratic_construction(p, e, f, d, kind, disc):
    F = LocalField(p, e, f)
    E = quad_extend(F, F.from_int(d))
    assert E.kind == kind
    assert E.disc_val == disc
    assert E.is_zero(E.zero())
    # sqrt(d) exists in E: x^2 = d for some x
    # For ramified with rho^2 = a rho + b the element sqrt(d) is
    # recoverable, but it is simpler to check the minimal polynomial:
    rho = E.rho()
    lhs = E.mul(rho, rho)
    rhs = E.coerce(E.a) * rho + E.coerce(E.b)
    assert E.unit_eq(lhs, rhs)


@pytest.mark.parametrize("p,e,f,d,kind,disc", QUAD_CASES)
def test_norm_trace_conjugate(p, e, f, d, kind, disc):
    F = LocalField(p, e, f)
    E = quad_extend(F, F.from_int(d))
    rng = np.random.default_rng(3)
    for _ in range(8):
        x = random_unit(E, rng)
        y = random_unit(E, rng)
        # norm is multiplicative, trace additive
        assert F.unit_eq(E.norm(E.mul(x, y)), F.mul(E.norm(x), E.norm(y)))
        assert F.unit_eq(E.trace(x + y), E.trace(x) + E.trace(y))
        # x * conj(x) = N(x) and x + conj(x) = Tr(x)
        assert E.unit_eq(E.mul(x, E.conj(x)), E.embed(E.norm(x)))
        assert E.unit_eq(x + E.conj(x), E.embed(E.trace(x)))
        # conjugation is an involution and fixes F
        assert E.unit_eq(E.conj(E.conj(x)), x)
    a = F.from_int(7)
    assert F.unit_eq(E.norm(E.embed(a)), a * a)


def test_quadratic_norm_valuation():
    # v_F(N(x)) = v_E(x) for ramified, 2 v_E(x) for unramified
    F = LocalField(2, 1, 1)
    for d, factor in [(-1, 1), (5, 2)]:
        E = quad_extend(F, F.from_int(d))
        x = E.pi()
        assert F.val(E.norm(x)) == factor


def test_square_input_rejected():
    F = LocalField(2, 1, 1)
    with pytest.raises(ValueError):
        quad_extend(F, F.from_int(17))
    G = LocalField(5, 1, 1)
    with pytest.raises(ValueError):
        quad_extend(G, G.from_int(4))


def test_disc_val_quadratic_q2_table():
    # classical table of discriminants of Q_2(sqrt(d)); d = 1 mod 8 is a square
    F = LocalField(2, 1, 1)
    table = {-1: 2, 3: 2, -5: 2, 7: 2, 2: 3, -2: 3, 6: 3, 10: 3, 5: 0, -3: 0}
    for d, m in table.items():
        assert disc_val_quadratic(F, F.from_int(d)) == m, d
    with pytest.raises(ValueError):
        disc_val_quadratic(F, F.from_int(-7))


def test_tower_of_quadratics():
    F = LocalField(2, 1, 1)
    E = quad_extend(F, F.from_int(-1))
    L = quad_extend(E, E.pi())
    assert L.e == 4 and L.f == 1
    assert L.p == 2 and L.q == 2
    assert L.val(L.pi()) == 1
    assert L.val(L.embed(E.pi())) == 2
    assert L.val(L.from_int(2)) == 4


def test_norm_transitivity_down_tower():
    F = LocalField(2, 1, 1)
    E = quad_extend(F, F.from_int(-1))
    L = quad_extend(E, E.pi())
    rng = np.random.default_rng(7)
    for _ in range(6):
        x = random_unit(L, rng)
        tot = E.norm(L.norm(x))  # N_{E/F}(N_{L/E}(x)) in F
        assert F.val(tot) == 0
    # totally ramified of degree 4: v_F(N_{L/F}(pi_L)) = 1
    assert F.val(E.norm(L.norm(L.pi()))) == 1
