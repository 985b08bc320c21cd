from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcff.algebra import (
    Poly,
    enumerate_monic_below,
    field_create,
    format_poly,
    monic_of_degree,
    one,
    parse_poly,
    poly_cmp,
    poly_gcd,
    poly_phi,
    poly_powmod,
    var_T,
    zero,
)
from qcff.errors import (
    ConfigError,
    DivisionByZero,
    GcdOfZeros,
    NonpositiveBound,
    ValidationError,
)

from .oracles import naive_fq_add, naive_fq_mul, naive_poly_add, naive_poly_mul, naive_powmod

CTX3 = field_create(3)
CTX9 = field_create(3, 2, [1, 0, 1])
CTX17 = field_create(17)
THREE_FIELDS = pytest.mark.parametrize("ctx", [CTX3, CTX9, CTX17], ids=["F3", "F9", "F17"])


def polys(ctx, max_len=8):
    return st.lists(st.integers(0, ctx.q - 1), max_size=max_len).map(
        lambda cs: Poly(ctx, cs))


def nonzero_polys(ctx, max_len=8):
    return polys(ctx, max_len).filter(lambda f: not f.is_zero)


def test_divrem_example(ctx3, mk):
    q, r = divmod(mk(ctx3, "T^2+1"), mk(ctx3, "T+1"))
    assert q == mk(ctx3, "T+2")
    assert r == mk(ctx3, "2")


def test_gcd_example(ctx3, mk):
    assert poly_gcd(mk(ctx3, "T^2+2*T+1"), mk(ctx3, "T+1")) == mk(ctx3, "T+1")


def test_powmod_example(ctx3, mk):
    assert poly_powmod(var_T(ctx3), 4, mk(ctx3, "T^2+1")) == one(ctx3)


@given(f=polys(CTX3), g=polys(CTX3))
def test_mul_matches_naive_convolution(f, g):
    assert f * g == naive_poly_mul(CTX3, f, g)


@given(f=polys(CTX9, 6), g=polys(CTX9, 6))
def test_mul_matches_naive_convolution_extension_field(f, g):
    assert f * g == naive_poly_mul(CTX9, f, g)


@given(f=polys(CTX3), g=nonzero_polys(CTX3))
def test_divrem_round_trip(f, g):
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


@given(f=polys(CTX3), g=polys(CTX3), h=polys(CTX3))
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == zero(CTX3)


@pytest.mark.parametrize("ctx", [CTX3, CTX9], ids=["F3", "F9"])
@given(data=st.data())
def test_derivative_is_a_derivation(ctx, data):
    f, g = data.draw(polys(ctx, 6)), data.draw(polys(ctx, 6))
    assert (f + g).derivative() == f.derivative() + g.derivative()
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
    T = var_T(ctx)
    assert T.derivative() == one(ctx)
    assert (T ** ctx.p).derivative() == zero(ctx)


@given(f=nonzero_polys(CTX3), g=nonzero_polys(CTX3))
def test_gcd_divides_both_and_is_monic(f, g):
    d = poly_gcd(f, g)
    assert d.monic
    assert (f % d).is_zero and (g % d).is_zero


@settings(max_examples=30)
@given(f=nonzero_polys(CTX3, 5), n=st.integers(0, 50), m=nonzero_polys(CTX3, 5))
def test_powmod_matches_repeated_multiplication(f, n, m):
    if m.is_constant:
        return
    expected = one(CTX3)
    for _ in range(n):
        expected = (expected * f) % m
    assert poly_powmod(f, n, m) == expected


# n < 2**70 from 9 random bytes: st.integers over so wide a range draws
# mostly small values, which never leave the kernel's 64-bit exponent
_WIDE_EXPONENTS = st.binary(min_size=9, max_size=9).map(
    lambda b: int.from_bytes(b, "little") >> 2)


@pytest.mark.parametrize("ctx", [CTX3, CTX9], ids=["F3", "F9"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=_WIDE_EXPONENTS)
def test_powmod_matches_naive_past_the_kernel_exponent(ctx, data, n):
    """Past 2**62 poly_powmod steps through n 62 bits at a time on the
    kernel's ppowmod; square and multiply on naive products agrees."""
    f = data.draw(polys(ctx, 6))
    m = data.draw(nonzero_polys(ctx, 6).filter(lambda g: not g.is_constant))
    assert list(poly_powmod(f, n, m).coeffs) == naive_powmod(ctx, f.coeffs, n, m.coeffs)


def test_division_errors(ctx3, mk):
    with pytest.raises(DivisionByZero):
        divmod(mk(ctx3, "T"), zero(ctx3))
    with pytest.raises(GcdOfZeros):
        poly_gcd(zero(ctx3), zero(ctx3))
    with pytest.raises(ValidationError):
        poly_powmod(var_T(ctx3), 2, one(ctx3))
    with pytest.raises(DivisionByZero):
        poly_powmod(var_T(ctx3), 2, zero(ctx3))


def _random_polys(ctx, count=20, max_len=7):
    rng = random.Random(ctx.q)
    return [Poly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randrange(max_len))])
            for _ in range(count)]


@THREE_FIELDS
def test_negation_and_reflected_subtraction(ctx):
    """-f and 1 - f against naive sums: f + (-f) = 0, (1 - f) + f = 1, and
    the -1 that negation scales by adds to 1 to give 0."""
    assert naive_fq_add(ctx, ctx.minus_one, 1) == 0
    for f in _random_polys(ctx):
        assert naive_poly_add(ctx, f, -f) == zero(ctx)
        assert naive_poly_add(ctx, 1 - f, f) == one(ctx)


@THREE_FIELDS
def test_iteration_truth_and_evaluation(ctx):
    """iter(f) runs through the coefficients from degree 0 up, bool(f) is
    f != 0, and f.eval_at(x) is Horner's rule on naive field operations."""
    for f in _random_polys(ctx):
        assert list(f) == list(f.coeffs) and bool(f) == (f != zero(ctx))
        for x in range(0, ctx.q, max(1, ctx.q // 5)):
            expected = 0
            for c in reversed(f.coeffs):
                expected = naive_fq_add(ctx, naive_fq_mul(ctx, expected, x), c)
            assert f.eval_at(x) == expected, (f, x)
    assert list(zero(ctx)) == [] and not zero(ctx) and one(ctx)


def test_cmp_examples(ctx3, mk):
    assert poly_cmp(mk(ctx3, "T"), mk(ctx3, "T+1")) < 0
    assert poly_cmp(mk(ctx3, "T+2"), mk(ctx3, "T^2")) < 0
    f = mk(ctx3, "T^2+2*T")
    assert poly_cmp(f, f) == 0


@given(f=polys(CTX3), g=polys(CTX3), h=polys(CTX3))
def test_cmp_is_strict_total_order(f, g, h):
    # antisymmetry
    assert poly_cmp(f, g) == -poly_cmp(g, f)
    assert (poly_cmp(f, g) == 0) == (f == g)
    # transitivity
    if poly_cmp(f, g) <= 0 and poly_cmp(g, h) <= 0:
        assert poly_cmp(f, h) <= 0


def _cmp_by_definition(f, g):
    # degree first, then coefficients from the top down
    if f.degree != g.degree:
        return -1 if f.degree < g.degree else 1
    for x, y in zip(reversed(f.coeffs), reversed(g.coeffs)):
        if x != y:
            return -1 if x < y else 1
    return 0


@given(f=polys(CTX3, max_len=4), g=polys(CTX3, max_len=4))  # short: degrees often tie
def test_sort_key_order_is_poly_cmp_order(f, g):
    expected = _cmp_by_definition(f, g)
    assert poly_cmp(f, g) == expected
    assert (f.sort_key < g.sort_key) == (expected < 0)
    assert (f.sort_key == g.sort_key) == (expected == 0)


def test_enumerate_monic_below_examples(ctx3, ctx5, mk):
    assert list(enumerate_monic_below(ctx3, 1)) == [one(ctx3)]
    got = [str(f) for f in enumerate_monic_below(ctx3, 2)]
    assert got == ["1", "T", "T+1", "T+2"]
    assert sum(1 for _ in enumerate_monic_below(ctx5, 2)) == 6  # (25-1)/4


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_enumerate_monic_below_count_and_distinct(ctx3, d):
    seen = list(enumerate_monic_below(ctx3, d))
    assert len(seen) == (ctx3.q ** d - 1) // (ctx3.q - 1)
    assert len(set(seen)) == len(seen)
    assert all(f.monic and f.degree < d for f in seen)
    # canonical order
    assert all(poly_cmp(a, b) < 0 for a, b in zip(seen, seen[1:]))


def test_enumerate_monic_below_rejects_nonpositive(ctx3):
    with pytest.raises(NonpositiveBound):
        list(enumerate_monic_below(ctx3, 0))


def test_monic_of_degree_counts(ctx5):
    assert sum(1 for _ in monic_of_degree(ctx5, 3)) == 125


def test_parse_and_format(ctx3, mk):
    f = parse_poly(ctx3, "2*T^3+T+1")
    assert f.coeffs == (1, 1, 0, 2)
    assert format_poly(f) == "2*T^3+T+1"
    assert parse_poly(ctx3, " 2 * T^3 + T + 1 ") == f
    assert parse_poly(ctx3, "2T^3+T+1") == f
    assert format_poly(zero(ctx3)) == "0"
    assert parse_poly(ctx3, "0") == zero(ctx3)
    assert parse_poly(ctx3, "T^1+T^0") == mk(ctx3, "T+1")
    assert parse_poly(ctx3, "T+T") == mk(ctx3, "2*T")  # coefficients merge


def test_parse_rejections(ctx3):
    # the last two spell 2 with an Arabic-Indic digit, which int() accepts
    for bad in ["", "T^-1", "T+", "3*T", "x+1", "2**T", "T^\u0662", "\u0662*T"]:
        with pytest.raises(ConfigError):
            parse_poly(ctx3, bad)


@pytest.mark.parametrize("call,error", [
    (lambda: parse_poly(CTX3, None), ConfigError),
    (lambda: parse_poly(CTX3, 5), ConfigError),
    (lambda: format_poly(3), ValidationError),
    (lambda: poly_phi(CTX3, [1]), ValidationError),
], ids=["parse_none", "parse_int", "format_int", "phi_of_int"])
def test_entry_points_reject_wrong_types(call, error):
    """A value of the wrong type is the documented error of the entry point
    (parse_poly's for unparsable text), not an AttributeError."""
    with pytest.raises(error):
        call()


@given(f=polys(CTX3))
def test_format_parse_round_trip(f):
    assert parse_poly(CTX3, format_poly(f)) == f


@given(f=polys(CTX9, 5))
def test_format_parse_round_trip_extension(f):
    assert parse_poly(CTX9, format_poly(f)) == f


def test_degree_marker_for_zero(ctx3):
    assert zero(ctx3).degree == -1
    assert zero(ctx3).is_zero


def test_poly_rejects_bad_coefficients(ctx3):
    with pytest.raises(ValidationError):
        Poly(ctx3, [3])
    with pytest.raises(ValidationError):
        Poly(ctx3, [-1])
    # a bool is an int to Python but no encoded element
    for coeffs in ([True, 1], [1, False, 1]):
        with pytest.raises(ValidationError):
            Poly(ctx3, coeffs)
    with pytest.raises(ValidationError):
        var_T(ctx3) + True
    with pytest.raises(ValidationError, match="FieldCtx"):
        Poly(None, [1])


def test_bool_scalars_and_exponents_rejected(ctx3):
    """A bool is no encoded element for scale and no exponent for
    poly_powmod, as it is no coefficient for Poly."""
    t = var_T(ctx3)
    for flag in (True, False):
        with pytest.raises(ValidationError):
            t.scale(flag)
        with pytest.raises(ValidationError):
            poly_powmod(t, flag, t * t + 1)
    assert t.scale(1) == poly_powmod(t, 1, t * t + 1) == t


def test_bool_power_and_degree_bound_rejected(ctx3):
    """A bool is no exponent for **, and no degree bound for
    enumerate_monic_below: T ** True is not T, and a bound of True does
    not enumerate [1]."""
    t = var_T(ctx3)
    for flag in (True, False):
        with pytest.raises(ValidationError):
            t ** flag
        with pytest.raises(NonpositiveBound):
            list(enumerate_monic_below(ctx3, flag))
    assert t ** 1 == t
    assert list(enumerate_monic_below(ctx3, 1)) == [one(ctx3)]


def test_cross_field_arithmetic_rejected(ctx3, ctx5):
    with pytest.raises(ValidationError):
        var_T(ctx3) + var_T(ctx5)
