"""Backend equivalence: the compiled kernel must agree with the pure one."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qcff._kernels import CompiledFieldKernel, PureFieldKernel, pure
from qcff._kernels.pure import BYTES_MAX_Q, _GroupSums
from qcff.algebra import Poly, field, field_create, poly_is_irreducible, poly_powmod
from qcff.algebra.factor import frobenius_table

from .oracles import (
    divisor_per_step_pgcd,
    frobenius_fold,
    itoh_tsujii_norm,
    list_distinct_degree_split,
    list_frobenius_rows,
    naive_divrem,
    naive_gcd,
    naive_poly_add,
    naive_poly_mul,
    naive_powmod,
    table_rows,
)

# the last three have no addition table (q > 256): F_257 adds through its
# 2p sums, F_3^6 and F_7^3 through digit groups of 5 + 1 and of 2 + 1
FIELDS = [(3, 1, None), (5, 1, None), (7, 1, None), (3, 2, [1, 0, 1]),
          (5, 2, [2, 0, 1]), (257, 1, None), (3, 6, [2, 1, 0, 0, 0, 0, 1]),
          (7, 3, [2, 0, 0, 1])]

needs_compiled = pytest.mark.skipif(
    CompiledFieldKernel is None, reason="compiled kernel not built")


def _kernels(p, e, mod):
    ctx = field_create(p, e, mod)
    pure = PureFieldKernel(ctx.p, ctx.e, ctx.exp, ctx.log)
    comp = CompiledFieldKernel(ctx.p, ctx.e, ctx.exp, ctx.log)
    return ctx, pure, comp


def _rand_poly(rng, q, max_len):
    """Random stripped coefficient sequence, a list or a tuple (Poly passes
    its tuples straight to the kernel)."""
    coeffs = [rng.randrange(q) for _ in range(rng.randrange(max_len))]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs) if rng.random() < 0.5 else coeffs


@needs_compiled
@pytest.mark.parametrize("p,e,mod", FIELDS)
def test_backends_agree_on_random_inputs(p, e, mod):
    """Random pairs, and dividends shorter than the divisor or with zeros on
    top, which both kernels return stripped, as schoolbook division does:
    mod T**5 + 1, [0, 0, 0] leaves [] and [1, 0] leaves [1]."""
    ctx, pure, comp = _kernels(p, e, mod)
    m = [1, 0, 0, 0, 0, 1]
    for f in ([0, 0, 0], [1, 0], [0]):
        assert pure.pdivrem(f, m) == comp.pdivrem(f, m) == naive_divrem(ctx, f, m)
    rng = random.Random(99)
    for _ in range(400):
        f = _rand_poly(rng, ctx.q, 10)
        g = _rand_poly(rng, ctx.q, 10)
        assert pure.padd(f, g) == comp.padd(f, g)
        assert pure.psub(f, g) == comp.psub(f, g)
        assert pure.pmul(f, g) == comp.pmul(f, g)
        assert pure.pmonic(f) == comp.pmonic(f)
        if g:
            assert pure.pdivrem(f, g) == comp.pdivrem(f, g)
            assert pure.prem(f, g) == comp.prem(f, g)
            z = list(f[:len(g) - 1]) + [0] * rng.randrange(4)
            assert pure.pdivrem(z, g) == comp.pdivrem(z, g) == naive_divrem(ctx, z, g), (z, g)
            assert pure.prem(z, g) == comp.prem(z, g), (z, g)
        if f or g:
            assert pure.pgcd(f, g) == comp.pgcd(f, g)
        if len(g) >= 2:
            n = rng.randrange(10 ** 9)
            assert pure.ppowmod(f, n, g) == comp.ppowmod(f, n, g)
    # operands of up to 96 coefficients, where the pure kernel runs on bytes
    for _ in range(60 if ctx.q <= BYTES_MAX_Q else 0):
        f = _rand_poly(rng, ctx.q, 97)
        g = _rand_poly(rng, ctx.q, 97)
        assert pure.pmul(f, g) == comp.pmul(f, g)
        if g:
            assert pure.pdivrem(f, g) == comp.pdivrem(f, g)
            assert pure.prem(f, g) == comp.prem(f, g)
        if f or g:
            assert pure.pgcd(f, g) == comp.pgcd(f, g)
        if len(g) >= 2:
            n = rng.randrange(10 ** 4)
            assert pure.ppowmod(f, n, g) == comp.ppowmod(f, n, g)


@needs_compiled
@pytest.mark.parametrize("p,e,mod", FIELDS)
def test_backends_agree_on_scalars(p, e, mod):
    ctx, pure, comp = _kernels(p, e, mod)
    rng = random.Random(7)
    for a in range(ctx.q):
        # every b for small fields, a seeded sample of b for large ones
        for b in range(ctx.q) if ctx.q <= 256 else rng.sample(range(ctx.q), 16):
            assert pure.fadd(a, b) == comp.fadd(a, b)
            assert pure.fsub(a, b) == comp.fsub(a, b)
            assert pure.fmul(a, b) == comp.fmul(a, b)
        assert pure.fneg(a) == comp.fneg(a)
        if a:
            assert pure.finv(a) == comp.finv(a)


def test_powmod_with_huge_exponent(monkeypatch):
    """An n of 2**63 or more is past the kernels' ppowmod, which raises
    OverflowError; poly_powmod steps through it 62 bits at a time, on
    either kernel, and matches square and multiply on naive products."""
    ctx = field_create(3, 2, [1, 0, 1])
    f = [4, 7, 1]
    cases = [((ctx.q ** 40 - 1) // ctx.w, [1, 0, 0, 0, 1])]
    # T**4 + 4 is prime, its units of order 9**4 - 1 = 2**5 * 5 * 41: a lost bit of n shows
    cases += [(n, [4, 0, 0, 0, 1]) for n in (2 ** 63, 2 ** 64 + 12345, 3 ** 90, 2 ** 200 - 1)]
    for cls in [c for c in (PureFieldKernel, CompiledFieldKernel) if c is not None]:
        kern = cls(ctx.p, ctx.e, ctx.exp, ctx.log)
        monkeypatch.setattr(ctx, "kernel", kern)
        for n, m in cases:
            with pytest.raises(OverflowError):
                kern.ppowmod(f, n, m)
            got = poly_powmod(Poly(ctx, f), n, Poly(ctx, m))
            assert list(got.coeffs) == naive_powmod(ctx, f, n, m), (cls, n, m)


@needs_compiled
@pytest.mark.parametrize("p,e,mod", FIELDS[:4])
def test_powmod_exponent_is_a_64_bit_int(p, e, mod):
    """Both kernels read n as a signed 64-bit int: OverflowError outside
    [-2**63, 2**63), [1] for n <= 0, and the same power for 0 < n < 2**63."""
    ctx, pure, comp = _kernels(p, e, mod)
    f, m = [2, 1, 1], [1, 0, 1, 0, 1]
    for n in (2 ** 63, -2 ** 63 - 1):
        for kern in (pure, comp):
            with pytest.raises(OverflowError):
                kern.ppowmod(f, n, m)
    for n in (0, -5, -2 ** 63):
        assert pure.ppowmod(f, n, m) == comp.ppowmod(f, n, m) == [1]
    rng = random.Random(63)
    for n in [2 ** 62, 2 ** 63 - 1] + [rng.randrange(1, 2 ** 63) for _ in range(20)]:
        assert pure.ppowmod(f, n, m) == comp.ppowmod(f, n, m), n
    assert pure.ppowmod(f, 2 ** 62, m) == naive_powmod(ctx, f, 2 ** 62, m)


@needs_compiled
def test_compiled_kernel_has_pure_interface():
    """Every public method of the pure kernel, the Frobenius-table ops it
    mixes in included, and the attributes p e q w, exist on the compiled
    one (the sweeps above check what they compute)."""
    ctx, pure, comp = _kernels(5, 2, [2, 0, 1])
    methods = [name for name in dir(PureFieldKernel)
               if callable(getattr(PureFieldKernel, name)) and not name.startswith("_")]
    assert len(methods) == 18
    for name in methods:
        assert callable(getattr(comp, name, None)), name
    for name in ("p", "e", "q", "w"):
        assert getattr(comp, name) == getattr(pure, name) == getattr(ctx, name)


def _frobenius_cases(ctx, rng, count, max_degree=16):
    """(m, h) pairs: a random monic m of degree 1..max_degree, which gives
    both kinds of row 1 (q < deg m and q >= deg m) where the field allows,
    and a random h reduced mod m."""
    for _ in range(count):
        d = rng.randrange(1, max_degree + 1)
        m = [rng.randrange(ctx.q) for _ in range(d)] + [1]
        yield m, _rand_poly(rng, ctx.q, d + 1)


@needs_compiled
@pytest.mark.parametrize("p,e,mod", FIELDS)
def test_backends_agree_on_papply(p, e, mod):
    ctx, pure, comp = _kernels(p, e, mod)
    rng = random.Random(18)
    for m, h in _frobenius_cases(ctx, rng, 40):
        assert pure.papply(pure.ptable(m), h) == comp.papply(comp.ptable(m), h), (m, h)
    # tables of up to 48 rows, where the pure kernel runs on bytes
    for m, h in _frobenius_cases(ctx, rng, 20 if ctx.q <= BYTES_MAX_Q else 0, 48):
        pure_table, comp_table = pure.ptable(m), comp.ptable(m)
        assert pure.papply(pure_table, h) == comp.papply(comp_table, h), (m, h)
        assert pure.pnorm(pure_table, h, 3) == comp.pnorm(comp_table, h, 3), (m, h)
        assert pure.pwalk(pure_table, False) == comp.pwalk(comp_table, False), m


@pytest.mark.parametrize("cls", [
    pytest.param(PureFieldKernel, id="pure"),
    pytest.param(CompiledFieldKernel, id="compiled", marks=needs_compiled)])
@pytest.mark.parametrize("p,e,mod", FIELDS)
def test_papply_matches_the_fold(cls, p, e, mod):
    ctx = field_create(p, e, mod)
    kern = cls(ctx.p, ctx.e, ctx.exp, ctx.log)
    rng = random.Random(19)
    for m, h in _frobenius_cases(ctx, rng, 25):
        out = kern.papply(kern.ptable(m), h)
        assert isinstance(out, list) and (not out or out[-1])
        assert out == frobenius_fold(kern, list_frobenius_rows(kern, m), h), (m, h)


def _backends():
    """The pure kernel on F_5, and the compiled one when it is built, as
    pytest params named after their backend."""
    ctx = field_create(5, 1, None)
    tables = (ctx.p, ctx.e, ctx.exp, ctx.log)
    classes = [("pure", PureFieldKernel), ("compiled", CompiledFieldKernel)]
    return [pytest.param(cls(*tables), id=name) for name, cls in classes if cls is not None]


@pytest.mark.parametrize("kern", _backends())
def test_division_by_zero_polynomial_raises(kern):
    for op in (kern.prem, kern.pdivrem):
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            op([1, 2], [])


@pytest.mark.parametrize("kern", _backends())
def test_powmod_by_constant_modulus_raises(kern):
    for m in ([], [3]):
        with pytest.raises(ZeroDivisionError, match="powmod modulus must be nonconstant"):
            kern.ppowmod([1, 2], 3, m)


# Over F_5, ppowmod calls with one bad operand, and the class the compiled
# kernel raises: it reads the modulus before testing its degree, then the
# base, and only then the exponent.
_BAD_POWMODS = [
    (([1], 3, [9]), ValueError),
    (([9], 3, [1, 1]), ValueError),
    (([9], 2 ** 70, [1, 1]), ValueError),
    (([1, None], 3, [1, 1]), TypeError),
]


@pytest.mark.parametrize("kern", _backends())
@pytest.mark.parametrize("args,error", _BAD_POWMODS)
def test_powmod_checks_its_operands_as_the_compiled_kernel_reads_them(kern, args, error):
    with pytest.raises(Exception) as raised:
        kern.ppowmod(*args)
    assert type(raised.value) is error


@pytest.mark.parametrize("kern", _backends())
def test_powmod_nonpositive_exponent_is_one(kern):
    """[1] for n <= 0 down to -2**63; below it the exponent is no 64-bit int."""
    f, m = [2, 3, 1], [1, 4, 0, 1]
    assert kern.ppowmod(f, 0, m) == kern.ppowmod(f, -5, m) == [1]
    with pytest.raises(OverflowError):
        kern.ppowmod(f, -2 ** 80, m)


@pytest.mark.parametrize("kern", _backends())
def test_papply_edge_cases(kern):
    table = kern.ptable([1, 0, 0, 1])  # T^3 + 1 over F_5
    assert len(table) == 3
    assert table_rows(kern, table) == [[1], [0, 0, 4], [0, 4]]
    assert kern.papply(table, []) == kern.papply(table, [0, 0]) == []
    assert kern.papply(table, (0, 1)) == [0, 0, 4]
    assert kern.papply(table, [2, 1, 3]) == [2, 2, 4]
    # a table of one row: T^(q*0) = 1 mod T + 2, and a table of T^3, whose
    # later rows are 0
    line = kern.ptable((2, 1))
    assert len(line) == 1 and kern.papply(line, [3]) == [3]
    assert table_rows(kern, kern.ptable([0, 0, 0, 1])) == [[1], [], []]
    # h longer than the table, with a zero on top or not; h out of range
    for h in ([1, 0, 0, 1], [1, 0, 0, 0], [5], [0, -1]):
        with pytest.raises(ValueError):
            kern.papply(table, h)
    with pytest.raises(TypeError):
        kern.papply(table, [None])


@pytest.mark.parametrize("kern", _backends())
def test_table_ops_refuse_bad_input(kern):
    """ptable refuses a zero or constant modulus (ZeroDivisionError, a zero
    on top stripped first) and a coefficient outside [0, q) (ValueError) or
    not an int (TypeError). papply, pnorm and pwalk take only a table this
    kernel built (TypeError); pnorm refuses d < 1 and, like papply, an h
    too long or out of range."""
    for m in ([], [0], [3], (2, 0), [0, 0, 0]):
        with pytest.raises(ZeroDivisionError):
            kern.ptable(m)
    for m in ([1, 5, 1], [1, -1, 1], [1, 2, 256]):
        with pytest.raises(ValueError):
            kern.ptable(m)
    with pytest.raises(TypeError):
        kern.ptable([1, None, 1])
    table = kern.ptable([1, 0, 0, 1])
    ctx = field_create(5, 1, None)
    other = type(kern)(ctx.p, ctx.e, ctx.exp, ctx.log).ptable([1, 0, 0, 1])
    for not_ours in ([[1], [0, 0, 4], [0, 4]], other, None):
        for call in (lambda: kern.papply(not_ours, [1]), lambda: kern.pnorm(not_ours, [1], 2),
                     lambda: kern.pwalk(not_ours, False)):
            with pytest.raises(TypeError):
                call()
    for h, d in (([1, 0, 0, 1], 2), ([5], 2), ([-1], 1), ([1], 0), ([1], -3)):
        with pytest.raises(ValueError):
            kern.pnorm(table, h, d)
    for h, d in (([None], 1), ([1], None)):
        with pytest.raises(TypeError):
            kern.pnorm(table, h, d)


@pytest.mark.parametrize("kern", _backends())
def test_divisors_and_gcd_operands_are_range_checked(kern):
    """Over F_5 both backends refuse a divisor, a modulus or a gcd operand
    outside [0, 5) with ValueError. The pure kernel used to raise
    IndexError for 200 and 7 and to read log[-1] for -1, returning [1, 3],
    [4] and [1] for the second, third and fifth calls."""
    calls = [lambda: kern.ppowmod([1, 2], 3, [1, 200, 1]),
             lambda: kern.ppowmod([1, 2], 3, [1, -1, 1]),
             lambda: kern.prem([1, 2, 3, 4], [1, -1, 1]),
             lambda: kern.pdivrem([1, 2, 3, 4], [1, 7, 1]),
             lambda: kern.pgcd([1, 2, 3], [1, -1, 1])]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("kern", _backends())
def test_finv_of_zero_raises(kern):
    with pytest.raises(ZeroDivisionError):
        kern.finv(0)
    assert all(kern.fmul(a, kern.finv(a)) == 1 for a in range(1, kern.q))


@pytest.mark.parametrize("kern", _backends())
def test_pmonic_of_zero_top_coefficient_raises(kern):
    """An unstripped f with a zero top has no monic multiple: both backends
    raise as finv(0) does, where the compiled one used to return [2, 0]."""
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        kern.pmonic([1, 0])


@pytest.mark.parametrize("kern", _backends())
def test_divisors_moduli_and_gcd_operands_lose_their_zeros_on_top(kern):
    """Over F_5 a divisor, a modulus and a gcd operand are read without
    their zeros on top. Both backends used to read a zero top as it stood:
    prem gave [3, 2] on the pure kernel and [0, 1] on the compiled one
    where the remainder mod T + 1 is [2], pdivrem by [0, 0] raised
    IndexError and returned ([2], [1]), and pgcd([1, 0], []) raised."""
    assert kern.prem([1, 2, 3], [1, 1, 0]) == [2]
    assert kern.pdivrem([1, 2, 3], (1, 1, 0, 0)) == ([4, 3], [2])
    assert kern.ppowmod([0, 1], 5, [1, 1, 0]) == [4]
    assert kern.pgcd([1, 1, 0], [1, 1]) == kern.pgcd([1, 1], [0]) == [1, 1]
    assert kern.pgcd([1, 0], []) == [1]
    for call in (lambda: kern.pdivrem([1, 1], [0, 0]), lambda: kern.prem([1, 1], [0])):
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            call()
    with pytest.raises(ZeroDivisionError, match="powmod modulus must be nonconstant"):
        kern.ppowmod([1, 2], 3, [2, 0, 0])


@pytest.mark.parametrize("kern", _backends())
def test_an_int_past_64_bits_is_out_of_range(kern):
    """A checked element or coefficient past 64 bits raises ValueError, as
    any other outside [0, q) does, where the compiled kernel raised
    OverflowError; ppowmod's n keeps its OverflowError."""
    calls = [lambda: kern.prem([1], [2 ** 70]), lambda: kern.pgcd([1], [1, -2 ** 70]),
             lambda: kern.ppowmod([1], 3, [1, 2 ** 64]), lambda: kern.fneg(2 ** 70),
             lambda: kern.fsub(1, 2 ** 63)]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    with pytest.raises(OverflowError):
        kern.ppowmod([1], 2 ** 70, [1, 1])


@pytest.mark.parametrize("kern", _backends())
def test_pnorm_reads_d_as_a_64_bit_int(kern):
    """pnorm's d outside [-2**63, 2**63) raises OverflowError before any
    work, where the pure kernel ran for 2**70 table applications; a
    non-int raises TypeError."""
    table = kern.ptable([1, 0, 0, 1])
    for d in (2 ** 70, 2 ** 63, -2 ** 63 - 1):
        with pytest.raises(OverflowError):
            kern.pnorm(table, [1, 1], d)
    with pytest.raises(ValueError):
        kern.pnorm(table, [1, 1], -2 ** 63)
    with pytest.raises(TypeError):
        kern.pnorm(table, [1, 1], 2.0)
    assert kern.pnorm(table, [1, 1], True) == [1, 1]


@pytest.mark.parametrize("kern", _backends())
def test_negation_rejects_out_of_range_element(kern):
    for call in (lambda: kern.fneg(-1), lambda: kern.fneg(kern.q),
                 lambda: kern.fsub(1, -1)):
        with pytest.raises(ValueError):
            call()


# (method, arguments), each holding a None coefficient the method reads
_NONE_CALLS = [
    ("pmul", ([1, None], [1, 1])),
    ("pdivrem", ([1, None, 1], [1, 1])),
    ("pgcd", ([1, None, 1], [1, 1])),
    ("pmonic", ([None, 2],)),
    ("pscale", ([1, None], 2)),
    ("ppowmod", ([1, None], 3, [1, 1])),
    ("ptable", ([1, None, 1],)),
]


@needs_compiled
@pytest.mark.parametrize("op,args", _NONE_CALLS)
def test_compiled_rejects_non_int_coefficient(op, args):
    comp = _kernels(5, 1, None)[2]
    with pytest.raises(TypeError):
        getattr(comp, op)(*args)


@needs_compiled
def test_compiled_rejects_out_of_range_element():
    comp = _kernels(5, 1, None)[2]
    for call in (lambda: comp.fadd(5, 1), lambda: comp.pmul([7], [1]),
                 lambda: comp.fneg(-1), lambda: comp.prem([1, 1], [5])):
        with pytest.raises(ValueError):
            call()


@needs_compiled
def test_compiled_rejects_inconsistent_tables():
    """The compiled kernel indexes its tables without further checks, so
    its constructor rejects tables that could send an index outside them,
    and (p, e) with e < 1 or p**e past 2**24."""
    ctx = field_create(5, 1, None)
    exp, log = list(ctx.exp), list(ctx.log)
    bad = [
        (5, 1, exp[:-1], log),                  # exp too short
        (5, 1, [0] + exp[1:], log),             # exp holds 0
        (5, 1, exp, [-1, 0, -1, 3, 2]),         # log of 2 negative
        (4099, 2, exp, log),                    # p**e > 2**24
        (5, 0, exp, log),                       # e < 1
    ]
    for args in bad:
        with pytest.raises(ValueError):
            CompiledFieldKernel(*args)


def _every_op_once(kern):
    """Calls each of the 18 methods on F_5, and each failing call above."""
    f, g, m = [1, 2, 0, 3, 1], [2, 1, 1], [1, 0, 3, 1]
    kern.fadd(1, 2), kern.fneg(3), kern.fsub(1, 4), kern.fmul(2, 3), kern.finv(2)
    kern.padd(f, g), kern.psub(g, f), kern.pscale(f, 3), kern.pmul(f, g)
    kern.pdivrem(f, g), kern.prem(f, g), kern.pmonic(g), kern.pgcd(f, g)
    kern.ppowmod(tuple(f), 12345, m)
    table = kern.ptable(m)
    kern.papply(table, (3, 1, 2)), kern.pnorm(table, (3, 1, 2), 7)
    kern.pwalk(table, False), kern.pwalk(kern.ptable(kern.pmul(f, g)), True)
    failing = [(kern.prem, (f, [])), (kern.pdivrem, (f, [])), (kern.finv, (0,)),
               (kern.papply, (table, [1, 1, 1, 1])), (kern.pnorm, (table, [1], 0)),
               (kern.ptable, ([2],)), (kern.ptable, ([1, 9],)), (kern.pwalk, ([[1]], True)),
               (kern.ppowmod, (f, 3, [2])), (kern.pmul, ([1], [5])),
               (kern.ppowmod, (f, None, m)), (kern.ppowmod, (f, 10 ** 30, m)),
               (kern.pmonic, ([1, 0],))]
    failing += [(getattr(kern, op), args) for op, args in _NONE_CALLS]
    for fn, args in failing:
        try:
            fn(*args)
        except (ZeroDivisionError, TypeError, ValueError, OverflowError):
            pass


@needs_compiled
def test_compiled_kernel_does_not_leak():
    """3,000 rounds of every op, failing calls included, leave the traced
    memory flat: a leak of one object or buffer per round would add at
    least 16 bytes per round, 48 kB in all."""
    comp = _kernels(5, 1, None)[2]
    tracemalloc.start()
    try:
        for _ in range(300):  # warm up free lists and caches under the tracer
            _every_op_once(comp)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3000):
            _every_op_once(comp)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 3000, f"traced memory grew by {grown} bytes over 3000 rounds"


def test_divrem_by_zero_raises(ctx3):
    with pytest.raises(ZeroDivisionError):
        ctx3.kernel.pdivrem([1, 2], [])


@pytest.mark.parametrize("p,e,mod", FIELDS)
def test_pure_kernel_poly_ops(p, e, mod):
    """The pure kernel on its own, against the table-free oracles: runs
    without the compiled kernel, on all three kinds of addition lookup."""
    ctx = field_create(p, e, mod)
    kern = PureFieldKernel(ctx.p, ctx.e, ctx.exp, ctx.log)
    rng = random.Random(40)
    non_monic = 0
    for _ in range(30):
        f = _rand_poly(rng, ctx.q, 42)  # degree <= 40
        g = _rand_poly(rng, ctx.q, 42)
        c = _rand_poly(rng, ctx.q, 6)
        pf, pg = Poly(ctx, f), Poly(ctx, g)
        assert kern.pmul(f, g) == list(naive_poly_mul(ctx, pf, pg).coeffs)
        if g:
            non_monic += g[-1] != 1
            quot, rem = kern.pdivrem(f, g)
            assert isinstance(quot, list) and isinstance(rem, list)
            assert len(rem) < len(g) and (not rem or rem[-1])
            back = naive_poly_add(ctx, naive_poly_mul(ctx, Poly(ctx, quot), pg), Poly(ctx, rem))
            assert back == pf
            assert kern.prem(f, g) == rem
        if f or g:
            d = kern.pgcd(f, g)
            assert d[-1] == 1
            assert kern.prem(f, d) == [] and kern.prem(g, d) == []
        if c and (f or g):
            assert kern.prem(kern.pgcd(kern.pmul(f, c), kern.pmul(g, c)), c) == []
        if len(g) >= 2:
            n = rng.randrange(12)
            expected = [1]
            for _ in range(n):
                expected = kern.prem(kern.pmul(expected, f), g)
            assert kern.ppowmod(f, n, g) == expected
    assert non_monic > 0


# F_3 and F_9 reduce through the addition table, F_257 through its 2p
# sums, F_3^6 and F_7^3 through digit groups
REDUCTION_FIELDS = [
    pytest.param(3, 1, None, id="F_3"),
    pytest.param(3, 2, [1, 0, 1], id="F_9"),
    pytest.param(257, 1, None, id="F_257"),
    pytest.param(3, 6, [2, 1, 0, 0, 0, 0, 1], id="F_3^6"),
    pytest.param(7, 3, [2, 0, 0, 1], id="F_7^3"),
]


@pytest.mark.parametrize("p,e,mod", REDUCTION_FIELDS)
def test_pure_reduction_loop_matches_schoolbook(p, e, mod):
    """pdivrem, prem and ppowmod share the pure kernel's divisor preparation
    and remainder loop, which pgcd runs off its fused degree-one step.
    Each is checked against schoolbook division, Euclid and
    square-and-multiply on the naive field operations, on random pairs and
    on the edges: f = [], f shorter than g, a constant g, a common factor,
    both argument orders of pgcd. No input is changed."""
    ctx = field_create(p, e, mod)
    kern = PureFieldKernel(ctx.p, ctx.e, ctx.exp, ctx.log)
    rng = random.Random(19 * p + e)
    unit = [rng.randrange(1, ctx.q)]
    short = [rng.randrange(ctx.q), rng.randrange(1, ctx.q)]
    g = [rng.randrange(1, ctx.q), 0, 0, 0, rng.randrange(1, ctx.q)]
    pairs = [([], g), ([], unit), (short, g), (g, unit), (short, unit), ([], [])]
    for _ in range(12):
        f = _rand_poly(rng, ctx.q, 14)
        g = _rand_poly(rng, ctx.q, 7)
        c = list(_rand_poly(rng, ctx.q, 4)) + [rng.randrange(1, ctx.q)]
        pairs += [(f, g), (kern.pmul(f, c), kern.pmul(g, c))]
    for f, g in pairs:
        before = (list(f), list(g))
        if g:
            quot, rem = naive_divrem(ctx, f, g)
            assert kern.pdivrem(f, g) == (quot, rem), (f, g)
            assert kern.prem(f, g) == rem, (f, g)
        assert kern.pgcd(f, g) == kern.pgcd(g, f) == naive_gcd(ctx, f, g), (f, g)
        if len(g) >= 2:
            for n in (0, 1, 2, rng.randrange(3, 2 ** 10)):
                assert kern.ppowmod(f, n, g) == naive_powmod(ctx, f, n, g), (f, n, g)
        assert (list(f), list(g)) == before


def _euclid_step_kinds(ctx, f, g):
    """Which branches of the pure pgcd the Euclid steps of gcd(f, g) take,
    told apart by schoolbook division."""
    kinds = set()
    f, g = list(f), list(g)
    while g:
        quot, rem = naive_divrem(ctx, f, g)
        if len(f) == len(g) + 1 and len(g) >= 2:
            kinds.add("one down")
            if quot[0] == 0:
                kinds.add("b = 0")
            if g[-2] == 0:
                kinds.add("zero below g's top")
            if len(g) == 2:
                kinds.add("deg g = 1")
        elif len(f) >= len(g) + 2:
            kinds.add("two or more down")
        f, g = g, rem
    return kinds


@pytest.mark.parametrize("p,e,mod", REDUCTION_FIELDS)
def test_pure_pgcd_fused_step_matches_the_divisor_loop(p, e, mod):
    """The pure pgcd subtracts the quotient a*T + b of a step that drops the
    degree by one in one pass over g; other steps prepare a divisor. Both
    argument orders agree with the loop that prepares a divisor per step
    and with schoolbook Euclid, on targeted steps (b = 0, a zero just below
    g's top, deg g = 1, drops of two or more) and on long remainder
    sequences of random pairs of degree 30-60. No input is changed."""
    ctx = field_create(p, e, mod)
    kern = PureFieldKernel(ctx.p, ctx.e, ctx.exp, ctx.log)
    rng = random.Random(25 * p + e)

    def poly(degree):
        return [rng.randrange(ctx.q) for _ in range(degree)] + [rng.randrange(1, ctx.q)]

    pairs = []
    for _ in range(4):
        g = poly(rng.randrange(2, 9))
        pairs.append((kern.padd([0] + g, poly(len(g) - 2)), g))  # f = T*g + r: b = 0
        g = poly(rng.randrange(2, 9))
        g[-2] = 0
        pairs.append((poly(len(g)), g))
        pairs.append((poly(2), poly(1)))
        pairs.append((poly(rng.randrange(4, 12)), poly(rng.randrange(1, 3))))
        pairs.append((poly(rng.randrange(30, 61)), poly(rng.randrange(30, 61))))
    kinds = set()
    for f, g in pairs:
        before = (list(f), list(g))
        kinds |= _euclid_step_kinds(ctx, f, g) | _euclid_step_kinds(ctx, g, f)
        expected = naive_gcd(ctx, f, g)
        assert kern.pgcd(f, g) == divisor_per_step_pgcd(kern, f, g) == expected, (f, g)
        assert kern.pgcd(g, f) == divisor_per_step_pgcd(kern, g, f) == expected, (f, g)
        assert (list(f), list(g)) == before
    assert kinds == {"one down", "b = 0", "zero below g's top", "deg g = 1",
                     "two or more down"}


def _check_ptable_rows(cls, p, e, mod, degrees):
    """Every row of ptable(m) must equal ppowmod's T**(q*i) mod m, for
    T**n, T**k * g and three random moduli of each degree n; T**n's later
    rows are 0."""
    ctx = field_create(p, e, mod)
    kern, q = cls(ctx.p, ctx.e, ctx.exp, ctx.log), ctx.q
    rng = random.Random(q)
    moduli = []
    for n in degrees:
        k = rng.randrange(1, n)
        moduli += [[0] * n + [1], [0] * k + [rng.randrange(1, q)]
                   + [rng.randrange(q) for _ in range(n - k - 1)] + [1]]
        moduli += [[rng.randrange(q) for _ in range(n)] + [1] for _ in range(3)]
    zero_rows = 0
    for m in moduli:
        rows = table_rows(kern, kern.ptable(m))
        assert len(rows) == len(m) - 1
        assert rows == [kern.ppowmod([0, 1], q * i, m) for i in range(len(rows))], m
        zero_rows += rows.count([])
    assert zero_rows > 0


@pytest.mark.parametrize("cls", [
    pytest.param(PureFieldKernel, id="pure"),
    pytest.param(CompiledFieldKernel, id="compiled", marks=needs_compiled)])
@pytest.mark.parametrize("p,e,mod,top", [
    pytest.param(3, 1, None, 12, id="F_3"),
    pytest.param(5, 1, None, 12, id="F_5"),
    pytest.param(3, 2, [1, 0, 1], 12, id="F_9"),
    pytest.param(13, 1, None, 14, id="F_13"),
    pytest.param(17, 1, None, 20, id="F_17"),
])
def test_frobenius_rows_shift_by_t_to_the_q(cls, p, e, mod, top):
    """For q < deg m row i of ptable(m) is row i - 1 shifted up q places
    mod m: checked for deg m from q + 1 up to top, so q + 1 on every
    field, on the byte rows (q <= 16) and on the list and compiled rows'
    shift branch."""
    _check_ptable_rows(cls, p, e, mod, range(p ** e + 1, top + 1))


@pytest.mark.parametrize("cls", [
    pytest.param(PureFieldKernel, id="pure"),
    pytest.param(CompiledFieldKernel, id="compiled", marks=needs_compiled)])
@pytest.mark.parametrize("p,e,mod,top", [
    pytest.param(3, 1, None, 3, id="F_3"),
    pytest.param(5, 1, None, 5, id="F_5"),
    pytest.param(3, 2, [1, 0, 1], 9, id="F_9"),
    pytest.param(13, 1, None, 13, id="F_13"),
    pytest.param(17, 1, None, 17, id="F_17"),
    pytest.param(257, 1, None, 12, id="F_257"),
])
def test_frobenius_row_one_for_q_at_least_deg_m(cls, p, e, mod, top):
    """For q >= deg m row 1 of ptable(m) is T**q mod m: the byte rows
    (q <= 16) take it by the same shift loop, the list and compiled rows
    by powmod and each later row as a product mod m. Checked for deg m
    from 2 up to top, which is q on every field but F_257, where a table
    at n = q would take minutes on the pure kernel."""
    _check_ptable_rows(cls, p, e, mod, range(2, top + 1))


@pytest.mark.parametrize("p,e,mod,stride,size", [
    pytest.param(3, 2, [1, 0, 1], 9, 81, id="F_9"),
    pytest.param(257, 1, None, 1, 514, id="F_257"),
    pytest.param(7, 3, [2, 0, 0, 1], 343, 49 * 49, id="F_7^3"),
    pytest.param(3, 6, [2, 1, 0, 0, 0, 0, 1], 729, 243 * 243, id="F_3^6"),
])
def test_pure_kernel_builds_one_addition_lookup(p, e, mod, stride, size):
    """The q*q table for q <= 256, the 2p sums of a prime field past it,
    and one s*s table of digit groups for an extension field past it."""
    ctx = field_create(p, e, mod)
    kern = PureFieldKernel(ctx.p, ctx.e, ctx.exp, ctx.log)
    sums = kern._sums
    assert kern._stride == stride
    assert len(sums.table if isinstance(sums, _GroupSums) else sums) == size


def test_digit_groups_of_a_large_prime():
    """F_37^3 adds one digit at a time (37^2 > 256): a 1,369-entry table."""
    sums = _GroupSums(37, 3)
    assert (sums.q, sums.s, len(sums.table)) == (37 ** 3, 37, 1369)
    rng = random.Random(37)
    for _ in range(2000):
        da = [rng.randrange(37) for _ in range(3)]
        db = [rng.randrange(37) for _ in range(3)]
        a, b = (d[0] + 37 * d[1] + 37 ** 2 * d[2] for d in (da, db))
        ds = [(x + y) % 37 for x, y in zip(da, db)]
        assert sums[a * sums.q + b] == ds[0] + 37 * ds[1] + 37 ** 2 * ds[2]


# every field small enough for the byte path: both moduli of F_9, and the
# largest two primes below 16
BYTE_FIELDS = [
    pytest.param(3, 1, None, id="F_3"),
    pytest.param(5, 1, None, id="F_5"),
    pytest.param(7, 1, None, id="F_7"),
    pytest.param(3, 2, [1, 0, 1], id="F_9"),
    pytest.param(3, 2, [2, 1, 1], id="F_9'"),
    pytest.param(11, 1, None, id="F_11"),
    pytest.param(13, 1, None, id="F_13"),
]

_BYTE_PATHS = ("_pmul_bytes", "_rem_packed", "_gcd_bytes", "_reduce")


def _count_byte_paths(monkeypatch):
    """Count the calls of each byte-path helper, and of ``_reduce``."""
    calls = Counter()
    for name in _BYTE_PATHS:
        def counted(self, *args, _name=name, _orig=getattr(PureFieldKernel, name), **kw):
            calls[_name] += 1
            return _orig(self, *args, **kw)
        monkeypatch.setattr(PureFieldKernel, name, counted)
    return calls


@pytest.mark.parametrize("p,e,mod", BYTE_FIELDS)
def test_pure_byte_path_matches_the_oracles_and_the_list_loop(p, e, mod, monkeypatch):
    """Over every field with q <= 16, pmul, prem, pdivrem, pgcd and
    ppowmod on operands of 1-96 coefficients, on both sides of each
    threshold, as lists and as tuples, and papply and pnorm on tables of
    1-48 rows: the byte path gives what the table-free oracles and the list
    loops (the same kernel with the byte path off) give, and it runs
    exactly where its thresholds say; every table is packed. The cases
    include divisors with zeros below the top, zero remainders, gcds of 1
    and of high degree, and rows shorter than the table."""
    ctx = field_create(p, e, mod)
    kern = PureFieldKernel(ctx.p, ctx.e, ctx.exp, ctx.log)
    loop = PureFieldKernel(ctx.p, ctx.e, ctx.exp, ctx.log)
    loop._small = False
    calls = _count_byte_paths(monkeypatch)
    rng = random.Random(29 * p + e + len(mod or []))
    q = ctx.q

    def poly(n):
        """n coefficients, top nonzero, as a list or a tuple."""
        out = [rng.randrange(q) for _ in range(n - 1)] + [rng.randrange(1, q)]
        return tuple(out) if rng.random() < 0.5 else out

    def ran(name, op, *args):
        """op's result, and whether it called the helper ``name``."""
        before = calls[name]
        return op(*args), calls[name] > before

    def on_bytes_reduce(f, g):
        dg = len(g) - 1
        return len(f) > dg >= pure.REDUCE_BYTES_MIN_DEG and (
            (len(f) - dg) * dg >= pure.REDUCE_BYTES_MIN_WORK)

    lengths = [1, 2, 7, 8, 9, 11, 12, 13, 23, 24, 25, 40, 64, 96]
    pairs = [(poly(rng.choice(lengths)), poly(rng.choice(lengths))) for _ in range(40)]
    for _ in range(6):
        d = poly(rng.randrange(20, 40))  # a gcd of high degree
        pairs.append((kern.pmul(poly(rng.randrange(5, 30)), d), kern.pmul(poly(rng.randrange(5, 30)), d)))
        g, k = list(poly(rng.randrange(12, 30))), rng.randrange(1, 5)
        g[-1 - k:-1] = [0] * k
        pairs.append((poly(rng.randrange(30, 97)), g))  # zeros below g's top
        pairs.append((kern.pmul(poly(rng.randrange(1, 40)), g), g))  # zero remainder
    pairs.append((poly(96), poly(95)))  # coprime with probability about 1 - 1/q
    gcd_degrees, byte_euclids = set(), 0
    for f, g in pairs:
        before = (list(f), list(g))
        prod, on_bytes = ran("_pmul_bytes", kern.pmul, f, g)
        assert prod == loop.pmul(f, g) == list(naive_poly_mul(ctx, Poly(ctx, f), Poly(ctx, g)).coeffs)
        assert on_bytes == (min(len(f), len(g)) >= pure.PMUL_BYTES_MIN_LEN)
        for a, b in ((f, g), (g, f)):
            expected = naive_divrem(ctx, a, b)
            divrem, on_bytes = ran("_rem_packed", kern.pdivrem, a, b)
            assert divrem == loop.pdivrem(a, b) == expected, (a, b)
            assert on_bytes == on_bytes_reduce(a, b)
            assert kern.prem(a, b) == loop.prem(a, b) == expected[1]
        reduces = calls["_reduce"]
        gcd, on_bytes = ran("_gcd_bytes", kern.pgcd, f, g)
        if min(len(f), len(g)) >= pure.PGCD_BYTES_MIN_LEN:  # the whole Euclid on bytes
            assert on_bytes and calls["_reduce"] == reduces
            byte_euclids += 1
        assert gcd == kern.pgcd(g, f) == loop.pgcd(f, g) == naive_gcd(ctx, f, g), (f, g)
        gcd_degrees.add(len(gcd) - 1)
        assert (list(f), list(g)) == before
    assert 0 in gcd_degrees and max(gcd_degrees) >= 20 and byte_euclids

    for n in (1, 8, 11, 12, 13, 30, 48):
        m = poly(n + 1)
        table, loop_table = kern.ptable(m), loop.ptable(m)
        assert all(type(row) is int for row in table.rows)
        assert all(type(row) is list for row in loop_table.rows)
        rows = list_frobenius_rows(loop, m)  # rows of 0..n coefficients
        for h in (poly(rng.randrange(1, n + 1)), [0] * (n - 1) + [1]):
            out = kern.papply(table, h)
            assert out == loop.papply(loop_table, h) == frobenius_fold(loop, rows, h), (m, h)
            assert kern.pnorm(table, h, 2) == loop.pnorm(loop_table, h, 2) == \
                itoh_tsujii_norm(loop, rows, m, h, 2), (m, h)

    for m_len in (3, 12, 20, 33):
        m, f = poly(m_len), poly(rng.randrange(1, 2 * m_len))
        for n in (0, 1, 5, rng.randrange(6, 200)):
            assert kern.ppowmod(f, n, m) == loop.ppowmod(f, n, m) == naive_powmod(ctx, f, n, m)
    assert all(calls[name] for name in _BYTE_PATHS)


@pytest.mark.parametrize("p,e,mod", [
    pytest.param(3, 2, [1, 0, 1], id="F_9"),
    pytest.param(13, 1, None, id="F_13"),
])
def test_pure_byte_path_rejects_what_a_byte_cannot_hold(p, e, mod, monkeypatch):
    """Every op that runs on bytes refuses a coefficient in [q, 256), which
    would spill into the next byte, as well as a negative one or one past
    255 (ValueError), and a None (TypeError), in each operand it packs."""
    ctx = field_create(p, e, mod)
    kern = PureFieldKernel(ctx.p, ctx.e, ctx.exp, ctx.log)
    calls = _count_byte_paths(monkeypatch)
    q = ctx.q
    long_f, long_g = [1] * 40, [2] * 19 + [1]
    table = kern.ptable([1] * 16 + [1])
    cases = [
        (kern.pmul, (long_f, long_g), (0, 1)),
        (kern.prem, (long_f, long_g), (0, 1)),
        (kern.pdivrem, (long_f, long_g), (0, 1)),
        (kern.pgcd, (long_f, [1] * 30), (0, 1)),
        (kern.ppowmod, (long_f, 3, long_g), (0,)),  # m is read by the list loop's divisor first
        (kern.papply, (table, [1] * 16), (1,)),
        (kern.pnorm, (table, [1] * 16, 3), (1,)),
        (kern.ptable, ([1] * 16 + [1],), (0,)),
    ]
    for op, args, operands in cases:
        assert op(*args) is not None
        for k in operands:
            for bad, error in ((q, ValueError), (255, ValueError), (-1, ValueError),
                               (256, ValueError), (None, TypeError)):
                spoilt = list(args)
                spoilt[k] = list(args[k])
                spoilt[k][3] = bad
                with pytest.raises(error):
                    op(*spoilt)
    assert all(calls[name] for name in _BYTE_PATHS[:3])


def test_byte_tables_are_built_with_the_kernel():
    """A new kernel with q <= 16 holds one 256-byte translate table per
    element, and one with q > 16 holds none."""
    ctx = field_create(13, 1, None)
    kern = PureFieldKernel(ctx.p, ctx.e, ctx.exp, ctx.log)
    assert len(kern._ma) == 13 and all(len(t) == 256 for t in kern._ma)
    ctx = field_create(17, 1, None)
    assert PureFieldKernel(ctx.p, ctx.e, ctx.exp, ctx.log)._ma is None


# the byte-path fields, both moduli of F_9, and two fields of list tables:
# F_257 adds through its 2p sums and F_7^3 through digit groups
TABLE_FIELDS = BYTE_FIELDS + [
    pytest.param(257, 1, None, id="F_257"),
    pytest.param(7, 3, [2, 0, 0, 1], id="F_7^3"),
]
# table degrees on both sides of every byte threshold a table op meets
TABLE_DEGREES = (1, 2, 3, 7, 8, 9, 12, 13, 23, 24, 25, 40)


@pytest.mark.parametrize("cls", [
    pytest.param(PureFieldKernel, id="pure"),
    pytest.param(CompiledFieldKernel, id="compiled", marks=needs_compiled)])
@pytest.mark.parametrize("p,e,mod", TABLE_FIELDS)
def test_table_ops_match_the_references(cls, p, e, mod, monkeypatch):
    """ptable, papply, pnorm and pwalk against the Python loops they
    replaced (``list_frobenius_rows``, ``frobenius_fold``,
    ``itoh_tsujii_norm``, ``list_distinct_degree_split``) and, on small
    degrees, ``naive_powmod``. The moduli are random monic ones, T**n and
    T**k * g of each degree up to 40, so both kinds of row 1 (q < deg m and
    q >= deg m) occur, and squares P**2 and P * Q**2 of primes, on which
    the walk yields the reference's (part, degree) pairs in order and
    Ben-Or's first part is the reference's."""
    monkeypatch.setattr(field, "FieldKernel", cls)
    ctx = field_create(p, e, mod)
    kern, q = ctx.kernel, ctx.q
    rng = random.Random(31 * q + e)

    def monic(n):
        return [rng.randrange(q) for _ in range(n)] + [1]

    moduli = []
    for n in TABLE_DEGREES:
        k = rng.randrange(1, n + 1)
        g = [rng.randrange(1, q)] + monic(n - k)[1:] if n > k else [1]
        moduli += [monic(n), [0] * n + [1], [0] * k + g]
    primes = [f for f in (Poly(ctx, monic(d)) for d in (1, 2, 2, 3, 3, 4, 4, 5) * 8)
              if poly_is_irreducible(f)]
    squares = []
    for a, b in zip(primes, primes[1:]):
        if a != b:
            squares += [(a * a).coeffs, (a * b * b).coeffs]
    assert len(squares) >= 8
    naive_checks = 0
    for m in moduli + squares[:8]:
        n = len(m) - 1
        table = kern.ptable(m)
        assert len(table) == n
        rows = list_frobenius_rows(kern, m)
        assert table_rows(kern, table) == rows, m
        h = list(_rand_poly(rng, q, n + 1))
        assert kern.papply(table, h) == frobenius_fold(kern, rows, h), (m, h)
        for d in {1, 2, n, rng.randrange(1, 2 * n + 2)}:
            assert kern.pnorm(table, h, d) == itoh_tsujii_norm(kern, rows, m, h, d), (m, h, d)
        if n <= 9 and naive_checks < 6:
            naive_checks += 1
            i = rng.randrange(n)
            assert rows[i] == naive_powmod(ctx, [0, 1], q * i, m), (m, i)
            assert kern.pnorm(table, h, 2) == naive_powmod(ctx, h, q + 1, m), (m, h)
        parts = [(Poly(ctx, g), d) for g, d in kern.pwalk(table, False)]
        reference = list_distinct_degree_split(Poly(ctx, m))
        assert parts == reference, m
        assert [(Poly(ctx, g), d) for g, d in kern.pwalk(table, True)] == reference[:1], m
        if m in squares:
            assert reference[0][1] < n  # Ben-Or calls a square reducible
    assert naive_checks == 6


@pytest.mark.parametrize("cls", [
    pytest.param(PureFieldKernel, id="pure"),
    pytest.param(CompiledFieldKernel, id="compiled", marks=needs_compiled)])
@pytest.mark.parametrize("p,e,mod", [
    pytest.param(3, 1, None, id="F_3"), pytest.param(13, 1, None, id="F_13"),
    pytest.param(257, 1, None, id="F_257"),
    pytest.param(3, 6, [2, 1, 0, 0, 0, 0, 1], id="F_3^6")])
def test_a_kept_table_reads_as_a_fresh_one(cls, p, e, mod, monkeypatch):
    """The field shares each table it keeps with every later caller, so the
    ops must leave a table as ptable built it: after walks with both first
    values and norms on the kept table, papply, pnorm and pwalk on it give
    what they give on a fresh ptable of the same modulus. The degrees lie
    on both sides of q and of the byte thresholds."""
    monkeypatch.setattr(field, "FieldKernel", cls)
    ctx = field_create(p, e, mod)
    kern, q = ctx.kernel, ctx.q
    rng = random.Random(7 * q + e)
    for n in (1, 2, 3, 8, 9, 13, 14, 24, 25):
        m = [rng.randrange(q) for _ in range(n)] + [1]
        kept = frobenius_table(ctx, m)
        for first in (True, False, True, False):
            kern.pwalk(kept, first)
            kern.pnorm(kept, list(_rand_poly(rng, q, n + 1)), rng.randrange(1, 2 * n + 2))
        assert frobenius_table(ctx, m) is kept
        fresh = kern.ptable(m)
        assert table_rows(kern, kept) == table_rows(kern, fresh), m
        for _ in range(4):
            h, d = list(_rand_poly(rng, q, n + 1)), rng.randrange(1, 2 * n + 2)
            assert kern.papply(kept, h) == kern.papply(fresh, h), (m, h)
            assert kern.pnorm(kept, h, d) == kern.pnorm(fresh, h, d), (m, h, d)
        for first in (True, False):
            assert kern.pwalk(kept, first) == kern.pwalk(fresh, first), (m, first)


# -- one hostile-operand fuzz of both kernels -----------------------------------

# Each method's operands, one letter each. Upper case marks what the pure
# kernel checks or reads as the compiled one does: E an element of fneg or
# fsub, P a divisor, a modulus, a pgcd or ppowmod operand or a table op's
# h, N ppowmod's exponent, D pnorm's d, T a table and B pwalk's flag, read
# by truth. Lower case marks the operands of its hot ops, which it does not
# check: e an element and p a polynomial, a dividend included.
_SIGNATURES = {
    "fadd": "ee", "fneg": "E", "fsub": "EE", "fmul": "ee", "finv": "e",
    "padd": "pp", "psub": "pp", "pscale": "pe", "pmul": "pp", "pdivrem": "pP",
    "prem": "pP", "pmonic": "p", "pgcd": "PP", "ppowmod": "PNP", "ptable": "P",
    "papply": "TP", "pnorm": "TPD", "pwalk": "TB",
}
_KERNEL_ERRORS = (TypeError, ValueError, ZeroDivisionError, OverflowError)
_FUZZ_FIELDS = {"F_5": (5, 1, None), "F_9": (3, 2, [1, 0, 1]), "F_17": (17, 1, None)}
# no n or d in [2**16, 2**63) is drawn: a pnorm on one would not return
_BIG_INTS = [2 ** 63, 2 ** 64, 2 ** 70, -2 ** 63, -2 ** 63 - 1, -2 ** 70]
_NON_INTS = [None, 0.0, 1.0, 1.5, -0.0, "1"]


def _fuzz_strategies(q):
    """A strategy per operand letter over F_q: mostly valid operands, some
    hostile ones (ints outside [0, q), ints past 64 bits, bools, None,
    floats, zero tops, zero divisors, tables of another kernel)."""
    element = st.integers(0, q - 1)
    hostile = st.one_of(st.integers(-3, q + 3), st.sampled_from(_BIG_INTS + [255, 256]),
                        st.booleans(), st.sampled_from(_NON_INTS))
    coefficient = st.one_of(element, element, element, hostile)
    poly = st.one_of(st.lists(element, max_size=26), st.lists(coefficient, max_size=12),
                     st.builds(lambda v, k: v + [0] * k, st.lists(element, max_size=8),
                               st.integers(1, 2)),
                     st.sampled_from([[], [0], [0, 0], [1, 0], [0, 1, 0, 0]]))
    poly = st.builds(lambda v, as_tuple: tuple(v) if as_tuple else v, poly, st.booleans())
    modulus = st.builds(lambda low, top: low + [top], st.lists(element, min_size=1, max_size=10),
                        st.integers(1, q - 1))
    table = st.one_of(st.tuples(st.sampled_from(["own", "other"]), modulus),
                      st.tuples(st.just("junk"), st.sampled_from([None, [[1]], [1, 2]])))
    scalar = st.one_of(element, element, hostile)
    return {"e": scalar, "E": scalar, "p": poly, "P": poly, "T": table,
            "N": st.one_of(st.integers(-5, 2 ** 16), st.sampled_from(_BIG_INTS + _NON_INTS + [True])),
            "D": st.one_of(st.integers(-3, 40), st.sampled_from(_BIG_INTS + _NON_INTS + [True])),
            "B": st.one_of(st.booleans(), st.sampled_from([0, 1, None, "", "x", 2 ** 70, 0.0]))}


def _is_element(c, q):
    return type(c) in (int, bool) and 0 <= c < q


def _table(recipe, kern, other):
    """The table a drawn recipe names: built by kern (own) or by another
    kernel of its class (other), or the junk value itself."""
    source, value = recipe
    if source == "junk":
        return value
    return (kern if source == "own" else other).ptable(value)


def _outcome(kern, other, name, args):
    """What kern.name(*args) gives, each table operand made from its
    recipe: ("value", value), a table as its rows, or ("raises", the
    exception class)."""
    args = [_table(a, kern, other) if letter == "T" else a
            for letter, a in zip(_SIGNATURES[name], args)]
    try:
        value = getattr(kern, name)(*args)
    except Exception as exc:
        return "raises", type(exc)
    return "value", table_rows(kern, value) if name == "ptable" else value


@pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_compiled)])
@pytest.mark.parametrize("field_args", _FUZZ_FIELDS.values(), ids=_FUZZ_FIELDS)
# no shrink phase: the assertion names the method and its operands, and
# shrinking an example of 18 calls took minutes
@settings(max_examples=80, derandomize=True, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_hostile_operands(backend, field_args, data):
    """Every one of the 18 methods on drawn, often hostile, operands, on
    the pure kernel and, in the compiled half, on the compiled one too.
    Where the pure kernel's hot ops get only elements, the pure kernel
    returns or raises TypeError, ValueError, ZeroDivisionError or
    OverflowError, and the compiled one always does; the two agree on the
    value or the exception class.

    The one allowed divergence, as a rule: on an operand of a hot op
    (lower case above) outside [0, q), the pure kernel may return or raise
    anything where the compiled one raises. pmul([1, None], [1, 1]) over
    F_5 is an example: the pure kernel returns [1, 1], skipping the None
    as a zero, where the compiled one raises TypeError."""
    ctx = field_create(*field_args)
    tables = (ctx.p, ctx.e, ctx.exp, ctx.log)
    classes = [PureFieldKernel] + [CompiledFieldKernel] * (backend == "compiled")
    pairs = [(cls(*tables), cls(*tables)) for cls in classes]
    strategies = _fuzz_strategies(ctx.q)
    for name, letters in _SIGNATURES.items():
        args = data.draw(st.tuples(*map(strategies.__getitem__, letters)), label=name)
        hot_ok = all(_is_element(a, ctx.q) if letter == "e" else
                     type(a) in (list, tuple) and all(_is_element(c, ctx.q) for c in a)
                     for letter, a in zip(letters, args) if letter.islower())
        pure, *compiled = [_outcome(kern, other, name, args) for kern, other in pairs]
        for kind, got in compiled + ([pure] if hot_ok else []):
            assert kind == "value" or issubclass(got, _KERNEL_ERRORS), (name, args, got)
        if compiled and (hot_ok or compiled[0][0] == "value"):
            assert pure == compiled[0], (name, args)
