"""Backend equivalence: the compiled kernel must agree with the pure one."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from qcff._kernels import CompiledFieldKernel, PureFieldKernel
from qcff._kernels.pure import _GroupSums
from qcff.algebra import Poly, field_create
from qcff.algebra.factor import frobenius_table

from .oracles import (
    frobenius_fold,
    naive_divrem,
    naive_gcd,
    naive_poly_add,
    naive_poly_mul,
    naive_powmod,
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
    pure = PureFieldKernel(ctx.p, ctx.e, ctx.q, ctx.w, ctx.exp, ctx.log,
                           ctx._neg, ctx._add_table)
    comp = CompiledFieldKernel(ctx.p, ctx.e, ctx.q, ctx.w, ctx.exp, ctx.log,
                               ctx._neg, ctx._add_table)
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
    ctx, pure, comp = _kernels(p, e, mod)
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
        if f or g:
            assert pure.pgcd(f, g) == comp.pgcd(f, g)
        if len(g) >= 2:
            n = rng.randrange(10 ** 9)
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


@needs_compiled
def test_powmod_with_huge_exponent():
    ctx, pure, comp = _kernels(3, 2, [1, 0, 1])
    f = [4, 7, 1]
    m = [1, 0, 0, 0, 1]
    n = (ctx.q ** 40 - 1) // ctx.w
    assert pure.ppowmod(f, n, m) == comp.ppowmod(f, n, m)


@needs_compiled
def test_compiled_kernel_has_pure_interface():
    """Every public method of the pure kernel, and the attributes p e q w,
    exist on the compiled one (the sweeps above check what they compute)."""
    ctx, pure, comp = _kernels(5, 2, [2, 0, 1])
    methods = [name for name, attr in vars(PureFieldKernel).items()
               if callable(attr) and not name.startswith("_")]
    assert len(methods) == 15
    for name in methods:
        assert callable(getattr(comp, name, None)), name
    for name in ("p", "e", "q", "w"):
        assert getattr(comp, name) == getattr(pure, name) == getattr(ctx, name)


def _frobenius_cases(ctx, rng, count):
    """(rows, h) pairs: the Frobenius table of a random monic f of degree
    1..16, both kinds of row 1 (q < deg f and q >= deg f) where the field
    allows, and a random h reduced mod f."""
    for _ in range(count):
        d = rng.randrange(1, 17)
        f = Poly(ctx, [rng.randrange(ctx.q) for _ in range(d)] + [1])
        rows = frobenius_table(f)
        yield rows, _rand_poly(rng, ctx.q, d + 1)


@needs_compiled
@pytest.mark.parametrize("p,e,mod", FIELDS)
def test_backends_agree_on_papply(p, e, mod):
    ctx, pure, comp = _kernels(p, e, mod)
    rng = random.Random(18)
    for rows, h in _frobenius_cases(ctx, rng, 40):
        assert pure.papply(rows, h) == comp.papply(rows, h), (rows, h)


@pytest.mark.parametrize("cls", [
    pytest.param(PureFieldKernel, id="pure"),
    pytest.param(CompiledFieldKernel, id="compiled", marks=needs_compiled)])
@pytest.mark.parametrize("p,e,mod", FIELDS)
def test_papply_matches_the_fold(cls, p, e, mod):
    ctx = field_create(p, e, mod)
    kern = cls(ctx.p, ctx.e, ctx.q, ctx.w, ctx.exp, ctx.log, ctx._neg, ctx._add_table)
    rng = random.Random(19)
    for rows, h in _frobenius_cases(ctx, rng, 25):
        out = kern.papply(rows, h)
        assert isinstance(out, list) and (not out or out[-1])
        assert out == frobenius_fold(kern, rows, h), (rows, h)


def _backends():
    """The pure kernel on F_5, and the compiled one when it is built, as
    pytest params named after their backend."""
    ctx = field_create(5, 1, None)
    tables = (ctx.p, ctx.e, ctx.q, ctx.w, ctx.exp, ctx.log, ctx._neg, ctx._add_table)
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


@pytest.mark.parametrize("kern", _backends())
def test_powmod_nonpositive_exponent_is_one(kern):
    f, m = [2, 3, 1], [1, 4, 0, 1]
    assert kern.ppowmod(f, 0, m) == kern.ppowmod(f, -5, m) == [1]
    assert kern.ppowmod(f, -2 ** 80, m) == [1]


@pytest.mark.parametrize("kern", _backends())
def test_papply_edge_cases(kern):
    rows = [[1], [0, 0, 4], [0, 4]]  # the Frobenius table of T^3 + 1 over F_5
    assert kern.papply(rows, []) == kern.papply([], []) == []
    assert kern.papply(rows, (0, 1)) == [0, 0, 4]
    assert kern.papply(rows, [2, 1, 3]) == [2, 2, 4]
    # h longer than the table; an unused row too long; a used row too long
    for bad_rows, h in ((rows, [1, 0, 0, 1]), ([], [1]),
                        (rows + [[1, 2, 3, 4, 1]], [1]),
                        ([[1], [0, 0, 1]], [0, 1])):
        with pytest.raises(ValueError):
            kern.papply(bad_rows, h)


@pytest.mark.parametrize("kern", _backends())
def test_finv_of_zero_raises(kern):
    with pytest.raises(ZeroDivisionError):
        kern.finv(0)
    assert all(kern.fmul(a, kern.finv(a)) == 1 for a in range(1, kern.q))


@pytest.mark.parametrize("kern", _backends())
def test_pmonic_of_zero_top_coefficient_raises(kern):
    """An unstripped f with a zero top has no monic multiple: both backends
    raise as finv(0) does, where the compiled one used to return [2, 0]."""
    for call in (lambda: kern.pmonic([1, 0]), lambda: kern.pgcd([1, 0], [])):
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            call()


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
    ("papply", ([[1, None], [0, 1]], [1])),
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
    its constructor rejects tables that could send an index outside them."""
    ctx = field_create(5, 1, None)
    exp, log, neg = list(ctx.exp), list(ctx.log), list(ctx._neg)
    bad = [
        (5, 2, 5, 4, exp, log, neg),                 # q != p**e
        (5, 1, 5, 4, exp[:-1], log, neg),            # exp too short
        (5, 1, 5, 4, exp, log, neg, [0] * 24),       # add table too short
        (5, 1, 5, 4, [0] + exp[1:], log, neg),       # exp holds 0
        (5, 1, 5, 4, exp, [-1, 0, -1, 3, 2], neg),   # log of 2 negative
        (5, 1, 5, 4, exp, log, [0, 4, 3, 2, 5]),     # neg outside [0, q)
    ]
    for args in bad:
        with pytest.raises(ValueError):
            CompiledFieldKernel(*args)


def _every_op_once(kern):
    """Calls each of the 15 methods on F_5, and each failing call above."""
    f, g, m = [1, 2, 0, 3, 1], [2, 1, 1], [1, 0, 3, 1]
    kern.fadd(1, 2), kern.fneg(3), kern.fsub(1, 4), kern.fmul(2, 3), kern.finv(2)
    kern.padd(f, g), kern.psub(g, f), kern.pscale(f, 3), kern.pmul(f, g)
    kern.pdivrem(f, g), kern.prem(f, g), kern.pmonic(g), kern.pgcd(f, g)
    kern.ppowmod(f, 10 ** 30, m), kern.ppowmod(tuple(f), 12345, m)
    kern.papply(([1], [0, 2, 1], (4, 4)), (3, 1, 2))
    failing = [(kern.prem, (f, [])), (kern.pdivrem, (f, [])), (kern.finv, (0,)),
               (kern.papply, ([[1], [0, 1, 1]], [1, 1])),
               (kern.ppowmod, (f, 3, [2])), (kern.pmul, ([1], [5])),
               (kern.ppowmod, (f, None, m)), (kern.pmonic, ([1, 0],))]
    failing += [(getattr(kern, op), args) for op, args in _NONE_CALLS]
    for fn, args in failing:
        try:
            fn(*args)
        except (ZeroDivisionError, TypeError, ValueError):
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
    kern = PureFieldKernel(ctx.p, ctx.e, ctx.q, ctx.w, ctx.exp, ctx.log,
                           ctx._neg, ctx._add_table)
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
    """pdivrem, prem, pgcd and ppowmod share the pure kernel's divisor
    preparation and remainder loop. Each is checked against schoolbook
    division, Euclid and square-and-multiply on the naive field operations,
    on random pairs and on the edges: f = [], f shorter than g, a constant
    g, a common factor, both argument orders of pgcd. No input is changed."""
    ctx = field_create(p, e, mod)
    kern = PureFieldKernel(ctx.p, ctx.e, ctx.q, ctx.w, ctx.exp, ctx.log,
                           ctx._neg, ctx._add_table)
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
    kern = PureFieldKernel(ctx.p, ctx.e, ctx.q, ctx.w, ctx.exp, ctx.log,
                           ctx._neg, ctx._add_table)
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
