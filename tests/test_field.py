from __future__ import annotations

import hashlib
import math
import random

import pytest

from qcff.algebra import field_create, monic_of_degree, poly_is_irreducible
from qcff.algebra.field import prime_divisors_int
from qcff.errors import (
    EvenCharacteristic,
    MissingModulus,
    NonPrimeP,
    ReducibleModulus,
    ValidationError,
)

from .oracles import digits_of, enc_of, naive_dlog, naive_fq_add, naive_fq_mul, naive_fq_order

# q <= 27: every supported field in that range gets the exhaustive checks.
SMALL_FIELDS = [
    (3, 1, None),
    (5, 1, None),
    (7, 1, None),
    (11, 1, None),
    (13, 1, None),
    (3, 2, [1, 0, 1]),   # q = 9
    (5, 2, [2, 0, 1]),   # q = 25
    (3, 3, [1, 2, 0, 1]),  # q = 27
]

# q > 256: fields without an addition table, one prime and two extensions
# (their digits add in groups of 5 + 1 and of 2 + 1)
LARGE_FIELDS = [
    (257, 1, None),
    (3, 6, [2, 1, 0, 0, 0, 0, 1]),  # q = 729, modulus T^6+T+2
    (7, 3, [2, 0, 0, 1]),  # q = 343, modulus T^3+2
]


def test_gamma_for_f3():
    ctx = field_create(3)
    assert (ctx.q, ctx.w, ctx.gamma) == (3, 2, 2)
    # derived check: 2 really has order 2
    assert naive_fq_order(ctx, 2) == 2


def test_gamma_for_f5():
    ctx = field_create(5)
    assert ctx.gamma == 2
    assert naive_fq_order(ctx, 2) == 4


def test_gamma_for_f9_is_x_plus_1():
    ctx = field_create(3, 2, [1, 0, 1])
    assert (ctx.q, ctx.w) == (9, 8)
    # enc of x + 1 is 1 + 1*3 = 4; both smaller candidates fall short of full order
    assert ctx.gamma == 4
    assert naive_fq_order(ctx, 4) == 8
    assert naive_fq_order(ctx, 2) < 8 and naive_fq_order(ctx, 3) < 8


def test_gamma_is_smallest_with_full_order():
    for p, e, mod in SMALL_FIELDS:
        ctx = field_create(p, e, mod)
        for cand in range(2, ctx.gamma):
            assert naive_fq_order(ctx, cand) < ctx.w


@pytest.mark.parametrize("p,e,mod", SMALL_FIELDS)
def test_dlog_exhaustive(p, e, mod):
    ctx = field_create(p, e, mod)
    for x in range(1, ctx.q):
        i = ctx.log[x]
        assert 0 <= i < ctx.w
        assert i == naive_dlog(ctx, x)
        assert ctx.exp[i] == x
    for i in range(ctx.w):
        assert ctx.log[ctx.exp[i]] == i


@pytest.mark.parametrize("p,e,mod", SMALL_FIELDS)
def test_dlog_is_homomorphism(p, e, mod):
    ctx = field_create(p, e, mod)
    for x in range(1, ctx.q):
        for y in range(1, ctx.q):
            xy = naive_fq_mul(ctx, x, y)
            assert ctx.log[xy] == (ctx.log[x] + ctx.log[y]) % ctx.w


def test_dlog_examples(ctx3, ctx5):
    assert ctx3.log[1] == 0
    assert ctx3.log[2] == 1
    assert ctx5.log[4] == 2  # 2^2 = 4


def test_enc_digit_round_trip(ctx9):
    for x in range(ctx9.q):
        assert enc_of(ctx9, list(ctx9.digits(x))) == x
    assert ctx9.digits(4) == (1, 1)


@pytest.mark.parametrize("p,e,mod", [(3, 2, [1, 0, 1])] + LARGE_FIELDS,
                         ids=["F_9", "F_257", "F_3^6", "F_7^3"])
def test_kernel_scalar_ops_match_naive(p, e, mod):
    """Every pair for q <= 343 and a seeded sample for F_3^6: the field's
    addition lookup (table, 2p sums or digit groups) against the digit
    oracle."""
    ctx = field_create(p, e, mod)
    k = ctx.kernel
    if ctx.q <= 343:
        pairs = [(a, b) for a in range(ctx.q) for b in range(ctx.q)]
    else:
        rng = random.Random(6)
        pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(20000)]
    for a, b in pairs:
        assert k.fmul(a, b) == naive_fq_mul(ctx, a, b)
        assert k.fadd(a, b) == naive_fq_add(ctx, a, b)
    for a in range(1, ctx.q):
        assert k.fmul(a, k.finv(a)) == 1


@pytest.mark.parametrize("p,e,mod", LARGE_FIELDS)
def test_table_free_fields_match_naive(p, e, mod):
    ctx = field_create(p, e, mod)
    assert naive_fq_order(ctx, ctx.gamma) == ctx.w
    for cand in range(2, ctx.gamma):
        assert naive_fq_order(ctx, cand) < ctx.w
    k = ctx.kernel
    rng = random.Random(729)
    for _ in range(2000):
        a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
        da, db = digits_of(ctx, a), digits_of(ctx, b)
        assert k.fadd(a, b) == enc_of(ctx, [(x + y) % p for x, y in zip(da, db)])
        assert k.fsub(a, b) == enc_of(ctx, [(x - y) % p for x, y in zip(da, db)])
        assert k.fmul(a, b) == naive_fq_mul(ctx, a, b)


def test_field_create_rejections():
    with pytest.raises(NonPrimeP):
        field_create(9)
    with pytest.raises(NonPrimeP):
        field_create(1)
    with pytest.raises(EvenCharacteristic):
        field_create(2)
    with pytest.raises(MissingModulus):
        field_create(3, 2)
    with pytest.raises(ReducibleModulus):
        field_create(3, 2, [2, 0, 1])  # x^2 + 2 = (x+1)(x+2)
    with pytest.raises(ValidationError):
        field_create(3, 1, [1, 1])  # modulus forbidden for e = 1
    with pytest.raises(ValidationError):
        field_create(3, 2, [1, 0, 2])  # not monic
    with pytest.raises(ValidationError):
        field_create(3, 0)


@pytest.mark.parametrize("p,e,modulus", [
    (3, 2, [1.7, 0, 1]), (3, 2, ["1", 0, 1]), (3, 2, [True, 0, 1]), (3, 2, ["x", 0, 1]),
    (3, 2, "101"), (3, True, None), (3.0, 1, None), (True, 1, None),
], ids=repr)
def test_field_create_takes_only_ints(p, e, modulus):
    """p, e and the modulus entries are ints, not bools or anything int()
    would convert: each of these raises ValidationError (NonPrimeP is one)."""
    with pytest.raises(ValidationError):
        field_create(p, e, modulus)


def _table_sweep(max_q: int):
    """(p, e, modulus) for every odd prime power q <= max_q; for e > 1 the
    first two monic irreducible degree-e moduli with nonzero constant term."""
    for q in range(3, max_q + 1, 2):
        primes = prime_divisors_int(q)
        if len(primes) != 1:
            continue
        p = primes[0]
        e = round(math.log(q, p))
        if e == 1:
            yield p, 1, None
            continue
        moduli = (f.coeffs for f in monic_of_degree(field_create(p), e)
                  if f.coeffs[0] and poly_is_irreducible(f))
        for _ in range(2):
            yield p, e, list(next(moduli))


def test_field_tables_are_pinned():
    """The tables of the 168 fields of the sweep up to q = 799 hash to one
    pinned value, so a new way of building them cannot change an entry.
    Negation and, for q <= 256, the addition table are read through the
    kernel, which builds them."""
    digest = hashlib.sha256()
    count = 0
    for p, e, mod in _table_sweep(799):
        ctx = field_create(p, e, mod)
        k, elems = ctx.kernel, range(ctx.q)
        neg = tuple(k.fneg(x) for x in elems)
        add = tuple(k.fadd(a, b) for a in elems for b in elems) if ctx.q <= 256 else None
        digest.update(repr((ctx.q, ctx.modulus, ctx.gamma, ctx.exp, ctx.log,
                            neg, add)).encode())
        count += 1
    assert count == 168
    assert digest.hexdigest() == (
        "168e56f8a393656b5cbb3e3fa238b0473ea11348807059dc42ab616f618c2746")
