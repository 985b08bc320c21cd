"""Table-free field oracles, deliberately independent of the library's hot paths.

Field addition and multiplication here work on digit vectors directly (no
exp/log or addition tables), and polynomial sums and products are plain
coefficient-wise sums and convolutions over them. The brute-force oracles
of the law checks (unit counts, power-residue sets) live with the suites
that use them, in ``qcff.selfcheck``. ``powmod_residue_symbol`` keeps the
residue symbol's definition as one modular power, the reference of the
library's norm form.
"""

from __future__ import annotations

from itertools import zip_longest

from qcff.algebra import FieldCtx, Poly, poly_gcd, poly_is_irreducible, poly_powmod
from qcff.errors import NotCoprime, NotPrimeModulus
from qcff.symbols import SymbolValue


def digits_of(ctx: FieldCtx, x: int) -> list[int]:
    out = []
    for _ in range(ctx.e):
        x, r = divmod(x, ctx.p)
        out.append(r)
    return out


def enc_of(ctx: FieldCtx, digits: list[int]) -> int:
    enc = 0
    for d in reversed(digits):
        enc = enc * ctx.p + d
    return enc


def naive_fq_add(ctx: FieldCtx, a: int, b: int) -> int:
    """Digit-wise sum without any lookup tables."""
    return enc_of(ctx, [(x + y) % ctx.p for x, y in zip(digits_of(ctx, a), digits_of(ctx, b))])


def naive_fq_mul(ctx: FieldCtx, a: int, b: int) -> int:
    """Polynomial-basis product without any lookup tables."""
    p, e = ctx.p, ctx.e
    if e == 1:
        return (a * b) % p
    da, db = digits_of(ctx, a), digits_of(ctx, b)
    conv = [0] * (2 * e - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            conv[i + j] = (conv[i + j] + x * y) % p
    mod = ctx.modulus
    for k in range(len(conv) - 1, e - 1, -1):
        c = conv[k]
        if c:
            conv[k] = 0
            for j in range(e):
                conv[k - e + j] = (conv[k - e + j] - c * mod[j]) % p
    return enc_of(ctx, conv[:e])


def naive_fq_order(ctx: FieldCtx, x: int) -> int:
    """Multiplicative order by walking powers."""
    assert x != 0
    acc = x
    order = 1
    while acc != 1:
        acc = naive_fq_mul(ctx, acc, x)
        order += 1
        assert order <= ctx.w
    return order


def naive_dlog(ctx: FieldCtx, x: int) -> int:
    """Discrete log by brute-force power walk from gamma."""
    assert x != 0
    acc = 1
    for i in range(ctx.w):
        if acc == x:
            return i
        acc = naive_fq_mul(ctx, acc, ctx.gamma)
    raise AssertionError(f"{x} not generated by gamma")


def naive_poly_mul(ctx: FieldCtx, f: Poly, g: Poly) -> Poly:
    """Convolution product using only naive field multiplication."""
    if f.is_zero or g.is_zero:
        return Poly(ctx, [])
    conv = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            conv[i + j] = naive_fq_add(ctx, conv[i + j], naive_fq_mul(ctx, a, b))
    return Poly(ctx, conv)


def naive_poly_add(ctx: FieldCtx, f: Poly, g: Poly) -> Poly:
    """Coefficient-wise sum using only naive field addition."""
    return Poly(ctx, [naive_fq_add(ctx, a, b)
                      for a, b in zip_longest(f.coeffs, g.coeffs, fillvalue=0)])


def powmod_residue_symbol(a: Poly, r: Poly, *, validate: bool = False) -> SymbolValue:
    """The residue symbol as a**((|r|-1)/(q-1)) mod r by one powmod, with
    residue_symbol's checks in residue_symbol's order."""
    ctx = a.ctx
    if r.is_zero or r.is_constant or not r.monic:
        raise NotPrimeModulus(f"lower entry {r} must be a monic prime")
    if validate and not poly_is_irreducible(r):
        raise NotPrimeModulus(f"lower entry {r} is reducible")
    if poly_gcd(a, r).degree != 0:
        raise NotCoprime(f"{a} and {r} share a factor")
    reduced = poly_powmod(a, (ctx.q ** r.degree - 1) // ctx.w, r)
    if reduced.degree != 0:
        raise NotPrimeModulus(f"{r} is not prime (symbol power was not constant)")
    return SymbolValue.of(ctx, reduced.coeffs[0])
