"""Power residue symbols in F_q[T].

The (q-1)-th residue symbol of a modulo a monic prime r is the unique
element of F_q* congruent to a**((|r|-1)/(q-1)) mod r; |r| = q**deg(r).
jacobi_symbol() extends it multiplicatively to any monic lower entry, and
it satisfies the reciprocity law checked by check_reciprocity().
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Poly, poly_factor, poly_gcd, poly_is_irreducible, poly_powmod
from .errors import EqualPrimes, NotCoprime, NotMonic, NotPrimeModulus, ValidationError


@dataclass(frozen=True)
class SymbolValue:
    """A symbol value in F_q*, paired with its discrete log base gamma."""

    value: int
    dlog: int

    @classmethod
    def of(cls, ctx, value: int) -> "SymbolValue":
        dlog = ctx.dlog(value)
        if ctx.exp[dlog] != value:
            raise ValidationError("inconsistent discrete log")  # pragma: no cover
        return cls(value=value, dlog=dlog)


def residue_symbol(a: Poly, r: Poly, *, validate: bool = False) -> SymbolValue:
    """The (q-1)-th power residue symbol of a modulo the monic prime r.

    With validate=True the primality of r is re-checked; callers holding a
    certified factorization can skip that.
    """
    ctx = a.ctx
    if r.is_zero or r.is_constant or not r.monic:
        raise NotPrimeModulus(f"lower entry {r} must be a monic prime")
    if validate and not poly_is_irreducible(r):
        raise NotPrimeModulus(f"lower entry {r} is reducible")
    if poly_gcd(a, r).degree != 0:
        raise NotCoprime(f"{a} and {r} share a factor")
    exponent = (ctx.q ** r.degree - 1) // ctx.w
    reduced = poly_powmod(a, exponent, r)
    if reduced.degree != 0:
        raise NotPrimeModulus(f"{r} is not prime (symbol power was not constant)")
    return SymbolValue.of(ctx, reduced.coeffs[0])


def jacobi_symbol(a: Poly, b: Poly) -> SymbolValue:
    """Multiplicative extension of the residue symbol to a monic b.

    Its dlog is the sum of exp * dlog (a over P) over the prime powers P^exp
    of b; for b = 1 the symbol is 1.
    """
    ctx = a.ctx
    if not b.monic:
        raise NotMonic(f"lower entry {b} must be monic")
    acc = 0
    if b.degree > 0:
        for pp in poly_factor(b).factors:
            s = residue_symbol(a, pp.prime)
            acc = (acc + pp.exp * s.dlog) % ctx.w
    return SymbolValue(value=ctx.exp[acc], dlog=acc)


def check_reciprocity(p1: Poly, p2: Poly, *, validate: bool = True) -> bool:
    """Evaluate both sides of the reciprocity law independently and compare:
    symbol(p2 over p1) against (-1)**(deg p1 * deg p2) * symbol(p1 over p2)."""
    if p1 == p2:
        raise EqualPrimes("reciprocity needs two distinct primes")
    ctx = p1.ctx
    left = residue_symbol(p2, p1, validate=validate).value
    right = residue_symbol(p1, p2, validate=validate).value
    if (p1.degree * p2.degree) % 2 == 1:
        right = ctx.kernel.fmul(right, ctx.minus_one)
    return left == right
