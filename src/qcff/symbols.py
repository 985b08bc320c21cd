"""Power residue symbols in F_q[T].

The (q-1)-th residue symbol of a modulo a monic prime r is the unique
element of F_q* congruent to a**((|r|-1)/(q-1)) mod r; |r| = q**deg(r).
jacobi_symbol() extends it multiplicatively to any monic lower entry, and
it satisfies the reciprocity law checked by check_reciprocity().

Every function here returns a symbol as its discrete log base gamma, an int
in [0, w), w = q-1: that is all the Kummer layer reads (a prime's vbar is a
sum of symbol logs). The value in F_q* is ctx.exp[dlog].
check_reciprocity() returns a Reciprocity record, read by field name: both
symbols' dlogs and whether they satisfy the law.

The symbol is computed along two paths:

* residue_symbol() is the definition: the norm a**(1 + q + ... + q**(d-1))
  mod r, d = deg r, taken by the kernel's pnorm on r's Frobenius table, which
  is the same power as a**((|r|-1)/(q-1)) for every monic r. Its caller
  proves r prime, and the field keeps r's table from that proof on.
  jacobi_symbol() factors the lower entry. These are the oracle:
  check_reciprocity() and the selfcheck suites use only them, so a law
  they check is never checked against itself.
* symbol_dlog() runs Euclid's algorithm on (a, b) and applies the
  reciprocity law at each step (Rosen, Number Theory in Function Fields,
  Thm 3.3, with d = q-1). It costs O(deg**2) field operations and needs
  no factorization of b. The report's ramification table uses it.
"""

from __future__ import annotations

from .algebra import Poly, poly_factor, poly_gcd
from .algebra.factor import frobenius_table
from .algebra.poly import _same_field
from .errors import EqualPrimes, NotCoprime, NotMonic, NotPrimeModulus, ValidationError
from .record import Record


def residue_symbol(a: Poly, r: Poly) -> int:
    """The dlog of the (q-1)-th power residue symbol of a modulo the monic
    prime r, on the Frobenius table r's field keeps (a line r needs none:
    the norm is a mod r). Errors, in this order: NotPrimeModulus for a
    constant or non-monic r; NotCoprime when gcd(a, r) != 1; NotPrimeModulus
    when the norm is not constant (r is then reducible). A non-Poly a or r
    raises ValidationError.
    """
    if not (isinstance(a, Poly) and isinstance(r, Poly)):
        raise ValidationError(f"the residue symbol takes two Polys, not {a!r} and {r!r}")
    if r.is_zero or r.is_constant or not r.monic:
        raise NotPrimeModulus(f"lower entry {r} must be a monic prime")
    ctx = r.ctx
    norm = (a % r).coeffs
    if r.degree > 1:
        norm = ctx.kernel.pnorm(frobenius_table(ctx, r.coeffs), norm, r.degree)
    if len(norm) != 1:
        # a unit's norm is a unit, so a nonzero constant proves gcd(a, r) = 1
        if poly_gcd(a, r).degree != 0:
            raise NotCoprime(f"{a} and {r} share a factor")
        raise NotPrimeModulus(f"{r} is not prime (symbol power was not constant)")
    return ctx.log[norm[0]]


def jacobi_symbol(a: Poly, b: Poly) -> int:
    """The dlog of the multiplicative extension of the residue symbol to a
    monic b: the sum of exp * dlog (a over P) over the prime powers P^exp
    of b, mod w; for b = 1 it is 0.
    """
    if not b.monic:
        raise NotMonic(f"lower entry {b} must be monic")
    factors = poly_factor(b).factors if b.degree > 0 else ()
    return sum(pp.exp * residue_symbol(a, pp.prime) for pp in factors) % a.ctx.w


def symbol_dlog(a: Poly, b: Poly) -> int:
    """The dlog mod w of the symbol (a over b) for a monic b, by Euclid.

    Each step reduces a mod b; pulls out a's leading coefficient c, since
    (c over b) = c**deg b; then swaps the two monic entries by reciprocity,
    (a over b) = (-1)**(deg a * deg b) * (b over a), where -1 has dlog w/2.
    It equals jacobi_symbol(a, b) and raises NotCoprime on the same
    inputs: a reaches 0 while b is still nonconstant exactly when
    gcd(a, b) != 1.
    """
    ctx = a.ctx
    _same_field(a, b)
    if not b.monic:
        raise NotMonic(f"lower entry {b} must be monic")
    kernel, log, w = ctx.kernel, ctx.log, ctx.w
    x, y = a.coeffs, b.coeffs
    acc = 0
    while len(y) > 1:
        x = kernel.prem(x, y)
        if not x:
            raise NotCoprime(f"{a} and {b} share a factor")
        dy = len(y) - 1
        acc += log[x[-1]] * dy
        x = kernel.pmonic(x)
        if (len(x) - 1) * dy % 2:
            acc += w // 2
        x, y = y, x
    return acc % w


class Reciprocity(Record):
    """The dlogs of the symbols (p1 over p2) and (p2 over p1) of two distinct
    monic primes, and whether
    (p2 over p1) = (-1)**(deg p1 * deg p2) * (p1 over p2)."""

    first_over_second: int
    second_over_first: int
    holds: bool


def check_reciprocity(p1: Poly, p2: Poly) -> Reciprocity:
    """Evaluate both sides of the reciprocity law independently and compare
    them in logs, where the sign -1 is the shift by w/2, as in symbol_dlog."""
    if p1 == p2:
        raise EqualPrimes("reciprocity needs two distinct primes")
    w = p1.ctx.w
    left, right = residue_symbol(p2, p1), residue_symbol(p1, p2)
    sign = w // 2 if (p1.degree * p2.degree) % 2 else 0
    return Reciprocity(first_over_second=right, second_over_first=left,
                       holds=left == (right + sign) % w)
