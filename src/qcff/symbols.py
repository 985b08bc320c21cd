"""Power residue symbols in F_q[T].

The (q-1)-th residue symbol of a modulo a monic prime r is the unique
element of F_q* congruent to a**((|r|-1)/(q-1)) mod r; |r| = q**deg(r).
jacobi_symbol() extends it multiplicatively to any monic lower entry, and
it satisfies the reciprocity law checked by check_reciprocity().

The symbol is computed along two paths:

* residue_symbol() is the definition: the norm a**(1 + q + ... + q**(d-1))
  mod r, d = deg r, taken on r's Frobenius table (frobenius_norm), which is
  the same power as a**((|r|-1)/(q-1)) for every monic r. With validate
  the Ben-Or re-check of r walks that same table. A caller checking many
  symbols over one field may pass a tables dict, r.coeffs -> (table,
  proven): each distinct r then gets one table and at most one Ben-Or walk
  for as long as the caller keeps the dict (run_report keeps one per
  report, suite_reciprocity one per suite). jacobi_symbol() is built on it
  by factoring the lower entry. These are the oracle: check_reciprocity()
  and the selfcheck suites use only them, so a law they check is never
  checked against itself.
* symbol_dlog() runs Euclid's algorithm on (a, b) and applies the
  reciprocity law at each step (Rosen, Number Theory in Function Fields,
  Thm 3.3, with d = q-1). It costs O(deg**2) field operations and needs
  no factorization of b. The report's ramification table uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Poly, poly_factor, poly_gcd
from .algebra.factor import _is_irreducible, frobenius_norm, frobenius_table
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


def residue_symbol(a: Poly, r: Poly, *, validate: bool = False,
                   tables: dict | None = None) -> SymbolValue:
    """The (q-1)-th power residue symbol of a modulo the monic prime r.

    With validate=True the primality of r is re-checked (Ben-Or, on the table
    the norm uses); callers holding a certified factorization can skip that.
    tables, when given, maps r.coeffs to (r's Frobenius table, whether Ben-Or
    has passed on it) for moduli over a's field: r's entry is read before
    the table is built and written after, so the dict's owner builds each
    table and walks each Ben-Or at most once.
    Errors, in this order: NotPrimeModulus for a constant or non-monic r, or
    a reducible one under validate; NotCoprime when gcd(a, r) != 1;
    NotPrimeModulus when the norm is not constant (r is then reducible).
    """
    ctx = a.ctx
    if r.is_zero or r.is_constant or not r.monic:
        raise NotPrimeModulus(f"lower entry {r} must be a monic prime")
    entry = tables.get(r.coeffs) if tables is not None else None
    rows, proven = entry if entry is not None else (frobenius_table(r), False)
    if validate and not proven:
        if not _is_irreducible(r, rows):
            raise NotPrimeModulus(f"lower entry {r} is reducible")
        proven = True
    if tables is not None:
        tables[r.coeffs] = (rows, proven)
    reduced = frobenius_norm(rows, a % r, r.degree)
    if reduced.degree != 0:
        # a unit's norm is a unit, so a nonzero constant proves gcd(a, r) = 1
        if poly_gcd(a, r).degree != 0:
            raise NotCoprime(f"{a} and {r} share a factor")
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


def symbol_dlog(a: Poly, b: Poly) -> int:
    """The dlog mod w of the symbol (a over b) for a monic b, by Euclid.

    Each step reduces a mod b; pulls out a's leading coefficient c, since
    (c over b) = c**deg b; then swaps the two monic entries by reciprocity,
    (a over b) = (-1)**(deg a * deg b) * (b over a), where -1 has dlog w/2.
    It equals jacobi_symbol(a, b).dlog and raises NotCoprime on the same
    inputs: a reaches 0 while b is still nonconstant exactly when
    gcd(a, b) != 1.
    """
    ctx = a.ctx
    if ctx is not b.ctx and ctx != b.ctx:
        raise ValidationError("polynomials belong to different fields")
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


def check_reciprocity(p1: Poly, p2: Poly, *, validate: bool = True,
                      tables: dict | None = None) -> bool:
    """Evaluate both sides of the reciprocity law independently and compare:
    symbol(p2 over p1) against (-1)**(deg p1 * deg p2) * symbol(p1 over p2).
    tables is passed to both residue_symbol() calls."""
    if p1 == p2:
        raise EqualPrimes("reciprocity needs two distinct primes")
    ctx = p1.ctx
    left = residue_symbol(p2, p1, validate=validate, tables=tables).value
    right = residue_symbol(p1, p2, validate=validate, tables=tables).value
    if (p1.degree * p2.degree) % 2 == 1:
        right = ctx.kernel.fmul(right, ctx.minus_one)
    return left == right
