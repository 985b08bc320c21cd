"""Irreducibility testing and factorization in F_q[T].

Factorization runs squarefree decomposition, then distinct-degree splitting,
then randomized equal-degree (Cantor-Zassenhaus) splitting. The split draws
from its own generator with a fixed seed, and the primes come out sorted, so
a factorization is a function of its input alone. The irreducibility test is
the distinct-degree split stopped at its first part (Ben-Or, FOCS 1981).

The split raises h to the q-th power mod f again and again. That map fixes
F_q, so it is F_q-linear: h**q = sum h_i * T**(q*i) mod f. frobenius_table(f)
is the kernel's table of f, the rows T**(q*i) mod f with f's divisor, built
once (von zur Gathen and Shoup, Comput. Complexity 2, 1992); the kernel
applies it in deg(f)**2 steps (papply) and walks the distinct-degree split
on it (pwalk), keeping h in its own form from step to step.
On the same table frobenius_norm() raises h to 1 + q + ... + q**(d-1)
by an Itoh-Tsujii addition chain (Inform. Comput. 78, 1988), one kernel
call (pnorm): d - 1 table applications and about 2*log2(d) products mod
f. With d = deg f it is the
norm of the residue symbol. The equal-degree split needs a**((q**d-1)/2)
mod g for the degree d of g's primes; for odd q that is exactly
N_d(a)**((q-1)/2), N_d(a) = a**(1 + q + ... + q**(d-1)), so it takes the
chain on g's table and a powmod to (q-1)/2 where the direct power took
about d*log2(q) squarings mod g. No power above (q-1)/2 is left here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import ConstantInput, ValidationError
from .field import FieldCtx
from .poly import Poly, _wrap, monic_of_degree, one, poly_gcd, poly_powmod


@dataclass(frozen=True)
class PrimePower:
    """A monic irreducible together with its exponent in some factorization."""

    prime: Poly
    exp: int
    degree: int
    norm: int

    @classmethod
    def make(cls, prime: Poly, exp: int) -> "PrimePower":
        d = prime.degree
        return cls(prime=prime, exp=exp, degree=d, norm=prime.ctx.q ** d)


@dataclass(frozen=True)
class Factorization:
    lead: int
    factors: tuple[PrimePower, ...]

    def product(self, ctx: FieldCtx) -> Poly:
        out = one(ctx).scale(self.lead)
        for pp in self.factors:
            out = out * pp.prime ** pp.exp
        return out


def _felem_pow(ctx: FieldCtx, c: int, n: int) -> int:
    if c == 0:
        return 0
    return ctx.exp[(ctx.log[c] * n) % ctx.w]


def _pth_root(f: Poly) -> Poly:
    # f has zero derivative, i.e. f = g(T^p); invert Frobenius on coefficients.
    ctx = f.ctx
    root_exp = ctx.p ** (ctx.e - 1)
    cs = [_felem_pow(ctx, f.coeffs[i], root_exp)
          for i in range(0, f.degree + 1, ctx.p)]
    return Poly(ctx, cs)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree parts with multiplicities; f must be monic, deg >= 1."""
    ctx = f.ctx
    parts: list[tuple[Poly, int]] = []
    n = 1
    while f.degree >= 1:
        df = f.derivative()
        if df.is_zero:
            f = _pth_root(f)
            n *= ctx.p
            continue
        g = poly_gcd(f, df)
        h = f // g
        i = 1
        while h.degree >= 1:
            g2 = poly_gcd(g, h)
            z = h // g2
            if z.degree >= 1:
                parts.append((z, i * n))
            g = g // g2
            h = g2
            i += 1
        f = g
    return parts


def frobenius_table(f: Poly):
    """The Frobenius table of f nonconstant, the kernel's ptable(f): the rows
    T**(q*i) mod f for i < deg f, with f's divisor, prepared once. len() of
    the table is deg f."""
    return f.ctx.kernel.ptable(f.coeffs)


def frobenius_norm(table, h: Poly, d: int) -> Poly:
    """h**(1 + q + ... + q**(d-1)) mod f, for d >= 1, h reduced mod f and
    table = frobenius_table(f): the kernel's pnorm, an Itoh-Tsujii chain on
    the table. Its steps are identities of the ring F_q[T]/(f), so the
    result equals the powmod for every f and d; with d = deg f it is the
    norm of h when f is prime."""
    if h.degree >= len(table) or d < 1:
        raise ValidationError("frobenius_norm needs h reduced mod the table's modulus, d >= 1")
    return _wrap(h.ctx, h.ctx.kernel.pnorm(table, h.coeffs, d))


def distinct_degree_split(f: Poly) -> Iterator[tuple[Poly, int]]:
    """Yield (g, d), g the product of the monic f's primes of degree d, in the
    order found. The parts multiply to f when f is squarefree, as factoring
    needs. For any f the first part is (f, deg f) exactly when f is
    irreducible (Ben-Or): a reducible f, squares included, has a prime of
    degree <= deg(f)/2.

    The walk is the kernel's pwalk on f's table. Step d holds h = T**(q**d)
    mod the f left after the parts found so far, and takes gcd(f, h - T).
    Every step applies the first f's table, F's: h**q mod F is h**q plus a
    multiple of F, hence of the current f, so once f has shrunk below F the
    result is reduced mod f. That costs about 2*deg f*(deg F - deg f) field
    operations in each of the at most deg(f)/2 steps left, where reducing
    the table's rows mod f cost about deg f**2 * (deg F - deg f) at once."""
    ctx = f.ctx
    for part, d in ctx.kernel.pwalk(frobenius_table(f), False):
        yield _wrap(ctx, part), d


def _is_irreducible(f: Poly, table) -> bool:
    """Ben-Or's test of a monic nonconstant f on table = frobenius_table(f):
    the first distinct-degree part is f itself, found at degree deg f."""
    return f.degree == 1 or f.ctx.kernel.pwalk(table, True)[0][1] == f.degree


def equal_degree_split(f: Poly, d: int) -> list[Poly]:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d primes.

    Each try draws a reduced mod the part g being split and takes
    b = a**((q**d - 1)/2) - 1. Since (q**d - 1)/2 = (1 + q + ... + q**(d-1))
    * (q - 1)/2 for odd q, b is N_d(a)**((q-1)/2) - 1 exactly, N_d(a) =
    frobenius_norm(table, a, d) on g's table: d - 1 table applications and
    about 2*log2(d) products mod g, then a powmod to (q-1)/2, where the
    direct power took about d*log2(q) squarings. b, every draw and every
    split are those of the direct power. The draws come from random.Random(0),
    made only once some part has to be split.
    """
    ctx = f.ctx
    out: list[Poly] = []
    stack = [f]
    half = (ctx.q - 1) // 2
    rng = None
    while stack:
        g = stack.pop()
        if g.degree == d:
            out.append(g)
            continue
        if rng is None:
            rng = random.Random(0)
        table = frobenius_table(g)
        while True:
            a = Poly(ctx, [rng.randrange(ctx.q) for _ in range(g.degree)])
            if a.degree < 1:
                continue
            b = poly_powmod(frobenius_norm(table, a, d), half, g) - one(ctx)
            h = poly_gcd(b, g) if not b.is_zero else g
            if 0 < h.degree < g.degree:
                stack.append(h)
                stack.append(g // h)
                break
    return out


def poly_is_irreducible(f: Poly) -> bool:
    """Ben-Or's irreducibility test over F_q: the first distinct-degree part."""
    if f.is_zero or f.degree < 1:
        raise ConstantInput("irreducibility is tested for nonconstant polynomials only")
    f = f.to_monic()
    return _is_irreducible(f, frobenius_table(f))


def poly_factor(f: Poly) -> Factorization:
    """Full factorization into monic primes, sorted canonically.

    The leading coefficient is returned separately; the product of the prime
    powers times it reproduces the input exactly.
    """
    if f.is_zero or f.degree < 1:
        raise ConstantInput("factorization needs a nonconstant polynomial")
    lead = f.lc
    found: list[tuple[Poly, int]] = []
    for part, mult in squarefree_decomposition(f.to_monic()):
        for prod, d in distinct_degree_split(part):
            for prime in equal_degree_split(prod, d):
                found.append((prime, mult))
    found.sort(key=lambda item: item[0].sort_key)
    pps = tuple(PrimePower.make(prime, mult) for prime, mult in found)
    return Factorization(lead=lead, factors=pps)


def poly_phi(ctx: FieldCtx, factors: Sequence[PrimePower]) -> int:
    """Order of the unit group modulo the product of the given prime powers:
    prod q**(d_i * (r_i - 1)) * (q**d_i - 1). Empty input gives 1."""
    seen = set()
    out = 1
    for pp in factors:
        if pp.prime.coeffs in seen:
            raise ValidationError(f"repeated prime {pp.prime} in factor list")
        seen.add(pp.prime.coeffs)
        if pp.exp < 1:
            raise ValidationError(f"exponent must be >= 1, got {pp.exp}")
        out *= ctx.q ** (pp.degree * (pp.exp - 1)) * (ctx.q ** pp.degree - 1)
    return out


def monic_irreducibles(ctx: FieldCtx, max_degree: int) -> Iterator[Poly]:
    """All monic irreducibles of degree 1..max_degree in canonical order."""
    for d in range(1, max_degree + 1):
        for f in monic_of_degree(ctx, d):
            if poly_is_irreducible(f):
                yield f
