"""Irreducibility testing and factorization in F_q[T].

Factorization runs squarefree decomposition, then distinct-degree splitting,
then randomized equal-degree (Cantor-Zassenhaus) splitting. The random
source is injectable so CLI output stays reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import ConstantInput, ValidationError
from .field import FieldCtx, prime_divisors_int
from .poly import Poly, monic_of_degree, one, poly_gcd, poly_powmod, var_T


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


def distinct_degree_split(f: Poly) -> list[tuple[Poly, int]]:
    """Split a monic squarefree f into products of irreducibles of equal degree."""
    ctx = f.ctx
    T = var_T(ctx)
    out: list[tuple[Poly, int]] = []
    h = T % f
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        h = poly_powmod(h, ctx.q, f)
        g = poly_gcd(f, h - T)
        if g.degree >= 1:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree >= 1:
        out.append((f, f.degree))
    return out


def equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d primes."""
    ctx = f.ctx
    out: list[Poly] = []
    stack = [f]
    exponent = (ctx.q ** d - 1) // 2
    while stack:
        g = stack.pop()
        if g.degree == d:
            out.append(g)
            continue
        while True:
            a = Poly(ctx, [rng.randrange(ctx.q) for _ in range(g.degree)])
            if a.degree < 1:
                continue
            b = poly_powmod(a, exponent, g) - one(ctx)
            h = poly_gcd(b, g) if not b.is_zero else g
            if 0 < h.degree < g.degree:
                stack.append(h)
                stack.append(g // h)
                break
    return out


def poly_is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test over F_q."""
    if f.is_zero or f.degree < 1:
        raise ConstantInput("irreducibility is tested for nonconstant polynomials only")
    f = f.to_monic()
    d = f.degree
    if d == 1:
        return True
    ctx = f.ctx
    T = var_T(ctx)
    h = T % f
    cur = 0
    for t in sorted({d // ell for ell in prime_divisors_int(d)}):
        while cur < t:
            h = poly_powmod(h, ctx.q, f)
            cur += 1
        if poly_gcd(h - T, f).degree != 0:
            return False
    while cur < d:
        h = poly_powmod(h, ctx.q, f)
        cur += 1
    return h == T


def poly_factor(f: Poly, rng: random.Random | None = None) -> Factorization:
    """Full factorization into monic primes, sorted canonically.

    The leading coefficient is returned separately; the product of the prime
    powers times it reproduces the input exactly.
    """
    if f.is_zero or f.degree < 1:
        raise ConstantInput("factorization needs a nonconstant polynomial")
    if rng is None:
        rng = random.Random(0)
    lead = f.lc
    found: list[tuple[Poly, int]] = []
    for part, mult in squarefree_decomposition(f.to_monic()):
        for prod, d in distinct_degree_split(part):
            for prime in equal_degree_split(prod, d, rng):
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
