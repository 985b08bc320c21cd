"""Irreducibility testing and factorization in F_q[T].

Factorization runs squarefree decomposition, then distinct-degree splitting,
then randomized equal-degree (Cantor-Zassenhaus) splitting. The split draws
from its own generator with a fixed seed, and the primes come out sorted, so
a factorization is a function of its input alone. The irreducibility test is
the distinct-degree split stopped at its first part (Ben-Or, FOCS 1981).

The split raises h to the q-th power mod f again and again. That map fixes
F_q, so it is F_q-linear: h**q = sum h_i * T**(q*i) mod f. frobenius_table(f)
holds the rows T**(q*i) mod f, and frobenius_apply() applies them in
deg(f)**2 steps (von zur Gathen and Shoup, Comput. Complexity 2, 1992);
an application is one kernel call, papply(rows, h).
On the same table frobenius_norm() raises h to 1 + q + ... + q**(d-1)
by an Itoh-Tsujii addition chain (Inform. Comput. 78, 1988): d - 1 table
applications and about 2*log2(d) products mod f. With d = deg f it is the
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
from .poly import Poly, _wrap, monic_of_degree, one, poly_gcd, poly_powmod, var_T


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


class FrobeniusTable(tuple):
    """The rows T**(q*i) mod f for i < deg f, as coefficient lists; the
    modulus f's coefficients are kept as .modulus for frobenius_norm()."""

    def __new__(cls, rows, modulus):
        table = super().__new__(cls, rows)
        table.modulus = modulus
        return table


def frobenius_table(f: Poly) -> FrobeniusTable:
    """The Frobenius table of f nonconstant: rows T**(q*i) mod f, i < deg f.

    While q < deg f row 1 is the monomial T**q, so each later row, the one
    before times row 1 reduced mod f, is the one before shifted up q places
    and reduced, about q * deg f steps and no product; otherwise row 1 is
    one powmod and each later row a product mod f.
    """
    kernel, m, q = f.ctx.kernel, f.coeffs, f.ctx.q
    rows = [[1]]
    if q < f.degree:
        rows.append([0] * q + [1])
        for _ in range(2, f.degree):
            row = rows[-1]
            # an empty row stays empty, not q zeros
            rows.append(kernel.prem([0] * q + row if row else row, m))
    elif f.degree > 1:
        x = kernel.ppowmod([0, 1], q, m)
        rows.append(x)
        for _ in range(2, f.degree):
            rows.append(kernel.prem(kernel.pmul(rows[-1], x), m))
    return FrobeniusTable(rows, m)


def frobenius_apply(rows: Sequence[list[int]], h: Poly) -> Poly:
    """h**q mod f, for h reduced mod f and rows = frobenius_table(f)."""
    if h.degree >= len(rows):
        raise ValidationError("frobenius_apply needs h reduced mod the table's modulus")
    return _wrap(h.ctx, h.ctx.kernel.papply(rows, h.coeffs))


def frobenius_norm(rows: FrobeniusTable, h: Poly, d: int) -> Poly:
    """h**(1 + q + ... + q**(d-1)) mod f, for d >= 1, h reduced mod f and
    rows = frobenius_table(f).

    N_k = h**(1 + q + ... + q**(k-1)) follows the bits of d from the top:
    N_2k = N_k**(q**k) * N_k and N_(k+1) = N_k**q * h. These are identities
    of the ring F_q[T]/(f), so the result equals the powmod for every f and
    d; with d = deg f it is the norm of h when f is prime.
    """
    if h.degree >= len(rows) or d < 1:
        raise ValidationError("frobenius_norm needs h reduced mod the table's modulus, d >= 1")
    kernel, m = h.ctx.kernel, rows.modulus
    papply, pmul, prem = kernel.papply, kernel.pmul, kernel.prem
    acc = base = h.coeffs
    k = 1
    for bit in bin(d)[3:]:
        shifted = acc
        for _ in range(k):
            shifted = papply(rows, shifted)
        acc, k = prem(pmul(shifted, acc), m), 2 * k
        if bit == "1":
            acc, k = prem(pmul(papply(rows, acc), base), m), k + 1
    return _wrap(h.ctx, acc)


def distinct_degree_split(f: Poly) -> Iterator[tuple[Poly, int]]:
    """Yield (g, d), g the product of the monic f's primes of degree d, as found.
    The parts multiply to f when f is squarefree, as factoring needs. For any
    f the first part is (f, deg f) exactly when f is irreducible (Ben-Or): a
    reducible f, squares included, has a prime of degree <= deg(f)/2.

    Step d holds h = T**(q**d) mod the f left after the parts found so far.
    Every step applies the first f's table, F's: h**q mod F is h**q plus a
    multiple of F, hence of the current f, so once f has shrunk below F the
    result is reduced mod f. That costs about 2*deg f*(deg F - deg f) field
    operations in each of the at most deg(f)/2 steps left, where reducing
    the table's rows mod f cost about deg f**2 * (deg F - deg f) at once."""
    return _distinct_degree_split(f, frobenius_table(f))


def _distinct_degree_split(f: Poly, rows: Sequence[list[int]]) -> Iterator[tuple[Poly, int]]:
    # distinct_degree_split on the caller's rows = frobenius_table(f)
    T = var_T(f.ctx)
    h = T % f
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        h = frobenius_apply(rows, h)
        if f.degree < len(rows):
            h = h % f
        g = poly_gcd(f, h - T)
        if g.degree >= 1:
            yield g, d
            f = f // g
    if f.degree >= 1:
        yield f, f.degree


def _is_irreducible(f: Poly, rows: Sequence[list[int]]) -> bool:
    """Ben-Or's test of a monic nonconstant f on rows = frobenius_table(f):
    the first distinct-degree part is f itself, found at degree deg f."""
    return f.degree == 1 or next(_distinct_degree_split(f, rows))[1] == f.degree


def equal_degree_split(f: Poly, d: int) -> list[Poly]:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d primes.

    Each try draws a reduced mod the part g being split and takes
    b = a**((q**d - 1)/2) - 1. Since (q**d - 1)/2 = (1 + q + ... + q**(d-1))
    * (q - 1)/2 for odd q, b is N_d(a)**((q-1)/2) - 1 exactly, N_d(a) =
    frobenius_norm(rows, a, d) on g's table: d - 1 table applications and
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
        rows = frobenius_table(g)
        while True:
            a = Poly(ctx, [rng.randrange(ctx.q) for _ in range(g.degree)])
            if a.degree < 1:
                continue
            b = poly_powmod(frobenius_norm(rows, a, d), half, g) - one(ctx)
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
