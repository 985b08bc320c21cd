"""Irreducibility testing and factorization in F_q[T].

Factorization runs squarefree decomposition, then distinct-degree splitting,
then randomized equal-degree (Cantor-Zassenhaus) splitting. The split draws
from its own generator with a fixed seed, and the primes come out sorted, so
a factorization is a function of its input alone. The irreducibility test is
the distinct-degree split stopped at its first part (Ben-Or, FOCS 1981).

Each stage is one helper on coefficient lists that calls the kernel
directly; Poly appears only at the boundary. poly_factor runs the helpers
from start to finish and wraps each prime once, and poly_is_irreducible
reads the first distinct-degree part. A squarefree input, most inputs,
costs the squarefree decomposition at most one gcd.

The split raises h to the q-th power mod f again and again. That map fixes
F_q, so it is F_q-linear: h**q = sum h_i * T**(q*i) mod f. The field keeps
f's table (frobenius_table), the rows T**(q*i) mod f with f's divisor, built
once (von zur Gathen and Shoup, Comput. Complexity 2, 1992); the kernel
applies it in deg(f)**2 steps (papply) and walks the distinct-degree split
on it (pwalk), keeping h in its own form from step to step.
On the same table the kernel's pnorm raises h to 1 + q + ... + q**(d-1)
by an Itoh-Tsujii addition chain (Inform. Comput. 78, 1988), one kernel
call: d - 1 table applications and about 2*log2(d) products mod f. Its
steps are identities of the ring F_q[T]/(f), so it equals the powmod for
every f and d >= 1; with d = deg f it is the norm of the residue symbol.
The equal-degree split takes its power on the same chain.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from ..errors import ConstantInput, ValidationError
from ..record import Record
from .field import FieldCtx
from .poly import Poly, _wrap, coeffs_derivative, coeffs_sort_key, monic_of_degree


class PrimePower(Record):
    """A monic irreducible together with its exponent in some factorization."""

    prime: Poly
    exp: int
    degree: int
    norm: int

    @classmethod
    def make(cls, prime: Poly, exp: int) -> "PrimePower":
        d = prime.degree
        return cls(prime=prime, exp=exp, degree=d, norm=prime.ctx.q ** d)


class Factorization(Record):
    lead: int
    factors: tuple[PrimePower, ...]

    def product(self, ctx: FieldCtx) -> Poly:
        """lead times the prime powers on coefficient lists: exp kernel
        products per prime, one Poly for the result."""
        ctx._check_elem(self.lead)
        kernel = ctx.kernel
        out = kernel.pscale([1], self.lead)
        for pp in self.factors:
            for _ in range(pp.exp):
                out = kernel.pmul(out, pp.prime.coeffs)
        return _wrap(ctx, out)


def _felem_pow(ctx: FieldCtx, c: int, n: int) -> int:
    if c == 0:
        return 0
    return ctx.exp[(ctx.log[c] * n) % ctx.w]


def _pth_root(ctx: FieldCtx, f) -> list[int]:
    # f has zero derivative, i.e. f = g(T^p); invert Frobenius on coefficients.
    root_exp = ctx.p ** (ctx.e - 1)
    return [_felem_pow(ctx, c, root_exp) for c in f[::ctx.p]]


def _squarefree_parts(ctx: FieldCtx, f) -> list[tuple[list[int], int]]:
    """The squarefree parts of the monic nonconstant coefficient list f with
    their multiplicities, by gcds and divisions of nonconstant operands only.
    A squarefree f costs at most one gcd: gcd(f, f') = 1 makes f the last part."""
    kernel = ctx.kernel
    parts: list[tuple[list[int], int]] = []
    n = 1
    while len(f) > 1:
        df = coeffs_derivative(ctx, f)
        if not df:
            f = _pth_root(ctx, f)
            n *= ctx.p
            continue
        g = kernel.pgcd(f, df) if len(df) > 1 else df
        if len(g) == 1:
            parts.append((f, n))
            break
        h = kernel.pdivrem(f, g)[0]
        i = 1
        while len(h) > 1:
            g2 = kernel.pgcd(g, h) if len(g) > 1 else g
            if len(g2) == 1:  # h is the part of multiplicity i, g has none of it
                parts.append((h, i * n))
                break
            z = kernel.pdivrem(h, g2)[0]
            if len(z) > 1:
                parts.append((z, i * n))
            g = kernel.pdivrem(g, g2)[0]
            h = g2
            i += 1
        f = g
    return parts


TABLE_COEFFS = 4096  # bound on the sum of deg**2 over one field's kept tables


def frobenius_table(ctx: FieldCtx, m):
    """The kernel's ptable(m) of the nonconstant stripped coefficient list m:
    the rows T**(q*i) mod m for i < deg m, len() of them, and m's divisor.
    ctx keeps it by m's tuple and the kernels only read a built table, so
    later calls on m share it. ctx keeps its tables in the order of their
    last use and drops the least recently used ones while their total
    deg**2 would pass TABLE_COEFFS; a table past it alone is not kept."""
    key = tuple(m)
    tables = ctx.tables
    table = tables.get(key)
    if table is not None:
        tables.move_to_end(key)
        return table
    table, size = ctx.kernel.ptable(key), (len(key) - 1) ** 2
    if size <= TABLE_COEFFS:
        while ctx.table_coeffs + size > TABLE_COEFFS:
            ctx.table_coeffs -= (len(tables.popitem(last=False)[0]) - 1) ** 2
        tables[key] = table
        ctx.table_coeffs += size
    return table


def _distinct_degree_parts(ctx: FieldCtx, f,
                           first: bool = False) -> list[tuple[list[int], int]]:
    """The distinct-degree parts (g, d) of the monic nonconstant coefficient
    list f, g the product of f's primes of degree d, in the order found;
    with first, only the first part. A line is its only part, with no
    table and no walk; otherwise the kernel's pwalk on f's table. The parts
    multiply to f when f is squarefree, as factoring needs. For any f the
    first part is (f, deg f) exactly when f is irreducible (Ben-Or): a
    reducible f, squares included, has a prime of degree <= deg(f)/2.

    Step d holds h = T**(q**d) mod the f left after the parts found so far,
    and takes gcd(f, h - T). Every step applies the first f's table, F's:
    h**q mod F is h**q plus a multiple of F, hence of the current f, so once
    f has shrunk below F the result is reduced mod f. That costs about
    2*deg f*(deg F - deg f) field operations in each of the at most
    deg(f)/2 steps left, where reducing the table's rows mod f cost about
    deg f**2 * (deg F - deg f) at once."""
    if len(f) == 2:
        return [(f, 1)]
    return ctx.kernel.pwalk(frobenius_table(ctx, f), first)


# failed draws on one part before the split checks that the part can split
CHECK_AFTER_DRAWS = 20


def _fixes_t(kernel, table, n: int, d: int) -> bool:
    """Whether d divides n, the degree of table's modulus g, and
    T**(q**d) = T mod g, by d table applications."""
    if n % d:
        return False
    h = [0, 1]
    for _ in range(d):
        h = kernel.papply(table, h)
    return h == [0, 1]


def _equal_degree_parts(ctx: FieldCtx, f, d: int) -> list[list[int]]:
    """The degree-d primes of the monic squarefree coefficient list f, a
    product of such primes, by Cantor-Zassenhaus.

    Each try draws a reduced mod the part g being split and takes
    b = a**((q**d - 1)/2) - 1. Since (q**d - 1)/2 = (1 + q + ... + q**(d-1))
    * (q - 1)/2 for odd q, b is N_d(a)**((q-1)/2) - 1 exactly, N_d(a) the
    kernel's pnorm on g's table: d - 1 table applications and about
    2*log2(d) products mod g, then a powmod to (q-1)/2, where the direct
    power took about d*log2(q) squarings. b, every draw and every split are
    those of the direct power. The draws come from random.Random(0), made
    only once some part has to be split.

    A part that no draw can split, such as a prime of another degree, would
    be drawn on forever. So after CHECK_AFTER_DRAWS draws on one part, d
    table applications test that d divides deg g and T**(q**d) = T mod g,
    that is, that g is squarefree with primes of degrees dividing d, and
    ValueError is raised if not. A part that passes has two primes or more
    and splits with probability 1, and each of its parts is tested the same
    way. Valid input rarely gets that far, and the test draws nothing, so
    its draws do not change. A part of degree d is not tested: it is taken
    for a prime."""
    kernel, q = ctx.kernel, ctx.q
    out = []
    stack = [f]
    half = (q - 1) // 2
    rng = None
    while stack:
        g = stack.pop()
        n = len(g) - 1
        if n == d:
            out.append(g)
            continue
        if rng is None:
            rng = random.Random(0)
        table = frobenius_table(ctx, g)
        draws = 0
        while True:
            draws += 1
            if draws == CHECK_AFTER_DRAWS and not _fixes_t(kernel, table, n, d):
                raise ValueError(f"{g} is not a product of primes of degree {d}")
            a = [rng.randrange(q) for _ in range(n)]
            while a and a[-1] == 0:
                a.pop()
            if len(a) < 2:
                continue
            b = kernel.psub(kernel.ppowmod(kernel.pnorm(table, a, d), half, g), [1])
            h = kernel.pgcd(b, g) if b else g
            if 1 < len(h) < len(g):
                stack.append(h)
                stack.append(kernel.pdivrem(g, h)[0])
                break
    return out


def poly_is_irreducible(f: Poly) -> bool:
    """Ben-Or's irreducibility test over F_q: the first distinct-degree part
    of f is f itself, found at degree deg f."""
    if not isinstance(f, Poly):
        raise ValidationError(f"irreducibility is tested for a Poly, not {f!r}")
    if f.is_zero or f.degree < 1:
        raise ConstantInput("irreducibility is tested for nonconstant polynomials only")
    ctx = f.ctx
    return _distinct_degree_parts(ctx, ctx.kernel.pmonic(f.coeffs), True)[0][1] == f.degree


def poly_factor(f: Poly) -> Factorization:
    """Full factorization into monic primes, sorted canonically.

    The leading coefficient is returned separately; the product of the prime
    powers times it reproduces the input exactly. The stages run on
    coefficient lists; each prime is wrapped once.
    """
    if not isinstance(f, Poly):
        raise ValidationError(f"factorization needs a Poly, not {f!r}")
    if f.is_zero or f.degree < 1:
        raise ConstantInput("factorization needs a nonconstant polynomial")
    ctx = f.ctx
    kernel = ctx.kernel
    found: list[tuple[tuple, int]] = []
    for part, mult in _squarefree_parts(ctx, kernel.pmonic(f.coeffs)):
        for prod, d in _distinct_degree_parts(ctx, part):
            found += [(tuple(prime), mult) for prime in _equal_degree_parts(ctx, prod, d)]
    found.sort(key=lambda item: coeffs_sort_key(item[0]))
    pps = tuple(PrimePower.make(_wrap(ctx, prime), mult) for prime, mult in found)
    return Factorization(lead=f.lc, factors=pps)


def poly_phi(ctx: FieldCtx, factors: Sequence[PrimePower]) -> int:
    """Order of the unit group modulo the product of the given prime powers:
    prod q**(d_i * (r_i - 1)) * (q**d_i - 1). Empty input gives 1."""
    if not all(isinstance(pp, PrimePower) for pp in factors):
        raise ValidationError(f"poly_phi takes PrimePowers, not {factors!r}")
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
