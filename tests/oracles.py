"""Table-free field oracles, deliberately independent of the library's hot paths.

Field addition and multiplication here work on digit vectors directly (no
exp/log or addition tables), and polynomial sums and products are plain
coefficient-wise sums and convolutions over them. The brute-force oracles
of the law checks (unit counts, power-residue sets) live with the suites
that use them, in ``qcff.selfcheck``. ``powmod_residue_symbol`` keeps the
residue symbol's definition as one modular power, its dlog found by
``naive_dlog``, the reference of the library's norm form;
``frobenius_fold`` keeps the Frobenius application as the fold of kernel
sums and scalings it was before the kernel had ``papply``.
``list_frobenius_rows``, ``itoh_tsujii_norm`` and
``list_distinct_degree_split`` keep the row build, the norm chain and
the walk as Python loops over kernel calls on coefficient lists, as they
were before the kernel had ``ptable``, ``pnorm`` and ``pwalk``: the
references of those ops. ``powmod_equal_degree_split`` keeps the
Cantor-Zassenhaus split with its direct power a**((q**d - 1)/2), the
reference of the library's split on the Frobenius table, and
``rereducing_distinct_degree_split`` keeps the distinct-degree walk that
reduced its table's rows each time f shrank, the reference of the
library's walk on the first table. ``poly_squarefree_decomposition``
keeps the squarefree loop on ``Poly`` operations, with the p-th root
taken by naive field products, the reference of the library's loop on
coefficient lists; ``reference_factorization`` assembles a factorization
from the three ``Poly``-level stages and ``poly_power_product`` multiplies
one out by ``Poly`` powers, the references of ``poly_factor`` and
``Factorization.product``. ``naive_divrem``,
``naive_gcd`` and ``naive_powmod`` are schoolbook division, Euclid and
square-and-multiply on coefficient lists, on the naive field operations
alone: the references of the kernels' shared remainder loop.
``divisor_per_step_pgcd`` keeps the pure kernel's Euclid with a divisor
prepared and one remainder loop per step, the reference of its ``pgcd``,
which fuses each step that drops the degree by one into one pass.
``per_term_formal_sum`` keeps the formal sum's loop over every
(A, s, B) with one kernel ``padd`` per raw term and a hit looked up per
(A, s), the reference of the library's sweep over numerator indices;
``index_groups`` and ``flat_terms`` put a reference's groups, kept by
numerator coefficients, beside ``FormalSum.groups`` and, through
``decoded_terms``, ``FormalSum.terms``.
``dict_per_term_formal_sums`` keeps the report's formal-sums block as
one plain dict per term, the reference of the terms the report writes
straight as JSON text. ``fraction_genus_closed_form``,
``fraction_genus_riemann_hurwitz``, ``fraction_genus_hasse_formula`` and
``fraction_kummer_genus_riemann_hurwitz`` keep the four genus formulas in
``Fraction`` arithmetic, unchecked: the references of the genus paths,
which clear the formulas' denominators and compute in ints.

The test doubles live here too: ``CountingKernel``, a kernel proxy that
counts and keeps each op's calls, and ``doctored``, a record no pipeline makes.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import zip_longest

from qcff.algebra import (
    Factorization,
    FieldCtx,
    Poly,
    PrimePower,
    enumerate_monic_below,
    one,
    poly_gcd,
    poly_powmod,
    var_T,
)
from qcff.algebra.poly import coeffs_sort_key
from qcff.errors import NotCoprime, NotPrimeModulus
from qcff.kummer import FormalSum, pair_formal_sum
from qcff.report import _poly_json


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


def naive_fq_inv(ctx: FieldCtx, x: int) -> int:
    """x**(q - 2) by square and multiply on naive products."""
    assert x != 0
    acc, n = 1, ctx.q - 2
    while n:
        if n & 1:
            acc = naive_fq_mul(ctx, acc, x)
        x = naive_fq_mul(ctx, x, x)
        n >>= 1
    return acc


def naive_fq_pow(ctx: FieldCtx, x: int, n: int) -> int:
    """x**n by n naive products (x**0 = 1)."""
    acc = 1
    for _ in range(n):
        acc = naive_fq_mul(ctx, acc, x)
    return acc


def _strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def naive_divrem(ctx: FieldCtx, f, g) -> tuple[list[int], list[int]]:
    """Schoolbook long division of coefficient lists, g nonzero: each step
    subtracts (top / lc g) * T**i * g, with -1 encoded as p - 1."""
    rem, n = list(f), len(g) - 1
    quot = [0] * max(len(rem) - n, 0)
    inv = naive_fq_inv(ctx, g[-1])
    for i in range(len(quot) - 1, -1, -1):
        t = naive_fq_mul(ctx, naive_fq_mul(ctx, rem[i + n], inv), ctx.p - 1)
        quot[i] = naive_fq_mul(ctx, t, ctx.p - 1)
        for j, b in enumerate(g):
            rem[i + j] = naive_fq_add(ctx, rem[i + j], naive_fq_mul(ctx, t, b))
    return _strip(quot), _strip(rem[:n])


def naive_gcd(ctx: FieldCtx, f, g) -> list[int]:
    """Monic gcd by Euclid on naive_divrem; gcd(0, 0) = []."""
    f, g = list(f), list(g)
    while g:
        f, g = g, naive_divrem(ctx, f, g)[1]
    if not f:
        return f
    inv = naive_fq_inv(ctx, f[-1])
    return [naive_fq_mul(ctx, c, inv) for c in f]


def divisor_per_step_pgcd(kernel, f, g) -> list[int]:
    """Monic gcd by the pure kernel's Euclid with one ``_divisor`` and one
    ``_reduce`` per step: its ``pgcd`` before the fused degree-one step."""
    f, g = list(f), list(g)
    while g:
        kernel._reduce(f, g)
        f, g = g, f
    return kernel.pmonic(f)


def naive_powmod(ctx: FieldCtx, f, n: int, m) -> list[int]:
    """f**n mod m by square and multiply on naive products and naive_divrem."""
    def mulmod(a, b):
        return naive_divrem(ctx, naive_poly_mul(ctx, Poly(ctx, a), Poly(ctx, b)).coeffs, m)[1]

    acc, base = [1], naive_divrem(ctx, f, m)[1]
    while n > 0:
        if n & 1:
            acc = mulmod(acc, base)
        base = mulmod(base, base)
        n >>= 1
    return acc


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


def frobenius_fold(kernel, rows, h) -> list[int]:
    """The sum of h_i * rows[i] by one kernel ``pscale`` and ``padd`` per
    nonzero h_i: the reference of the kernels' ``papply``."""
    acc: list[int] = []
    for c, row in zip(h, rows):
        if c:
            acc = kernel.padd(acc, row if c == 1 else kernel.pscale(row, c))
    return acc


def table_rows(kernel, table) -> list[list[int]]:
    """The rows of a kernel's Frobenius table as coefficient lists: row i is
    papply of T**i, read through the op itself."""
    return [kernel.papply(table, [0] * i + [1]) for i in range(len(table))]


def list_frobenius_rows(kernel, m) -> list[list[int]]:
    """The rows T**(q*i) mod m, i < deg m, of a nonconstant m as coefficient
    lists, built by kernel ``prem``, ``pmul`` and ``ppowmod`` calls as
    ``frobenius_table`` built them before the kernel had ``ptable``: while
    q < deg m each row is the one before shifted up q places mod m,
    otherwise row 1 is one powmod and each later row a product mod m."""
    q, n = kernel.q, len(m) - 1
    rows = [[1]]
    if q < n:
        for _ in range(1, n):
            row = rows[-1]
            rows.append(kernel.prem([0] * q + row if row else row, m))
    elif n > 1:
        x = kernel.ppowmod([0, 1], q, m)
        rows.append(x)
        for _ in range(2, n):
            rows.append(kernel.prem(kernel.pmul(rows[-1], x), m))
    return rows


def itoh_tsujii_norm(kernel, rows, m, h, d: int) -> list[int]:
    """h**(1 + q + ... + q**(d-1)) mod m for d >= 1 on the list rows of m
    (``list_frobenius_rows``), by the Itoh-Tsujii chain that the library
    ran before the kernel had ``pnorm``: one
    ``frobenius_fold`` per application, kernel ``pmul`` and ``prem`` for
    each product mod m."""
    acc = base = list(h)
    k = 1
    for bit in bin(d)[3:]:
        shifted = acc
        for _ in range(k):
            shifted = frobenius_fold(kernel, rows, shifted)
        acc, k = kernel.prem(kernel.pmul(shifted, acc), m), 2 * k
        if bit == "1":
            acc, k = kernel.prem(kernel.pmul(frobenius_fold(kernel, rows, acc), base), m), k + 1
    return acc


def list_distinct_degree_split(f: Poly) -> list[tuple[Poly, int]]:
    """The distinct-degree parts (g, d) of a monic nonconstant f in the order
    found, by the walk that ran on ``Poly`` operations before the kernel had
    ``pwalk``: the first f's list rows, one ``frobenius_fold`` per step,
    then h % f once f has shrunk, h - T and ``poly_gcd``."""
    T = var_T(f.ctx)
    kernel = f.ctx.kernel
    rows = list_frobenius_rows(kernel, f.coeffs)
    h = T % f
    d = 0
    out = []
    while f.degree >= 2 * (d + 1):
        d += 1
        h = Poly(f.ctx, frobenius_fold(kernel, rows, h.coeffs))
        if f.degree < len(rows):
            h = h % f
        g = poly_gcd(f, h - T)
        if g.degree >= 1:
            out.append((g, d))
            f = f // g
    if f.degree >= 1:
        out.append((f, f.degree))
    return out


def powmod_equal_degree_split(f: Poly, d: int) -> list[Poly]:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d
    primes, with b = a**((q**d - 1)/2) - 1 by one powmod per try, drawing
    from random.Random(0) as the library's split does."""
    ctx = f.ctx
    rng = random.Random(0)
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


def rereducing_distinct_degree_split(f: Poly) -> list[tuple[Poly, int]]:
    """The distinct-degree parts (g, d) of a monic nonconstant f, in the
    order found, by the walk that replaces its table each time f shrinks:
    T**(q*i) mod the old f reduces to T**(q*i) mod its factor f."""
    T = var_T(f.ctx)
    kernel = f.ctx.kernel
    rows = list_frobenius_rows(kernel, f.coeffs)
    h = T % f
    d = 0
    out = []
    while f.degree >= 2 * (d + 1):
        d += 1
        if len(rows) > f.degree:
            rows = [kernel.prem(row, f.coeffs) for row in rows[:f.degree]]
        h = Poly(f.ctx, frobenius_fold(kernel, rows, h.coeffs))
        g = poly_gcd(f, h - T)
        if g.degree >= 1:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree >= 1:
        out.append((f, f.degree))
    return out


def poly_squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree parts of a monic nonconstant f with multiplicities,
    by the loop on ``Poly`` operations: gcd(f, f'), then the parts of each
    multiplicity by gcds and divisions, and a p-th root of f when f' = 0."""
    ctx = f.ctx
    parts: list[tuple[Poly, int]] = []
    n = 1
    while f.degree >= 1:
        df = f.derivative()
        if df.is_zero:
            # f = g(T^p): the root of each coefficient is its p**(e-1)-th power
            root = []
            for c in f.coeffs[::ctx.p]:
                for _ in range(ctx.e - 1):
                    c = naive_fq_pow(ctx, c, ctx.p)
                root.append(c)
            f = Poly(ctx, root)
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


def reference_factorization(f: Poly) -> Factorization:
    """poly_factor(f) from the Poly-level references of its stages:
    poly_squarefree_decomposition, rereducing_distinct_degree_split and
    powmod_equal_degree_split, the primes in canonical order."""
    found = []
    for part, mult in poly_squarefree_decomposition(f.to_monic()):
        for prod, d in rereducing_distinct_degree_split(part):
            found += [(prime, mult) for prime in powmod_equal_degree_split(prod, d)]
    found.sort(key=lambda item: item[0].sort_key)
    return Factorization(lead=f.lc, factors=tuple(PrimePower.make(p, m) for p, m in found))


def poly_power_product(ctx: FieldCtx, fz: Factorization) -> Poly:
    """The lead times each prime to its exponent, by Poly products and powers."""
    out = one(ctx).scale(fz.lead)
    for pp in fz.factors:
        out = out * pp.prime ** pp.exp
    return out


def powmod_residue_symbol(a: Poly, r: Poly) -> int:
    """The dlog of the residue symbol a**((|r|-1)/(q-1)) mod r, by one
    powmod and a power walk from gamma, with residue_symbol's checks in
    residue_symbol's order."""
    ctx = a.ctx
    if r.is_zero or r.is_constant or not r.monic:
        raise NotPrimeModulus(f"lower entry {r} must be a monic prime")
    if poly_gcd(a, r).degree != 0:
        raise NotCoprime(f"{a} and {r} share a factor")
    reduced = poly_powmod(a, (ctx.q ** r.degree - 1) // ctx.w, r)
    if reduced.degree != 0:
        raise NotPrimeModulus(f"{r} is not prime (symbol power was not constant)")
    return naive_dlog(ctx, reduced.coeffs[0])


def per_term_formal_sum(p_first: Poly, p_second: Poly) -> tuple:
    """pair_formal_sum's groups by one kernel sum per raw term, each
    numerator kept as its coefficient tuple: the half sums of (P, Q) and
    (Q, P) loop over every monic A, s = 1..q-2 and monic B, and the one B
    per (A, s) with P | B*Q + c*A is found by looking up -c * A * Q^{-1}
    mod P among the B*Q."""
    ctx = p_first.ctx
    P, Q = p_first.coeffs, p_second.coeffs
    over_p: dict[tuple, int] = {}
    over_q: dict[tuple, int] = {}
    over_pq: dict[tuple, int] = {}
    _per_term_half_sum(ctx, P, Q, 1, over_q, over_pq)
    _per_term_half_sum(ctx, Q, P, -1, over_p, over_pq)
    groups = []
    for den, acc in ((p_first, over_p), (p_second, over_q), (p_first * p_second, over_pq)):
        nums = sorted((num for num in acc if acc[num]), key=coeffs_sort_key)
        groups.append((den, tuple((num, acc[num]) for num in nums)))
    return tuple(groups)


def index_groups(groups: tuple) -> tuple:
    """A reference's groups of (den, ((numerator coefficients, coefficient),
    ...)) in the form of FormalSum.groups: each numerator as its index,
    the base-q integer sum c_k * q^k of its coefficients c_k."""
    return tuple((den, tuple((sum(c * den.ctx.q ** k for k, c in enumerate(num)), n)
                             for num, n in nums))
                 for den, nums in groups)


def decoded_terms(fs: FormalSum) -> list[tuple]:
    """The (den, numerator coefficients, coefficient) of each of fs.terms,
    to set beside the flat terms of a reference's groups."""
    return [(cls.den, cls.num.coeffs, n) for cls, n in fs.terms]


def flat_terms(groups: tuple) -> list[tuple]:
    """The (den, numerator coefficients, coefficient) of each term of a
    reference's groups, in order."""
    return [(den, num, n) for den, nums in groups for num, n in nums]


def _per_term_half_sum(ctx, P, Q, sign, over_q, over_pq) -> None:
    kernel = ctx.kernel
    padd, pscale = kernel.padd, kernel.pscale
    q_inv = kernel.ppowmod(Q, ctx.q ** (len(P) - 1) - 2, P)
    b_times_q = {b.coeffs: tuple(kernel.pmul(b.coeffs, Q))
                 for b in enumerate_monic_below(ctx, len(P) - 1)}
    for a in (f.coeffs for f in enumerate_monic_below(ctx, len(Q) - 1)):
        a_over_q = kernel.prem(kernel.pmul(a, q_inv), P)
        for s in range(1, ctx.q - 1):
            c = ctx.exp[-s % ctx.w]
            ca = pscale(a, c)
            # -c*A/Q mod P is the only B with P | B*Q + c*A, if it is monic
            hit = b_times_q.get(tuple(pscale(a_over_q, ctx.kernel.fneg(c))))
            n = sign * s
            for bq in b_times_q.values():
                num = tuple(padd(bq, ca))
                if bq is hit:
                    num = tuple(kernel.pdivrem(num, P)[0])
                    over_q[num] = over_q.get(num, 0) + n
                else:
                    over_pq[num] = over_pq.get(num, 0) + n


def dict_per_term_formal_sums(pairs) -> list[dict]:
    """The report's formal-sums block for the (P, Q) pairs with one
    {"coeff", "den", "num"} dict per term of pair_formal_sum(P, Q).terms,
    the three denominators' fragments shared."""
    out = []
    for a, b in pairs:
        fs = pair_formal_sum(a, b)
        pair = [_poly_json(a), _poly_json(b)]
        dens = {a.coeffs: pair[0], b.coeffs: pair[1]}
        terms = []
        for c, n in fs.terms:
            den = dens.get(c.den.coeffs)
            if den is None:
                den = dens[c.den.coeffs] = _poly_json(c.den)
            terms.append({"num": _poly_json(c.num), "den": den, "coeff": n})
        out.append({"pair": pair, "raw_terms": fs.raw_terms, "terms": terms})
    return out


def fraction_genus_closed_form(cond) -> Fraction:
    """[(q-2)/(2(q-1)) - 1] * Phi(M) + (1/2) sum s_i d_i Phi(M/P_i^{r_i}) + 1."""
    ctx = cond.ctx
    g = (Fraction(ctx.q - 2, 2 * ctx.w) - 1) * cond.phi
    g += Fraction(1, 2) * sum(row.s * row.degree * row.phi_cofactor
                              for row in cond.different.per_prime)
    return g + 1


def fraction_genus_riemann_hurwitz(cond) -> Fraction:
    """(2g - 2 + 2) / 2 with 2g - 2 = -2*Phi(M) + deg D, D the different."""
    dd = cond.different
    deg_different = sum(row.s * row.degree * row.phi_cofactor for row in dd.per_prime)
    deg_different += dd.infinite_coefficient * dd.infinite_count
    return Fraction(-2 * cond.phi + deg_different + 2, 2)


def fraction_genus_hasse_formula(cond, base_genus: int, ram) -> Fraction:
    """1 + w * [g_base - 1 + sum (1 - 1/e(L)) * d_L * Phi(M/L^{r_L}) / 2]."""
    total = Fraction(base_genus - 1)
    for pd, row in zip(cond.different.per_prime, ram.per_prime):
        total += Fraction(1, 2) * (1 - Fraction(1, row.e)) * pd.degree * pd.phi_cofactor
    return 1 + cond.ctx.w * total


def fraction_kummer_genus_riemann_hurwitz(cond, base_genus: int, ram) -> Fraction:
    """(2g - 2 + 2) / 2 with 2g - 2 = w(2g_base - 2)
    + sum (e(L)-1) * (w/e(L)) * d_L * Phi(M/L^{r_L})."""
    w = cond.ctx.w
    two_g_minus_2 = Fraction(w * (2 * base_genus - 2))
    for pd, row in zip(cond.different.per_prime, ram.per_prime):
        two_g_minus_2 += (row.e - 1) * Fraction(w, row.e) * pd.degree * pd.phi_cofactor
    return (two_g_minus_2 + 2) / 2


class CountingKernel:
    """A field kernel proxy that counts the calls of each method and keeps
    their arguments."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls: Counter = Counter()
        self.args: defaultdict = defaultdict(list)

    def __getattr__(self, name):
        attr = getattr(self.kernel, name)
        if not callable(attr):
            return attr

        def counted(*args):
            self.calls[name] += 1
            self.args[name].append(args)
            return attr(*args)
        return counted


def doctored(record, **changes):
    """record rebuilt by keyword with changes: a record no pipeline makes."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)
