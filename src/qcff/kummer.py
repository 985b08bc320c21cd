"""The (q-1)-th Kummer layer over the cyclotomic base.

Given a conductor and an ordered set of prime pairs, this module computes
everything attached to the degree-(q-1) Kummer extension the pairs define:
the formal sum attached to each pair, the ramification indices of the
finite conductor primes, the Galois group of the whole tower over F_q(T)
by generators and relations, and the genus (again via two independent
paths: Hasse's closed Kummer formula and Riemann-Hurwitz on the Kummer
step).
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, islice, product, repeat
from operator import mul
from typing import Sequence

from .algebra import Poly, poly_cmp, poly_gcd
from .algebra.poly import _wrap
from .cyclotomic import Conductor, _as_genus
from .errors import (
    BadPair,
    DuplicatePair,
    NonIntegerGenus,
    OnlySinglePairSupported,
    PairMembersEqual,
    PrimeNotInConductor,
    ValidationError,
    WrongOrientation,
)
from .record import Record
from .symbols import symbol_dlog


# -- pair sets ----------------------------------------------------------------

class PairSet(Record):
    """Ordered, validated prime pairs (first < second) over one conductor."""

    pairs: tuple[tuple[Poly, Poly], ...]

    def is_paired(self, prime: Poly) -> bool:
        return any(prime in pair for pair in self.pairs)


def pairset_create(cond: Conductor, raw: Sequence[tuple[Poly, Poly]]) -> PairSet:
    """Validate raw (first, second) pairs against the conductor.

    Orientation first < second is required, never auto-corrected: the formal
    sum and the commutator relation both change under a flip.
    """
    if not raw:
        raise ValidationError("pair set must be nonempty")
    conductor_primes = {pp.prime.coeffs for pp in cond.factors}
    seen = set()
    pairs = []
    for entry in raw:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
            raise ValidationError(f"pair must be a (Poly, Poly) pair, got {entry!r}")
        p_first, p_second = entry
        for member in (p_first, p_second):
            if not isinstance(member, Poly) or member.ctx != cond.ctx:
                raise ValidationError(f"{member!r} is not a Poly over the conductor's field")
            if member.coeffs not in conductor_primes:
                raise PrimeNotInConductor(f"{member} is not a prime of the conductor")
        if p_first == p_second:
            raise PairMembersEqual(f"pair members must differ, got {p_first} twice")
        if poly_cmp(p_first, p_second) > 0:
            raise WrongOrientation(
                f"pair ({p_first}, {p_second}) must be listed as ({p_second}, {p_first})")
        key = (p_first.coeffs, p_second.coeffs)
        if key in seen:
            raise DuplicatePair(f"pair ({p_first}, {p_second}) listed twice")
        seen.add(key)
        pairs.append((p_first, p_second))
    return PairSet(pairs=tuple(pairs))


# -- formal sums ----------------------------------------------------------------

class FracClass(Record):
    """Canonical nonzero class in k/A: a reduced proper fraction num/den with
    den monic nonconstant, gcd(num, den) = 1 and deg num < deg den."""

    num: Poly
    den: Poly


def reduce_fraction(num: Poly, den: Poly) -> FracClass | None:
    """Reduce num/den to its canonical class; None when the class lies in A."""
    g = poly_gcd(num, den)
    if g.degree > 0:
        num = num // g
        den = den // g
    if den.is_constant:
        return None
    if not den.monic:
        inv = den.ctx.kernel.finv(den.lc)
        num = num.scale(inv)
        den = den.scale(inv)
    return FracClass(num=num % den, den=den)


class FormalSum(Record):
    """Integer combination of k/A classes, with the raw (pre-reduction) term
    count preserved for diagnostics.

    groups holds the classes by denominator: one (den, nums) entry each for
    P, Q and PQ in that order, nums the (index, coefficient) pairs over den
    by increasing index, maybe none. A numerator's index is the base-q
    integer sum c_k * q^k of its coefficients c_k. Its top coefficient is
    not 0, so the index order is the canonical order of numerators."""

    groups: tuple[tuple[Poly, tuple[tuple[int, int], ...]], ...]
    raw_terms: int

    @property
    def terms(self) -> tuple[tuple[FracClass, int], ...]:
        """The (class, coefficient) pairs in the canonical order of (den, num),
        decoded from groups at each read, unvalidated: kernel results."""
        return tuple((FracClass(num=_wrap(den.ctx, _num_coeffs(v, den.ctx.q)), den=den), n)
                     for den, nums in self.groups for v, n in nums)


def _num_coeffs(v: int, q: int, length: int = 0) -> tuple[int, ...]:
    """The coefficients of the numerator of index v, zero-padded to length."""
    out = []
    while v or len(out) < length:
        v, c = divmod(v, q)
        out.append(c)
    return tuple(out)


def raw_term_count(ctx, d_first: int, d_second: int) -> int:
    """Terms generated by the defining triple sum before any reduction:
    (q-2) * #[monic below d_second] * #[monic below d_first] * 2."""
    n_a = (ctx.q ** d_second - 1) // ctx.w
    n_b = (ctx.q ** d_first - 1) // ctx.w
    return (ctx.q - 2) * n_a * n_b * 2


def pair_formal_sum(p_first: Poly, p_second: Poly) -> FormalSum:
    """The formal k/A sum attached to an oriented prime pair.

    The caller proves P and Q prime, as report.compute_tower does through
    the conductor; here BadPair is raised only for a member that is not a
    monic nonconstant Poly, equal members, the wrong orientation or members
    with a common factor, which distinct primes never have.

    Sums s * ([ (B*Q + gamma^{-s} A) / (P*Q) ] - [ (A*P + gamma^{-s} B) / (P*Q) ])
    over monic A with deg A < deg Q, monic B with deg B < deg P, and
    s = 1..q-2, where (P, Q) is the oriented pair. Every fraction is taken
    to its canonical class; equal classes are summed and zero sums dropped.

    No term needs a generic reduction. With c = gamma^{-s} nonzero, the
    numerator N = B*Q + c*A has degree below deg PQ and is not zero, and Q
    does not divide it because Q does not divide c*A. So gcd(N, PQ) is 1
    or P, and P divides N exactly when B = -c * A * Q^{-1} mod P: for each
    (A, s) at most one monic B does, and its class is (N/P) / Q. Every
    other term is already the canonical class N / (PQ). The same holds for
    A*P + c*B with P and Q swapped. Hence every denominator is PQ, Q or P,
    no term lands in A, and raw_terms == raw_term_count(ctx, deg P, deg Q).

    _add_half_sum writes the terms over PQ as runs of consecutive numerator
    indices (see FormalSum) of one weight, as +n at a run's start and -n at
    its end in one endpoint dict. One sweep of the sorted endpoints sums the
    weights and expands each run of nonzero sum by range. The endpoints stay
    sparse: a dense array would take q^(deg PQ) cells, 4.3e9 at q = 65,521.
    """
    _validate_pair(p_first, p_second)
    ctx = p_first.ctx
    P, Q = p_first.coeffs, p_second.coeffs
    ends: dict[int, int] = {}
    over_q = _add_half_sum(ctx, P, Q, 1, ends)
    over_p = _add_half_sum(ctx, Q, P, -1, ends)
    points = sorted(ends)
    over_pq: list[tuple[int, int]] = []
    for start, stop, n in zip(points, islice(points, 1, None),
                              accumulate(map(ends.__getitem__, points))):
        if n and stop - start == 1:  # most runs, so without a range
            over_pq.append((start, n))
        elif n:
            over_pq += zip(range(start, stop), repeat(n))
    pq = _wrap(ctx, ctx.kernel.pmul(P, Q))
    return FormalSum(groups=((p_first, over_p), (p_second, over_q), (pq, tuple(over_pq))),
                     raw_terms=raw_term_count(ctx, p_first.degree, p_second.degree))


def _add_half_sum(ctx, P: tuple, Q: tuple, sign: int,
                  ends: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """Add sign * s * [(B*Q + gamma^{-s} A) / PQ] over monic B with
    deg B < deg P, monic A with deg A < deg Q and s = 1..q-2 (see
    pair_formal_sum): the terms with P | B*Q + c*A are returned, as the
    (index, coefficient) pairs of their classes over Q by increasing index,
    and the others written to ends, the endpoints of the sum over PQ.

    No raw term needs field arithmetic. The products N = c*A, c = gamma^{-s},
    are exactly the nonzero N with deg N < deg Q and lc N = u not 0 or 1,
    each once, with s = w - log u. So with bq = B*Q and h the index of its
    terms above degree i, the degree-i N give the indices h + x*q^i + low,
    low < q^i (adding bq[:i] only permutes F_q^i): one run per top
    x = bq[i] + u. Adjacent runs meet, so one row of steps writes them: at
    each h + x*q^i, x = 0..q, the weight of top x less that of top x - 1,
    if they differ (the tops of u = 0 and 1, and top q, weigh 0).

    Then the hits, the terms with P | B*Q + c*A, move their weight from
    their numerator's index to their class over Q. Each A has at most one:
    with r = A * Q^{-1} mod P it needs B = -c*r monic, so r != 0,
    c = -1/lc(r) and B = monic(r). Its numerator P*M has the degree and
    leading coefficient of B*Q, so M is monic with deg Q - deg P <= deg M
    < deg Q, and B and c*A are P*M's quotient and remainder by Q. So a hit
    is a P*M with c = lc(P*M mod Q) not 1, and its class is M / Q.

    The M are the T^j*H + K with j = max(deg Q - deg P, 0), H monic with
    deg H < min(deg P, deg Q) and K in F_q^j. P*K has degree below deg Q,
    so with X = P*T^j*H and r = X mod Q, one product and one remainder per
    H, P*M mod Q is r + P*K. As P is monic, its lead is lc K if P*K has the
    larger degree, lc r if r has, and else lc r + lc K, or, when that is 0,
    the lead of the sum itself. Only a hit adds X + P*K, for its index.

    pair_formal_sum calls this for (P, Q) and then for (Q, P). Listed as P,
    Q, PQ the groups are in the canonical order of their denominators: the
    pair is oriented, P < Q, and deg PQ exceeds both degrees.
    """
    kernel, q, w, log = ctx.kernel, ctx.q, ctx.w, ctx.log
    d_p, d_q = len(P) - 1, len(Q) - 1
    # weight[u] = sign * s for the leading coefficient u = gamma^{-s} of c*A
    weight = [0, 0] + [sign * (w - log[u]) for u in range(2, q)]
    # lows[i] is F_q^i: with a leading 1 appended, the monic polynomials of degree i
    lows = [list(product(range(q), repeat=i)) for i in range(d_p)]
    powers = [q ** k for k in range(d_p + d_q)]  # an index is sum(map(mul, coeffs, powers))
    rows: dict[tuple[int, int], list] = {}  # (bq[i], i) -> [(x * q^i, step)]
    get = ends.get
    for b_low in chain.from_iterable(lows[:d_p]):
        bq = kernel.pmul(b_low + (1,), Q)
        h = sum(map(mul, bq[d_q:], powers[d_q:]))
        for i in range(d_q - 1, -1, -1):
            t, span = bq[i], powers[i]
            row = rows.get((t, i))
            if row is None:
                by_top = [0] * (q + 1)
                for u in range(2, q):
                    by_top[kernel.fadd(t, u)] = weight[u]
                row = rows[t, i] = [(x * span, n - m) for x, (m, n)
                                    in enumerate(zip([0] + by_top, by_top)) if n != m]
            for at, step in row:
                at += h
                ends[at] = get(at, 0) + step
            h += t * span
    j, fadd, padd = max(d_q - d_p, 0), kernel.fadd, kernel.padd
    # (P*K, deg P*K, lc K, index of K) for each K in F_q^j by degree, K = 0
    # first: those of degree i are the q^i of lower degree plus c*T^i
    by_k = [((), -1, 0, 0)]
    for i in range(j):
        for c in range(1, q):
            top = (0,) * i + tuple(kernel.pscale(P, c))  # c*T^i*P
            by_k += [(padd(pk, top), d_p + i, c, v + c * powers[i])
                     for pk, _, _, v in by_k[:q ** i]]
    hits = []
    for h_low in chain.from_iterable(lows[:min(d_p, d_q)]):
        m = (0,) * j + h_low + (1,)  # T^j * H
        x = kernel.pmul(P, m)
        r = kernel.prem(x, Q)
        d_r, lc_r, v_m = len(r) - 1, r[-1], sum(map(mul, m, powers))
        for pk, d_k, lc_k, v_k in by_k:
            if d_k != d_r:
                u = lc_k if d_k > d_r else lc_r
            else:
                u = fadd(lc_r, lc_k) or padd(r, pk)[-1]
            if u != 1:
                num = padd(x, pk) if pk else x
                v, n = sum(map(mul, num, powers)), weight[u]
                ends[v] = get(v, 0) - n
                ends[v + 1] = get(v + 1, 0) + n
                hits.append((v_m + v_k, n))
    return tuple(sorted(hits))


def _validate_pair(p_first: Poly, p_second: Poly) -> None:
    for member in (p_first, p_second):
        if not (isinstance(member, Poly) and member.monic and not member.is_constant):
            raise BadPair(f"{member!r} is not a monic nonconstant Poly")
    if p_first == p_second:
        raise BadPair("pair members must be distinct")
    if poly_cmp(p_first, p_second) > 0:
        raise BadPair(f"pair ({p_first}, {p_second}) has the wrong orientation")
    if poly_gcd(p_first, p_second).degree != 0:
        raise BadPair(f"pair members {p_first} and {p_second} share a factor")


# -- ramification -----------------------------------------------------------------

class PairParity(Record):
    """Degree parities of one pair, recording which square root multiplies the
    Kummer unit: none, the first prime, the second, or their product."""

    pair: tuple[Poly, Poly]
    d_first_mod2: int
    d_second_mod2: int
    radicand: Poly | None


def _pair_parity(p_first: Poly, p_second: Poly) -> PairParity:
    m1, m2 = p_first.degree % 2, p_second.degree % 2
    if (m1, m2) == (0, 0):
        radicand = None
    elif (m1, m2) == (0, 1):
        radicand = p_first
    elif (m1, m2) == (1, 0):
        radicand = p_second
    else:
        radicand = p_first * p_second
    return PairParity(pair=(p_first, p_second), d_first_mod2=m1,
                      d_second_mod2=m2, radicand=radicand)


class RamRow(Record):
    prime: Poly
    vbar: int  # class mod w of the Kummer unit's valuation at the prime
    e: int     # ramification index in the Kummer step: w / gcd(w, vbar)


class RamTable(Record):
    per_prime: tuple[RamRow, ...]  # one per conductor prime, in cond.factors order
    pair_parities: tuple[PairParity, ...]

    def row_for(self, prime: Poly) -> RamRow:
        for row in self.per_prime:
            if row.prime == prime:
                return row
        raise ValidationError(f"{prime} has no ramification row")

    def e_for(self, prime: Poly) -> int:
        return self.row_for(prime).e


def ramification_table(cond: Conductor, pairs: PairSet) -> RamTable:
    """Valuation classes and ramification indices of every conductor prime.

    For a prime L the valuation of the Kummer unit is, mod w, the sum of
    dlog (L over Q) over the pairs (L, Q) minus the sum of dlog (L over P)
    over the pairs (P, L); the ramification index is w / gcd(w, that
    class), with gcd(w, 0) = w giving e = 1 for a prime in no pair.
    """
    ctx = cond.ctx
    vbar = {pp.prime.coeffs: 0 for pp in cond.factors}
    for a, b in pairs.pairs:
        vbar[a.coeffs] += symbol_dlog(a, b)
        vbar[b.coeffs] -= symbol_dlog(b, a)
    rows = []
    for pp in cond.factors:
        v = vbar[pp.prime.coeffs] % ctx.w
        e = ctx.w // math.gcd(ctx.w, v)
        rows.append(RamRow(prime=pp.prime, vbar=v, e=e))
    parities = tuple(_pair_parity(a, b) for a, b in pairs.pairs)
    return RamTable(per_prime=tuple(rows), pair_parities=parities)


class ParityReport(Record):
    """Diagnostic for the even-degree-product rule: when 2 | d_P * d_Q the two
    ramification indices of a single pair must agree."""

    applicable: bool
    passed: bool
    e_first: int
    e_second: int


def parity_consistency(pairs: PairSet, ram: RamTable) -> ParityReport:
    if len(pairs.pairs) != 1:
        raise OnlySinglePairSupported(
            "the parity rule is stated for single-pair inputs")
    p_first, p_second = pairs.pairs[0]
    e1 = ram.e_for(p_first)
    e2 = ram.e_for(p_second)
    applicable = (p_first.degree * p_second.degree) % 2 == 0
    passed = (e1 == e2) if applicable else True
    return ParityReport(applicable=applicable, passed=passed, e_first=e1, e_second=e2)


# -- the Galois presentation -----------------------------------------------------

class Generator(Record):
    name: str
    prime: Poly
    base_order: int   # order of the residue generator at the prime: |P| - 1
    lift_order: int   # order of its lift: e(P) * base_order
    central: bool


class Relation(Record):
    """left * right = right * left * eps**(-1) for the named generators."""

    left: str
    right: str
    epsilon_exponent: int = -1


class GroupPresentation(Record):
    epsilon_order: int
    p_part_order: int
    group_order: int
    generators: tuple[Generator, ...]
    relations: tuple[Relation, ...]


def presentation(cond: Conductor, pairs: PairSet, ram: RamTable) -> GroupPresentation:
    """Generators and relations of the Galois group of the full tower.

    One generator per conductor prime plus the central epsilon of order w;
    paired generators satisfy one commutator relation per pair and their
    lift orders are stretched by the ramification index; everything else
    commutes. The p-part is central and reported by its order.
    """
    ctx = cond.ctx
    names = {pp.prime.coeffs: f"sigma[{pp.prime}]" for pp in cond.factors}
    gens = []
    for pp, row in zip(cond.factors, ram.per_prime):
        base = pp.norm - 1
        gens.append(Generator(name=names[pp.prime.coeffs], prime=pp.prime,
                              base_order=base, lift_order=row.e * base,
                              central=not pairs.is_paired(pp.prime)))
    relations = tuple(Relation(left=names[a.coeffs], right=names[b.coeffs])
                      for a, b in pairs.pairs)
    return GroupPresentation(epsilon_order=ctx.w,
                             p_part_order=cond.structure.p_part_order,
                             group_order=ctx.w * cond.phi,
                             generators=tuple(gens),
                             relations=relations)


# -- genus of the Kummer layer -----------------------------------------------------

def genus_hasse_formula(cond: Conductor, base_genus: int, ram: RamTable) -> int:
    """Hasse's closed Kummer-extension formula, with every conductor prime
    contributing (1 - 1/e(L)) * d_L * Phi(M/L^{r_L}) / 2 (zero when e = 1,
    as for a prime in no pair).
    Infinite places are unramified in this step and the constant field does
    not grow, so the leading factor is exactly w. In ints, over D = 2 lcm(e(L))."""
    den = 2 * math.lcm(*(row.e for row in ram.per_prime))
    total = den * (base_genus - 1)
    for pd, row in zip(cond.different.per_prime, ram.per_prime):
        total += (row.e - 1) * (den // (2 * row.e)) * pd.degree * pd.phi_cofactor
    return _as_genus(den + cond.ctx.w * total, den, "Kummer closed-form genus")


def genus_riemann_hurwitz(cond: Conductor, base_genus: int, ram: RamTable) -> int:
    """The same genus from Riemann-Hurwitz on the tame Kummer step, in ints:
    2g - 2 = w(2g_base - 2) + sum (e(L)-1) * (w/e(L)) * d_L * Phi(M/L^{r_L}),
    using that the places above L have total degree d_L * Phi(M/L^{r_L})."""
    ctx = cond.ctx
    deg_different = 0
    for pd, row in zip(cond.different.per_prime, ram.per_prime):
        if ctx.w % row.e != 0:
            raise NonIntegerGenus(f"e = {row.e} does not divide w = {ctx.w}")  # pragma: no cover
        deg_different += (row.e - 1) * (ctx.w // row.e) * pd.degree * pd.phi_cofactor
    two_g_minus_2 = ctx.w * (2 * base_genus - 2) + deg_different
    return _as_genus(two_g_minus_2 + 2, 2, "Kummer Riemann-Hurwitz genus")
