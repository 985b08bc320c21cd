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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    Poly,
    enumerate_monic_below,
    poly_cmp,
    poly_gcd,
    poly_is_irreducible,
)
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
from .symbols import symbol_dlog


# -- pair sets ----------------------------------------------------------------

@dataclass(frozen=True)
class PairSet:
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
    for p_first, p_second in raw:
        for member in (p_first, p_second):
            if member.ctx != cond.ctx:
                raise ValidationError(f"{member} belongs to a different field")
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

@dataclass(frozen=True)
class FracClass:
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
    num = num % den
    if num.is_zero:
        return None
    return FracClass(num=num, den=den)


@dataclass(frozen=True)
class FormalSum:
    """Integer combination of k/A classes, with the raw (pre-reduction) term
    count preserved for diagnostics."""

    terms: tuple[tuple[FracClass, int], ...]
    raw_terms: int


def raw_term_count(ctx, d_first: int, d_second: int) -> int:
    """Terms generated by the defining triple sum before any reduction:
    (q-2) * #[monic below d_second] * #[monic below d_first] * 2."""
    n_a = (ctx.q ** d_second - 1) // ctx.w
    n_b = (ctx.q ** d_first - 1) // ctx.w
    return (ctx.q - 2) * n_a * n_b * 2


def pair_formal_sum(p_first: Poly, p_second: Poly) -> FormalSum:
    """The formal k/A sum attached to an oriented prime pair.

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
    """
    ctx = p_first.ctx
    _validate_pair(p_first, p_second)
    P, Q = p_first.coeffs, p_second.coeffs
    PQ = tuple(ctx.kernel.pmul(P, Q))
    acc: dict[tuple[tuple, tuple], int] = {}
    _add_half_sum(ctx, P, Q, PQ, 1, acc)
    _add_half_sum(ctx, Q, P, PQ, -1, acc)
    dens = {P: p_first, Q: p_second, PQ: Poly(ctx, PQ)}
    terms = [(FracClass(num=Poly(ctx, num), den=dens[den]), n)
             for (den, num), n in acc.items() if n]
    terms.sort(key=lambda term: (term[0].den.sort_key, term[0].num.sort_key))
    return FormalSum(terms=tuple(terms),
                     raw_terms=raw_term_count(ctx, p_first.degree, p_second.degree))


def _add_half_sum(ctx, P: tuple, Q: tuple, PQ: tuple, sign: int,
                  acc: dict[tuple[tuple, tuple], int]) -> None:
    """Add sign * s * [(B*Q + gamma^{-s} A) / PQ] to acc, keyed by the
    class's (den, num) coefficient tuples, over monic B with deg B < deg P,
    monic A with deg A < deg Q and s = 1..q-2 (see pair_formal_sum)."""
    kernel = ctx.kernel
    padd, pscale = kernel.padd, kernel.pscale
    q_inv = kernel.ppowmod(Q, ctx.q ** (len(P) - 1) - 2, P)
    b_times_q = {b.coeffs: tuple(kernel.pmul(b.coeffs, Q))
                 for b in enumerate_monic_below(ctx, len(P) - 1)}
    for a in (f.coeffs for f in enumerate_monic_below(ctx, len(Q) - 1)):
        a_over_q = kernel.prem(kernel.pmul(a, q_inv), P)
        for s in range(1, ctx.q - 1):
            c = ctx.gamma_pow(-s)
            ca = pscale(a, c)
            # -c*A/Q mod P is the only B with P | B*Q + c*A, if it is monic
            hit = b_times_q.get(tuple(pscale(a_over_q, ctx.neg_const(c))))
            n = sign * s
            for bq in b_times_q.values():
                num = tuple(padd(bq, ca))
                if bq is hit:
                    key = (Q, tuple(kernel.pdivrem(num, P)[0]))
                else:
                    key = (PQ, num)
                acc[key] = acc.get(key, 0) + n


def _validate_pair(p_first: Poly, p_second: Poly) -> None:
    for member in (p_first, p_second):
        if member.is_zero or member.is_constant or not member.monic \
                or not poly_is_irreducible(member):
            raise BadPair(f"{member} is not a monic prime")
    if p_first == p_second:
        raise BadPair("pair members must be distinct")
    if poly_cmp(p_first, p_second) > 0:
        raise BadPair(f"pair ({p_first}, {p_second}) has the wrong orientation")


# -- ramification -----------------------------------------------------------------

@dataclass(frozen=True)
class PairParity:
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


@dataclass(frozen=True)
class RamRow:
    prime: Poly
    vbar: int  # class mod w of the Kummer unit's valuation at the prime
    e: int     # ramification index in the Kummer step: w / gcd(w, vbar)


@dataclass(frozen=True)
class RamTable:
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


@dataclass(frozen=True)
class ParityReport:
    """Diagnostic for the even-degree-product rule: when 2 | d_P * d_Q the two
    ramification indices of a single pair must agree."""

    applicable: bool
    passed: bool
    e_first: int
    e_second: int
    d_first: int
    d_second: int


def parity_consistency(pairs: PairSet, ram: RamTable) -> ParityReport:
    if len(pairs.pairs) != 1:
        raise OnlySinglePairSupported(
            "the parity rule is stated for single-pair inputs")
    p_first, p_second = pairs.pairs[0]
    e1 = ram.e_for(p_first)
    e2 = ram.e_for(p_second)
    applicable = (p_first.degree * p_second.degree) % 2 == 0
    passed = (e1 == e2) if applicable else True
    return ParityReport(applicable=applicable, passed=passed,
                        e_first=e1, e_second=e2,
                        d_first=p_first.degree, d_second=p_second.degree)


# -- the Galois presentation -----------------------------------------------------

@dataclass(frozen=True)
class Generator:
    name: str
    prime: Poly
    base_order: int   # order of the residue generator at the prime: |P| - 1
    lift_order: int   # order of its lift: e(P) * base_order
    central: bool


@dataclass(frozen=True)
class Relation:
    """left * right = right * left * eps**(-1) for the named generators."""

    left: str
    right: str
    epsilon_exponent: int = -1


@dataclass(frozen=True)
class GroupPresentation:
    epsilon_order: int
    p_part_order: int
    group_order: int
    generators: tuple[Generator, ...]
    relations: tuple[Relation, ...]


def _generator_name(prime: Poly) -> str:
    return f"sigma[{prime}]"


def presentation(cond: Conductor, pairs: PairSet, ram: RamTable) -> GroupPresentation:
    """Generators and relations of the Galois group of the full tower.

    One generator per conductor prime plus the central epsilon of order w;
    paired generators satisfy one commutator relation per pair and their
    lift orders are stretched by the ramification index; everything else
    commutes. The p-part is central and reported by its order.
    """
    ctx = cond.ctx
    gens = []
    for pp, row in zip(cond.factors, ram.per_prime):
        base = pp.norm - 1
        gens.append(Generator(name=_generator_name(pp.prime), prime=pp.prime,
                              base_order=base, lift_order=row.e * base,
                              central=not pairs.is_paired(pp.prime)))
    relations = tuple(Relation(left=_generator_name(a), right=_generator_name(b))
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
    not grow, so the leading factor is exactly w."""
    ctx = cond.ctx
    total = Fraction(base_genus - 1)
    for pd, row in zip(cond.different.per_prime, ram.per_prime):
        total += Fraction(1, 2) * (1 - Fraction(1, row.e)) * pd.degree * pd.phi_cofactor
    return _as_genus(1 + ctx.w * total, "Kummer closed-form genus")


def genus_riemann_hurwitz(cond: Conductor, base_genus: int, ram: RamTable) -> int:
    """The same genus from Riemann-Hurwitz on the tame Kummer step:
    2g - 2 = w(2g_base - 2) + sum (e(L)-1) * (w/e(L)) * d_L * Phi(M/L^{r_L}),
    using that the places above L have total degree d_L * Phi(M/L^{r_L})."""
    ctx = cond.ctx
    deg_different = 0
    for pd, row in zip(cond.different.per_prime, ram.per_prime):
        if ctx.w % row.e != 0:
            raise NonIntegerGenus(f"e = {row.e} does not divide w = {ctx.w}")  # pragma: no cover
        deg_different += (row.e - 1) * (ctx.w // row.e) * pd.degree * pd.phi_cofactor
    two_g_minus_2 = ctx.w * (2 * base_genus - 2) + deg_different
    return _as_genus(Fraction(two_g_minus_2 + 2, 2), "Kummer Riemann-Hurwitz genus")
