"""The cyclotomic layer: conductor data, Galois structure, and genus.

For a monic nonconstant conductor M = prod P_i**r_i the layer generated by
the M-division points of the Carlitz module is abelian over F_q(T) with
group (A/M)* = prod (A/P_i**r_i)*. The factorization fixes this whole layer,
so conductor_create() computes its data once and the Conductor carries it:
the group structure (Conductor.structure) and, per prime, the different
coefficient s and the cofactor Phi(M/P_i**r_i) (Conductor.different). Both
genus paths here and both Kummer genus paths read these fields.

The genus is computed along two deliberately separate paths:

* genus_closed_form() evaluates the closed formula directly;
* genus_riemann_hurwitz() assembles the different divisor degree from the
  per-prime coefficients and the infinite places, then applies
  Riemann-Hurwitz.

The two are algebraically equal; equality is asserted in tests, never
assumed in code, so a transcription slip in either one is caught.
"""

from __future__ import annotations

import math

from .algebra import (
    FieldCtx,
    Factorization,
    Poly,
    PrimePower,
    poly_factor,
    poly_is_irreducible,
    poly_phi,
)
from .algebra.poly import _wrap
from .errors import (
    ConstantConductor,
    DuplicatePrime,
    NonIntegerGenus,
    NotMonic,
    ReducibleClaimedPrime,
    ValidationError,
)
from .record import Record


class GaloisStructure(Record):
    """Structure of the abelian group (A/M)*: one cyclic factor of order
    |P_i| - 1 per prime, plus a p-part reported by its order."""

    cyclic_orders: tuple[int, ...]
    p_part_order: int
    total_order: int


class PrimeDifferent(Record):
    """Ramification data of one conductor prime in the cyclotomic layer."""

    prime: Poly
    degree: int
    exp: int
    s: int          # different coefficient of every place above the prime
    phi_cofactor: int  # Phi(M / prime**exp) = (number of places) * (residue degree)


class DifferentData(Record):
    per_prime: tuple[PrimeDifferent, ...]
    infinite_count: int       # Phi(M) / (q - 1) places at infinity
    infinite_coefficient: int  # each contributes q - 2 to the different


class Conductor(Record):
    """Validated, canonically sorted factorization of a monic conductor,
    with the cyclotomic data that factorization fixes."""

    factors: tuple[PrimePower, ...]
    M: Poly
    phi: int
    degM: int
    structure: GaloisStructure
    different: DifferentData

    @property
    def ctx(self) -> FieldCtx:
        return self.M.ctx


def conductor_create(ctx: FieldCtx, spec, *, members=()) -> Conductor:
    """Build a Conductor from a monic polynomial or a claimed factorization.

    spec may be a Poly (factored here) or a sequence of (prime, exponent)
    pairs, each exponent an int >= 1; any other spec, or a Poly or claimed
    prime over another field than ctx, raises ValidationError. Claimed
    primes are always tested for irreducibility. A Poly spec is factored by
    _factor_by_members from members, a config's pair members, which change
    the work, never the Conductor (members that cannot be iterated raise
    ValidationError); each member divided out is proved by Ben-Or, and the
    primes poly_factor returns are irreducible by construction and are not
    tested.
    """
    factored_here = isinstance(spec, Poly)
    if factored_here:
        if spec.ctx is not ctx and spec.ctx != ctx:
            raise ValidationError(f"conductor {spec} belongs to a different field")
        if spec.is_zero or spec.is_constant:
            raise ConstantConductor(f"conductor must be nonconstant, got {spec}")
        if not spec.monic:
            raise NotMonic(f"conductor must be monic, got {spec}")
        try:
            members = tuple(members)
        except TypeError:
            raise ValidationError(f"members must be a sequence of Polys, got {members!r}") from None
        pairs = _factor_by_members(spec, members)
    else:
        try:
            pairs = list(spec)
        except TypeError:
            raise ValidationError(f"conductor must be a Poly or a sequence of "
                                  f"(prime, exponent) pairs, got {spec!r}") from None

    if not pairs:
        raise ConstantConductor("conductor must have at least one prime factor")
    seen = set()
    checked: list[tuple[Poly, int]] = []
    for entry in pairs:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                and isinstance(entry[0], Poly)):
            raise ValidationError(f"claimed factor must be a (Poly, int) pair, got {entry!r}")
        prime, exp = entry
        if prime.ctx != ctx:
            raise ValidationError(f"prime {prime} belongs to a different field")
        if type(exp) is not int or exp < 1:
            raise ValidationError(f"prime exponent must be an integer >= 1, got {exp!r}")
        if not prime.monic:
            raise NotMonic(f"claimed prime {prime} is not monic")
        if not factored_here and not poly_is_irreducible(prime):
            raise ReducibleClaimedPrime(f"claimed prime {prime} is reducible")
        if prime.coeffs in seen:
            raise DuplicatePrime(f"prime {prime} listed twice")
        seen.add(prime.coeffs)
        checked.append((prime, exp))
    checked.sort(key=lambda item: item[0].sort_key)

    factors = tuple(PrimePower.make(prime, exp) for prime, exp in checked)
    # a factored spec is M itself; claimed factors are multiplied out
    m = spec if factored_here else Factorization(lead=1, factors=factors).product(ctx)
    # (A/M)* is the product of the (A/P^r)*, so Phi(M) and every cofactor
    # Phi(M/P^r) are products of these orders
    units = [poly_phi(ctx, [pp]) for pp in factors]
    phi = math.prod(units)
    cyclic = tuple(pp.norm - 1 for pp in factors)
    p_part = math.prod(pp.norm ** (pp.exp - 1) for pp in factors)
    if p_part * math.prod(cyclic) != phi:
        raise NonIntegerGenus(  # pragma: no cover - arithmetic identity
            "unit group order bookkeeping failed")
    if phi % ctx.w != 0:
        raise NonIntegerGenus("q - 1 must divide Phi(M)")  # pragma: no cover
    rows = tuple(PrimeDifferent(prime=pp.prime, degree=pp.degree, exp=pp.exp,
                                s=pp.exp * unit - ctx.q ** (pp.degree * (pp.exp - 1)),
                                phi_cofactor=phi // unit)
                 for pp, unit in zip(factors, units))
    return Conductor(
        factors=factors, M=m, phi=phi, degM=m.degree,
        structure=GaloisStructure(cyclic_orders=cyclic, p_part_order=p_part,
                                  total_order=phi),
        different=DifferentData(per_prime=rows, infinite_count=phi // ctx.w,
                                infinite_coefficient=ctx.q - 2))


def _factor_by_members(m: Poly, members) -> list[tuple[Poly, int]]:
    """The (prime, exponent) pairs of the monic nonconstant m. Each member
    that is a monic nonconstant divisor of m is divided out to its full
    power, on coefficient lists; any other member is passed over. poly_factor
    factors only the cofactor, and Ben-Or then proves each member divided
    out, last, so that the field keeps the members' tables, which the
    residue symbols of their pairs read, past the cofactor's. If a member is
    reducible, m is factored whole, as with no members."""
    ctx, kernel = m.ctx, m.ctx.kernel
    rest, named = m.coeffs, []
    for member in members:
        if not (isinstance(member, Poly) and member.ctx == ctx and member.monic
                and member.degree > 0):
            continue
        exp = 0
        quot, rem = kernel.pdivrem(rest, member.coeffs)
        while not rem:
            rest, exp = quot, exp + 1
            quot, rem = kernel.pdivrem(rest, member.coeffs)
        if exp:
            named.append((member, exp))
    found = [] if len(rest) == 1 else [
        (pp.prime, pp.exp) for pp in poly_factor(_wrap(ctx, rest)).factors]
    if all(poly_is_irreducible(prime) for prime, _ in named):
        return named + found
    return [(pp.prime, pp.exp) for pp in poly_factor(m).factors]


def _as_genus(num: int, den: int, where: str) -> int:
    """The genus num / den, den > 0, of a genus formula computed in ints, its
    denominators cleared; NonIntegerGenus if it is not a nonnegative int."""
    g, rem = divmod(num, den)
    if rem:
        common = math.gcd(num, den)
        raise NonIntegerGenus(f"{where} evaluated to non-integer {num // common}/{den // common}")
    if g < 0:
        raise NonIntegerGenus(f"{where} evaluated to negative genus {g}")
    return g


def genus_closed_form(cond: Conductor) -> int:
    """Genus of the cyclotomic layer via the closed formula
    [(q-2)/(2(q-1)) - 1] * Phi(M) + (1/2) sum s_i d_i Phi(M/P_i^{r_i}) + 1,
    in ints: times 2(q-1), (q-2 - 2(q-1)) * Phi(M) + (q-1) * sum + 2(q-1)."""
    q, w = cond.ctx.q, cond.ctx.w
    total = sum(row.s * row.degree * row.phi_cofactor for row in cond.different.per_prime)
    return _as_genus((q - 2 - 2 * w) * cond.phi + w * total + 2 * w, 2 * w, "closed-form genus")


def genus_riemann_hurwitz(cond: Conductor) -> int:
    """Same genus assembled the long way, in ints: degree of the different
    divisor (finite rows plus infinite places) into 2g - 2 = -2*Phi(M) + deg D."""
    dd = cond.different
    deg_different = sum(row.s * row.degree * row.phi_cofactor for row in dd.per_prime)
    deg_different += dd.infinite_coefficient * dd.infinite_count
    two_g_minus_2 = -2 * cond.phi + deg_different
    return _as_genus(two_g_minus_2 + 2, 2, "Riemann-Hurwitz genus")
