"""Exhaustive property suites: the one implementation of each law check.

Each suite checks one mathematical law on a small exhaustive range (or a
seeded random sample) and reports case counts plus failures. The CLI's
``selfcheck`` verb runs them through ``run_selfcheck``; the acceptance tests
call the same suites and pin their case counts. The "small" scope covers the
cheap exhaustive suites over F_3; "full" adds F_5/F_9 ranges, the degree-4
genus sweep, and the factorization round trip.

suite_symbol_euclid is the one suite that run_selfcheck does not run: the
benchmark in perfbench/ pins run_selfcheck's list of (suite, cases) in its
pool.json. The tests call it with pinned case counts.

The brute-force helpers (``all_polys_below``, ``count_units``,
``power_residue_set``) enumerate residues and multiply repeatedly, so they
stay independent of the residue-symbol and Phi code they check.
"""

from __future__ import annotations

import itertools
import random

from .algebra import (
    FieldCtx,
    Poly,
    field_create,
    format_poly,
    monic_irreducibles,
    monic_of_degree,
    one,
    poly_factor,
    poly_gcd,
    poly_is_irreducible,
    poly_phi,
)
from .cyclotomic import conductor_create, genus_closed_form, genus_riemann_hurwitz
from .errors import NotCoprime
from .kummer import (
    genus_hasse_formula,
    genus_riemann_hurwitz as kummer_genus_rh,
    pairset_create,
    parity_consistency,
    ramification_table,
)
from .record import Record
from .symbols import check_reciprocity, jacobi_symbol, residue_symbol, symbol_dlog


class SuiteResult(Record):
    name: str
    cases: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def all_polys_below(ctx: FieldCtx, d: int):
    """Every polynomial of degree < d, zero included."""
    for coeffs in itertools.product(range(ctx.q), repeat=d):
        yield Poly(ctx, list(coeffs))


def count_units(ctx: FieldCtx, m: Poly) -> int:
    """|(A/m)*| by enumerating residues and testing coprimality."""
    return sum(1 for r in all_polys_below(ctx, m.degree)
               if not r.is_zero and poly_gcd(r, m).degree == 0)


def power_residue_set(ctx: FieldCtx, r: Poly) -> set[tuple[int, ...]]:
    """(q-1)-th powers of the nonzero residues modulo r, by repeated products."""
    out = set()
    for x in all_polys_below(ctx, r.degree):
        if x.is_zero:
            continue
        acc = one(ctx)
        for _ in range(ctx.w):
            acc = (acc * x) % r
        out.add(acc.coeffs)
    return out


def suite_reciprocity(ctx: FieldCtx, max_degree: int) -> SuiteResult:
    """(second/first) == (-1)^(d1*d2) * (first/second) over every distinct
    monic prime pair up to the degree bound."""
    primes = list(monic_irreducibles(ctx, max_degree))
    failures = []
    cases = 0
    for a, b in itertools.combinations(primes, 2):
        cases += 1
        if not check_reciprocity(a, b).holds:
            failures.append(f"({format_poly(a)}, {format_poly(b)})")
    return SuiteResult(name=f"reciprocity q={ctx.q} deg<={max_degree}",
                       cases=cases, failures=failures)


def suite_phi_bruteforce(ctx: FieldCtx, max_degree: int) -> SuiteResult:
    """poly_phi against a direct count of coprime residues."""
    failures = []
    cases = 0
    for d in range(1, max_degree + 1):
        for m in monic_of_degree(ctx, d):
            cases += 1
            count = count_units(ctx, m)
            expected = poly_phi(ctx, poly_factor(m).factors)
            if count != expected:
                failures.append(f"{format_poly(m)}: brute {count} != {expected}")
    return SuiteResult(name=f"phi-bruteforce q={ctx.q} degM<={max_degree}",
                       cases=cases, failures=failures)


def suite_symbol_character(ctx: FieldCtx, max_degree: int) -> SuiteResult:
    """The residue symbol is 1 exactly on (q-1)-th power residues."""
    failures = []
    cases = 0
    for r in monic_irreducibles(ctx, max_degree):
        powers = power_residue_set(ctx, r)
        for a in all_polys_below(ctx, r.degree):
            if a.is_zero:
                continue
            cases += 1
            is_power = a.coeffs in powers
            symbol_trivial = residue_symbol(a, r) == 0
            if is_power != symbol_trivial:
                failures.append(f"({format_poly(a)} / {format_poly(r)})")
    return SuiteResult(name=f"symbol-character q={ctx.q} degR<={max_degree}",
                       cases=cases, failures=failures)


def suite_symbol_euclid(ctx: FieldCtx, max_degree: int, a_degree: int) -> SuiteResult:
    """symbol_dlog (Euclid and reciprocity) against the powmod symbols, for
    every monic b of degree <= max_degree and every a of degree < a_degree.

    The reference is jacobi_symbol: one residue_symbol per prime of b. Both
    must raise NotCoprime on the same pairs. Not part of run_selfcheck (see
    the module docstring).
    """
    failures = []
    cases = 0
    for d in range(max_degree + 1):
        for b in monic_of_degree(ctx, d):
            for a in all_polys_below(ctx, a_degree):
                cases += 1
                euclid = powmod = "not coprime"
                try:
                    euclid = symbol_dlog(a, b)
                except NotCoprime:
                    pass
                try:
                    powmod = jacobi_symbol(a, b)
                except NotCoprime:
                    pass
                if euclid != powmod:
                    failures.append(f"({format_poly(a)} / {format_poly(b)}): "
                                    f"euclid {euclid} != powmod {powmod}")
    return SuiteResult(name=f"symbol-euclid q={ctx.q} degB<={max_degree} degA<{a_degree}",
                       cases=cases, failures=failures)


def suite_parity(ctx: FieldCtx, max_degree: int) -> SuiteResult:
    """For single pairs with even degree product, both ramification indices
    agree. Cases count only pairs where the hypothesis applies."""
    primes = list(monic_irreducibles(ctx, max_degree))
    failures = []
    cases = 0
    for a, b in itertools.combinations(primes, 2):
        if (a.degree * b.degree) % 2 != 0:
            continue
        cases += 1
        cond = conductor_create(ctx, [(a, 1), (b, 1)])
        pairs = pairset_create(cond, [(a, b)])
        verdict = parity_consistency(pairs, ramification_table(cond, pairs))
        if not (verdict.applicable and verdict.passed):
            failures.append(f"({format_poly(a)}, {format_poly(b)}): "
                            f"e={verdict.e_first} vs e={verdict.e_second}")
    return SuiteResult(name=f"parity q={ctx.q} deg<={max_degree}",
                       cases=cases, failures=failures)


def suite_genus_paths(ctx: FieldCtx, max_degree: int) -> SuiteResult:
    """Both genus paths agree on every conductor up to the degree bound, and
    both Kummer genus paths agree for every admissible single pair."""
    failures = []
    cases = 0
    for d in range(1, max_degree + 1):
        for m in monic_of_degree(ctx, d):
            cond = conductor_create(ctx, m)
            cases += 1
            g_closed = genus_closed_form(cond)
            g_rh = genus_riemann_hurwitz(cond)
            if g_closed != g_rh:
                failures.append(f"M={format_poly(m)}: {g_closed} != {g_rh}")
                continue
            for i, j in itertools.combinations(range(len(cond.factors)), 2):
                pairs = pairset_create(cond, [(cond.factors[i].prime,
                                               cond.factors[j].prime)])
                ram = ramification_table(cond, pairs)
                cases += 1
                g_hasse = genus_hasse_formula(cond, g_closed, ram)
                g_kummer_rh = kummer_genus_rh(cond, g_closed, ram)
                if g_hasse != g_kummer_rh:
                    failures.append(
                        f"M={format_poly(m)} pair "
                        f"({format_poly(cond.factors[i].prime)}, "
                        f"{format_poly(cond.factors[j].prime)}): "
                        f"{g_hasse} != {g_kummer_rh}")
    return SuiteResult(name=f"genus-paths q={ctx.q} degM<={max_degree}",
                       cases=cases, failures=failures)


def suite_factor_roundtrip(ctx: FieldCtx, count: int, max_degree: int,
                           rng: random.Random) -> SuiteResult:
    """Polynomials drawn from rng factor, multiply back exactly, and the
    reported primes are distinct, monic, irreducible and of norm q^d. Each
    distinct prime is proven once per call; every sample that holds a bad
    prime gets its own failure line."""
    failures = []
    proven: dict[tuple, bool] = {}

    def irreducible(prime: Poly) -> bool:
        if prime.coeffs not in proven:
            proven[prime.coeffs] = poly_is_irreducible(prime)
        return proven[prime.coeffs]

    for _ in range(count):
        d = rng.randint(1, max_degree)
        coeffs = [rng.randrange(ctx.q) for _ in range(d)]
        coeffs.append(rng.randrange(1, ctx.q))
        f = Poly(ctx, coeffs)
        fz = poly_factor(f)
        if fz.product(ctx) != f:
            failures.append(f"{format_poly(f)}: product mismatch")
            continue
        if len({pp.prime for pp in fz.factors}) != len(fz.factors):
            failures.append(f"{format_poly(f)}: repeated prime")
        for pp in fz.factors:
            if (not pp.prime.monic or pp.norm != ctx.q ** pp.degree
                    or not irreducible(pp.prime)):
                failures.append(f"{format_poly(f)}: bad prime {format_poly(pp.prime)}")
    return SuiteResult(name=f"factor-roundtrip q={ctx.q} n={count} deg<={max_degree}",
                       cases=count, failures=failures)


def run_selfcheck(scope: str = "small", seed: int = 0) -> list[SuiteResult]:
    """Run the suites for the given scope; "full" includes everything, its
    factor round-trip samples drawn from seed."""
    if scope not in ("small", "full"):
        raise ValueError(f"scope must be 'small' or 'full', got {scope!r}")
    f3 = field_create(3)
    results = [
        suite_reciprocity(f3, 3),
        suite_phi_bruteforce(f3, 3),
        suite_symbol_character(f3, 2),
        suite_parity(f3, 3),
        suite_genus_paths(f3, 3),
    ]
    if scope == "full":
        f5 = field_create(5)
        f9 = field_create(3, 2, [1, 0, 1])
        rng = random.Random(seed)
        results += [
            suite_reciprocity(f5, 2),
            suite_parity(f5, 3),
            suite_genus_paths(f3, 4),
            suite_factor_roundtrip(f3, 1000, 8, rng),
            suite_factor_roundtrip(f5, 1000, 8, rng),
            suite_factor_roundtrip(f9, 1000, 8, rng),
        ]
    return results
