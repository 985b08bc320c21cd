"""Exhaustive property suites: the one implementation of each law check.

Each suite checks one mathematical law on a small exhaustive range (or a
seeded random sample) and reports case counts plus failures. The CLI's
``selfcheck`` verb runs them through ``run_selfcheck``; the acceptance tests
call the same suites and pin their case counts. The "small" scope covers the
cheap exhaustive suites over F_3; "full" adds F_5/F_9 ranges, the degree-4
genus sweep, and the factorization round trip; "deep" is "full" plus the
Euclidean symbol against the powmod symbols. The benchmark in perfbench/
pins the list of (suite, cases) that "full" returns in its pool.json, so a
new law check goes into "deep".

``run_selfcheck`` runs about half of the work in a forked child: the same
share of suites in every scope (the F_3 Phi sweep, the F_5 parity sweep,
the degree-4 genus sweep and the F_9 round trip). The child sends each
result's (name, cases, failures) back through a pipe as JSON and leaves
by ``os._exit``, so what it builds, field tables included, dies with it.
Each round trip draws from its own ``random.Random(seed)``, so neither
side depends on the other's draws. Without ``os.fork``, or when it fails,
the parent runs every suite itself, in the pinned order.

The brute-force helpers (``all_polys_below``, ``count_units``,
``power_residue_set``) enumerate residues and multiply repeatedly, so they
stay independent of the residue-symbol and Phi code they check.
"""

from __future__ import annotations

import itertools
import json
import os
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
from .errors import ConsistencyError, NotCoprime, ValidationError
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


def _suite(name: str, cases) -> SuiteResult:
    """The result of one suite, whose ``cases`` yields each case's failure
    lines in turn: none when the case holds, several where it checks
    several things."""
    count, failures = 0, []
    for lines in cases:
        count += 1
        failures += lines
    return SuiteResult(name=name, cases=count, failures=failures)


def suite_reciprocity(ctx: FieldCtx, max_degree: int) -> SuiteResult:
    """(second/first) == (-1)^(d1*d2) * (first/second) over every distinct
    monic prime pair up to the degree bound."""
    primes = list(monic_irreducibles(ctx, max_degree))
    return _suite(f"reciprocity q={ctx.q} deg<={max_degree}",
                  ([] if check_reciprocity(a, b).holds
                   else [f"({format_poly(a)}, {format_poly(b)})"]
                   for a, b in itertools.combinations(primes, 2)))


def suite_phi_bruteforce(ctx: FieldCtx, max_degree: int) -> SuiteResult:
    """poly_phi against a direct count of coprime residues."""
    def cases():
        for d in range(1, max_degree + 1):
            for m in monic_of_degree(ctx, d):
                count, expected = count_units(ctx, m), poly_phi(ctx, poly_factor(m).factors)
                yield [] if count == expected else [
                    f"{format_poly(m)}: brute {count} != {expected}"]
    return _suite(f"phi-bruteforce q={ctx.q} degM<={max_degree}", cases())


def suite_symbol_character(ctx: FieldCtx, max_degree: int) -> SuiteResult:
    """The residue symbol is 1 exactly on (q-1)-th power residues."""
    def cases():
        for r in monic_irreducibles(ctx, max_degree):
            powers = power_residue_set(ctx, r)
            for a in all_polys_below(ctx, r.degree):
                if not a.is_zero:
                    yield [] if (a.coeffs in powers) == (residue_symbol(a, r) == 0) else [
                        f"({format_poly(a)} / {format_poly(r)})"]
    return _suite(f"symbol-character q={ctx.q} degR<={max_degree}", cases())


def suite_symbol_euclid(ctx: FieldCtx, max_degree: int, a_degree: int) -> SuiteResult:
    """symbol_dlog (Euclid and reciprocity) against the powmod symbols, for
    every monic b of degree <= max_degree and every a of degree < a_degree.

    The reference is jacobi_symbol: one residue_symbol per prime of b. Both
    must raise NotCoprime on the same pairs. The "deep" scope's extra suite,
    run in the parent's share.
    """
    def symbol(of, a, b):
        try:
            return of(a, b)
        except NotCoprime:
            return "not coprime"

    def cases():
        for d in range(max_degree + 1):
            for b in monic_of_degree(ctx, d):
                for a in all_polys_below(ctx, a_degree):
                    euclid, powmod = symbol(symbol_dlog, a, b), symbol(jacobi_symbol, a, b)
                    yield [] if euclid == powmod else [
                        f"({format_poly(a)} / {format_poly(b)}): "
                        f"euclid {euclid} != powmod {powmod}"]
    return _suite(f"symbol-euclid q={ctx.q} degB<={max_degree} degA<{a_degree}", cases())


def suite_parity(ctx: FieldCtx, max_degree: int) -> SuiteResult:
    """For single pairs with even degree product, both ramification indices
    agree. Cases count only pairs where the hypothesis applies."""
    primes = list(monic_irreducibles(ctx, max_degree))

    def cases():
        for a, b in itertools.combinations(primes, 2):
            if (a.degree * b.degree) % 2 == 0:
                cond = conductor_create(ctx, [(a, 1), (b, 1)])
                pairs = pairset_create(cond, [(a, b)])
                verdict = parity_consistency(pairs, ramification_table(cond, pairs))
                yield [] if verdict.applicable and verdict.passed else [
                    f"({format_poly(a)}, {format_poly(b)}): "
                    f"e={verdict.e_first} vs e={verdict.e_second}"]
    return _suite(f"parity q={ctx.q} deg<={max_degree}", cases())


def suite_genus_paths(ctx: FieldCtx, max_degree: int) -> SuiteResult:
    """Both genus paths agree on every conductor up to the degree bound, and
    both Kummer genus paths agree for every admissible single pair."""
    def cases():
        for d in range(1, max_degree + 1):
            for m in monic_of_degree(ctx, d):
                cond = conductor_create(ctx, m)
                g_closed, g_rh = genus_closed_form(cond), genus_riemann_hurwitz(cond)
                if g_closed != g_rh:
                    yield [f"M={format_poly(m)}: {g_closed} != {g_rh}"]
                    continue
                yield []
                for i, j in itertools.combinations(range(len(cond.factors)), 2):
                    a, b = cond.factors[i].prime, cond.factors[j].prime
                    ram = ramification_table(cond, pairset_create(cond, [(a, b)]))
                    g_hasse = genus_hasse_formula(cond, g_closed, ram)
                    g_kummer_rh = kummer_genus_rh(cond, g_closed, ram)
                    yield [] if g_hasse == g_kummer_rh else [
                        f"M={format_poly(m)} pair ({format_poly(a)}, {format_poly(b)}): "
                        f"{g_hasse} != {g_kummer_rh}"]
    return _suite(f"genus-paths q={ctx.q} degM<={max_degree}", cases())


def suite_factor_roundtrip(ctx: FieldCtx, count: int, max_degree: int,
                           rng: random.Random) -> SuiteResult:
    """Polynomials drawn from rng factor, multiply back exactly, and the
    reported primes are distinct, monic, irreducible and of norm q^d. Each
    distinct prime is proven once per call; every sample that holds a bad
    prime gets its own failure line."""
    proven: dict[tuple, bool] = {}

    def irreducible(prime: Poly) -> bool:
        if prime.coeffs not in proven:
            proven[prime.coeffs] = poly_is_irreducible(prime)
        return proven[prime.coeffs]

    def cases():
        for _ in range(count):
            d = rng.randint(1, max_degree)
            coeffs = [rng.randrange(ctx.q) for _ in range(d)]
            coeffs.append(rng.randrange(1, ctx.q))
            f = Poly(ctx, coeffs)
            fz = poly_factor(f)
            if fz.product(ctx) != f:
                yield [f"{format_poly(f)}: product mismatch"]
                continue
            repeated = len({pp.prime for pp in fz.factors}) != len(fz.factors)
            yield ([f"{format_poly(f)}: repeated prime"] if repeated else []) + [
                f"{format_poly(f)}: bad prime {format_poly(pp.prime)}"
                for pp in fz.factors
                if (not pp.prime.monic or pp.norm != ctx.q ** pp.degree
                    or not irreducible(pp.prime))]
    return _suite(f"factor-roundtrip q={ctx.q} n={count} deg<={max_degree}", cases())


SCOPES = ("small", "full", "deep")


def _steps(scope: str, seed: int) -> list[tuple]:
    """The scope's suites in their pinned order, as (suite, args, runs in the
    child). Each round trip gets its own random.Random(seed)."""
    f3 = field_create(3)
    steps = [
        (suite_reciprocity, (f3, 3), False),
        (suite_phi_bruteforce, (f3, 3), True),
        (suite_symbol_character, (f3, 2), False),
        (suite_parity, (f3, 3), False),
        (suite_genus_paths, (f3, 3), False),
    ]
    if scope != "small":
        f5 = field_create(5)
        f9 = field_create(3, 2, [1, 0, 1])
        steps += [
            (suite_reciprocity, (f5, 2), False),
            (suite_parity, (f5, 3), True),
            (suite_genus_paths, (f3, 4), True),
            (suite_factor_roundtrip, (f3, 1000, 8, random.Random(seed)), False),
            (suite_factor_roundtrip, (f5, 1000, 8, random.Random(seed)), False),
            (suite_factor_roundtrip, (f9, 1000, 8, random.Random(seed)), True),
        ]
    if scope == "deep":
        steps.append((suite_symbol_euclid, (f3, 3, 3), False))
    return steps


def _run_share(steps: list[tuple], in_child: bool) -> list[SuiteResult]:
    """Run the steps of one side in order."""
    return [suite(*args) for suite, args, side in steps if side == in_child]


def _fork_child(steps: list[tuple]) -> tuple[int, int] | None:
    """Fork a child that runs its share of the steps, writes the results to
    a pipe as JSON and leaves by os._exit. Returns (pid, read end of the
    pipe), or None where os.fork is missing or fails."""
    if not hasattr(os, "fork"):
        return None
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid:
        os.close(wfd)
        return pid, rfd
    status = 1
    try:
        os.close(rfd)
        try:
            payload = {"results": [[r.name, r.cases, r.failures]
                                   for r in _run_share(steps, True)]}
            status = 0
        except Exception as exc:  # reported to the parent, which raises
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        with open(wfd, "w", encoding="utf-8") as pipe:
            json.dump(payload, pipe)
    finally:
        os._exit(status)


def _child_results(data: bytes, status: int) -> list[SuiteResult]:
    try:
        payload = json.loads(data)
    except ValueError:
        raise ConsistencyError(f"the selfcheck child wrote no results "
                               f"(wait status {status})") from None
    if "error" in payload:
        raise ConsistencyError(f"a selfcheck suite raised in the child: "
                               f"{payload['error']}")
    return [SuiteResult(name=name, cases=cases, failures=failures)
            for name, cases, failures in payload["results"]]


def run_selfcheck(scope: str = "small", seed: int = 0) -> list[SuiteResult]:
    """Run the suites of the scope ("small", "full" or "deep") in their pinned
    order, each round trip drawing from its own random.Random(seed). A fixed
    share of the suites runs in a forked child (see the module docstring);
    the results are those of a serial run."""
    if scope not in SCOPES:
        raise ValidationError(f"scope must be one of {', '.join(SCOPES)}, got {scope!r}")
    if type(seed) is not int:
        raise ValidationError(f"seed must be an int, got {seed!r}")
    steps = _steps(scope, seed)
    child = _fork_child(steps)
    if child is None:
        return [suite(*args) for suite, args, _ in steps]
    pid, rfd = child
    try:
        with open(rfd, "rb") as pipe:
            ours = iter(_run_share(steps, False))
            data = pipe.read()
    except BaseException:
        import signal  # only on this path, so that import qcff loads no signal
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    theirs = iter(_child_results(data, status))
    return [next(theirs if in_child else ours) for _, _, in_child in steps]
