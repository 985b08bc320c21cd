from __future__ import annotations

import itertools
import random

import pytest

from qcff.algebra import (
    Factorization,
    Poly,
    PrimePower,
    field_create,
    monic_irreducibles,
    monic_of_degree,
    one,
    poly_factor,
    poly_is_irreducible,
    poly_phi,
    poly_powmod,
    var_T,
)
from qcff.algebra.factor import (
    _is_irreducible,
    distinct_degree_split,
    equal_degree_split,
    frobenius_norm,
    frobenius_table,
    squarefree_decomposition,
)
from qcff.errors import ConstantInput, ValidationError
from qcff.selfcheck import all_polys_below, suite_phi_bruteforce

from .oracles import (
    list_frobenius_rows,
    powmod_equal_degree_split,
    rereducing_distinct_degree_split,
    table_rows,
)


def _shape(fz):
    return [(str(pp.prime), pp.exp) for pp in fz.factors]


def test_irreducibility_examples(ctx3, mk):
    assert poly_is_irreducible(var_T(ctx3))
    assert poly_is_irreducible(mk(ctx3, "T^2+1"))
    assert not poly_is_irreducible(mk(ctx3, "T^2+2"))  # (T+1)(T+2)


def test_irreducibility_rejects_constants(ctx3, mk):
    with pytest.raises(ConstantInput):
        poly_is_irreducible(mk(ctx3, "2"))
    with pytest.raises(ConstantInput):
        poly_is_irreducible(Poly(ctx3, []))


def test_irreducible_counts_match_necklace_formula(ctx3, ctx5):
    # number of monic irreducibles of degree d: (1/d) sum_{k|d} mu(k) q^{d/k}
    counts3 = {}
    for f in monic_irreducibles(ctx3, 4):
        counts3[f.degree] = counts3.get(f.degree, 0) + 1
    assert counts3 == {1: 3, 2: 3, 3: 8, 4: 18}
    counts5 = {}
    for f in monic_irreducibles(ctx5, 3):
        counts5[f.degree] = counts5.get(f.degree, 0) + 1
    assert counts5 == {1: 5, 2: 10, 3: 40}


def test_factor_examples(ctx3, mk):
    assert _shape(poly_factor(mk(ctx3, "T^2+2*T+1"))) == [("T+1", 2)]
    assert _shape(poly_factor(mk(ctx3, "T^3+2*T"))) == [("T", 1), ("T+1", 1), ("T+2", 1)]
    assert _shape(poly_factor(mk(ctx3, "T^2+1"))) == [("T^2+1", 1)]


def test_factor_keeps_leading_coefficient(ctx3, mk):
    fz = poly_factor(mk(ctx3, "2*T^2+2"))
    assert fz.lead == 2
    assert _shape(fz) == [("T^2+1", 1)]
    assert fz.product(ctx3) == mk(ctx3, "2*T^2+2")


def test_factor_rejects_constants(ctx3, mk):
    with pytest.raises(ConstantInput):
        poly_factor(mk(ctx3, "1"))


def test_squarefree_decomposition_handles_pth_powers(ctx3, mk):
    f = mk(ctx3, "T+1") ** 3 * mk(ctx3, "T") ** 2
    parts = dict((str(g), m) for g, m in squarefree_decomposition(f))
    assert parts == {"T+1": 3, "T": 2}
    f9 = mk(ctx3, "T") ** 9
    assert [(str(g), m) for g, m in squarefree_decomposition(f9)] == [("T", 9)]


@pytest.mark.parametrize("q", [3, 5, 9])
def test_factor_is_a_function_of_its_input(q, ctx3, ctx5, ctx9):
    """Products of two and of three distinct primes of one degree d <= 3, so
    the equal-degree split has to draw: repeated calls give equal
    factorizations, the chosen primes in canonical order."""
    ctx = {3: ctx3, 5: ctx5, 9: ctx9}[q]
    pick = random.Random(q)
    for d in range(1, 4):
        primes = [f for f in monic_of_degree(ctx, d) if poly_is_irreducible(f)]
        pick.shuffle(primes)
        for k in (2, 3):
            f = one(ctx)
            for p in primes[:k]:
                f = f * p
            fz = poly_factor(f)
            assert [poly_factor(f) for _ in range(3)] == [fz] * 3, f
            chosen = sorted(primes[:k], key=lambda p: p.sort_key)
            assert fz == Factorization(lead=1, factors=tuple(
                PrimePower.make(p, 1) for p in chosen)), f


def test_phi_examples(ctx3, mk):
    t = var_T(ctx3)
    assert poly_phi(ctx3, poly_factor(t).factors) == 2
    assert poly_phi(ctx3, poly_factor(t * t).factors) == 6
    assert poly_phi(ctx3, poly_factor(mk(ctx3, "T^2+T")).factors) == 4
    assert poly_phi(ctx3, []) == 1


def test_phi_matches_unit_count_exhaustively(ctx5):
    # F_3 is acceptance criterion 06
    res = suite_phi_bruteforce(ctx5, 3)
    assert res.failures == []
    assert res.cases == 155


def test_phi_rejects_repeated_primes(ctx3):
    t = var_T(ctx3)
    with pytest.raises(ValidationError):
        poly_phi(ctx3, [PrimePower.make(t, 1), PrimePower.make(t, 2)])


@pytest.mark.parametrize("q", [3, 5])
def test_frobenius_table_gives_qth_powers(q, ctx3, ctx5):
    """Every h mod f over F_3; over F_5 a seeded sample of 16 h per f. The
    chain h**(1 + q + ... + q**(k-1)) mod f is checked too, for every
    k <= deg f: the norm (k = deg f) and the shorter chains the equal-degree
    split runs. Both kinds of row 1 occur: the monomial T**q (F_3, degree 4)
    and a powmod (q >= deg f, every other case)."""
    ctx = {3: ctx3, 5: ctx5}[q]
    rng = random.Random(q)
    checked = 0
    for d in range(1, 5):
        for f in monic_of_degree(ctx, d):
            table = frobenius_table(f)
            assert len(table) == d
            hs = list(all_polys_below(ctx, d))
            if q == 5:
                hs = rng.sample(hs, min(16, len(hs)))
            for h in hs:
                assert list(ctx.kernel.papply(table, h.coeffs)) == \
                    list(poly_powmod(h, q, f).coeffs), (f, h)
                for k in range(1, d + 1):
                    assert frobenius_norm(table, h, k) == \
                        poly_powmod(h, (q ** k - 1) // (q - 1), f), (f, h, k)
                checked += 1
    assert checked == {3: 9 + 81 + 729 + 6561, 5: 25 + 25 * 16 + 125 * 16 + 625 * 16}[q]


@pytest.mark.parametrize("q", [3, 5])
def test_frobenius_rows_reduce_to_the_table_of_a_factor(q, ctx3, ctx5):
    """The rows of f's table, reduced mod a factor g, are g's rows, and both
    equal the rows of the reference build on coefficient lists."""
    ctx = {3: ctx3, 5: ctx5}[q]
    kernel = ctx.kernel
    for d in range(2, 5):
        for f in monic_of_degree(ctx, d):
            rows = table_rows(kernel, frobenius_table(f))
            assert rows == list_frobenius_rows(kernel, f.coeffs), f
            primes = [pp.prime for pp in poly_factor(f).factors]
            for g in primes + [f // p for p in primes if (f // p).degree >= 1]:
                reduced = [kernel.prem(r, g.coeffs) for r in rows[:g.degree]]
                assert reduced == table_rows(kernel, frobenius_table(g)), (f, g)


def test_distinct_degree_split_of_known_products(ctx3):
    """Products of 2 or 3 distinct primes of degree <= 3 over F_3: the split
    groups them by degree, also when it goes on after f has shrunk."""
    primes = list(monic_irreducibles(ctx3, 3))
    cases = 0
    for k in (2, 3):
        for chosen in itertools.combinations(primes, k):
            f = one(ctx3)
            by_degree: dict[int, Poly] = {}
            for p in chosen:
                f = f * p
                by_degree[p.degree] = by_degree.get(p.degree, one(ctx3)) * p
            split = distinct_degree_split(f)
            assert sorted((d, g.coeffs) for g, d in split) == \
                sorted((d, g.coeffs) for d, g in by_degree.items()), f
            cases += 1
    assert cases == 91 + 364  # 3 + 3 + 8 = 14 primes: C(14, 2) + C(14, 3)


def _random_monic(ctx, d, rng):
    return Poly(ctx, [rng.randrange(ctx.q) for _ in range(d)] + [1])


@pytest.mark.parametrize("q", [3, 5, 7, 9, 257])
def test_distinct_degree_split_matches_rereducing_walk(q, ctx3, ctx5, ctx7, ctx9):
    """Seeded squarefree products of one or two primes of each of three
    degrees <= 4, so that f shrinks at least twice: the walk on the
    first table gives the parts of the walk that reduces its table at each
    shrink, in the same order. Ben-Or's verdict is the same on each product,
    each of its primes and 40 seeded monic polynomials of degree <= 8,
    squares and irreducibles among them."""
    ctx = {3: ctx3, 5: ctx5, 7: ctx7, 9: ctx9}.get(q) or field_create(q)
    rng = random.Random(q)
    primes: dict[int, list[Poly]] = {}
    for d in range(1, 5):
        found: list[Poly] = []
        while len(found) < 2:
            f = _random_monic(ctx, d, rng)
            if f not in found and poly_is_irreducible(f):
                found.append(f)
        primes[d] = found
    tested = []
    for degrees in itertools.combinations(range(1, 5), 3):
        for k in (1, 2):
            f = one(ctx)
            for d in degrees:
                for p in primes[d][:k]:
                    f = f * p
            parts = list(distinct_degree_split(f))
            assert parts == rereducing_distinct_degree_split(f), f
            assert len(parts) >= 3, f
            tested.append(f)
    tested += [p for found in primes.values() for p in found]
    tested += [_random_monic(ctx, rng.randrange(1, 9), rng) for _ in range(40)]
    tested += [p * p for p in primes[2]]
    verdicts = set()
    for f in tested:
        ben_or = _is_irreducible(f, frobenius_table(f))
        assert ben_or == (rereducing_distinct_degree_split(f)[0] == (f, f.degree)), f
        verdicts.add(ben_or)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_equal_degree_split_matches_the_direct_power(q, ctx3, ctx5, ctx7, ctx9):
    """Products of 2 or 3 distinct primes of one degree d <= 4, from up to
    eight seeded primes per degree: the split on the Frobenius table gives
    the primes of the split with the direct power a**((q**d - 1)/2), drawn
    from the same fixed-seed generator, in the same order."""
    ctx = {3: ctx3, 5: ctx5, 7: ctx7, 9: ctx9}[q]
    pick = random.Random(q)
    cases = 0
    for d in range(1, 5):
        candidates = list(monic_of_degree(ctx, d))
        pick.shuffle(candidates)
        primes = [f for f in candidates[:40 * d] if poly_is_irreducible(f)][:8]
        for k in (2, 3):
            for chosen in itertools.combinations(primes, k):
                f = one(ctx)
                for p in chosen:
                    f = f * p
                assert equal_degree_split(f, d) == powmod_equal_degree_split(f, d), (f, d)
                cases += 1
    # C(n, 2) + C(n, 3) products from n primes: 4 for n = 3 (F_3 has three
    # primes of degree 1 and three of degree 2), 20, 56 and 84 for 5, 7, 8
    assert cases == {3: 4 + 4 + 84 + 84, 5: 20 + 3 * 84, 7: 56 + 3 * 84, 9: 4 * 84}[q]


def test_frobenius_apply_rejects_unreduced_input(ctx3, mk):
    table = frobenius_table(mk(ctx3, "T^2+1"))
    with pytest.raises(ValueError):
        ctx3.kernel.papply(table, mk(ctx3, "T^2").coeffs)
    with pytest.raises(ValidationError):
        frobenius_norm(table, mk(ctx3, "T^2"), 2)
    with pytest.raises(ValidationError):
        frobenius_norm(table, mk(ctx3, "T"), 0)


def _irreducible_by_trial_division(f):
    """No Frobenius: f has no monic divisor of degree 1..deg(f)//2, by % alone."""
    return all(not (f % g).is_zero
               for k in range(1, f.degree // 2 + 1)
               for g in monic_of_degree(f.ctx, k))


def test_irreducibility_matches_trial_division(ctx3, ctx5, ctx9):
    """Every monic polynomial of degree <= 6 over F_3, <= 4 over F_5 and
    <= 3 over F_9, squares and other repeated factors included."""
    total = irreducible = 0
    for ctx, top in ((ctx3, 6), (ctx5, 4), (ctx9, 3)):
        for d in range(1, top + 1):
            for f in monic_of_degree(ctx, d):
                expected = _irreducible_by_trial_division(f)
                assert poly_is_irreducible(f) == expected, f
                total += 1
                irreducible += expected
    assert (total, irreducible) == (1092 + 780 + 819, 196 + 205 + 285)


@pytest.mark.parametrize("q", [3, 5])
def test_products_of_equal_and_repeated_primes_are_reducible(q, ctx3, ctx5):
    """P**2, P*Q with deg P = deg Q, and P**2*Q for seeded primes of degree
    4..8, past the necklace count's range. For P*Q the split's first part is
    all of f, found at degree deg P: a test that read the part's degree
    instead of the degree it was found at would call f irreducible."""
    ctx = {3: ctx3, 5: ctx5}[q]
    rng = random.Random(q)
    primes = {}
    for k in range(4, 9):
        found = []
        while len(found) < 2:
            f = Poly(ctx, [rng.randrange(q) for _ in range(k)] + [1])
            if f not in found and _irreducible_by_trial_division(f):
                found.append(f)
        primes[k] = found
    for k, (p, r) in primes.items():
        assert poly_is_irreducible(p) and poly_is_irreducible(r), (p, r)
        other = primes[5 if k == 4 else 4][0]
        for f, shape in ((p * p, {(p, 2)}), (p * r, {(p, 1), (r, 1)}),
                         (p * p * r, {(p, 2), (r, 1)}),
                         (p * p * other, {(p, 2), (other, 1)})):
            assert not poly_is_irreducible(f), f
            assert {(pp.prime, pp.exp) for pp in poly_factor(f).factors} == shape, f
