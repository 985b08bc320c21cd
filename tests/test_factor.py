from __future__ import annotations

import ast
import itertools
import random
from collections import Counter
from pathlib import Path

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
import qcff
from qcff import selfcheck
from qcff.algebra import factor
from qcff.algebra.factor import frobenius_table
from qcff.errors import ConstantInput, ValidationError
from qcff.selfcheck import all_polys_below, suite_factor_roundtrip, suite_phi_bruteforce
from qcff.symbols import residue_symbol

from .oracles import (
    CountingKernel,
    list_frobenius_rows,
    poly_power_product,
    poly_squarefree_decomposition,
    powmod_equal_degree_split,
    reference_factorization,
    rereducing_distinct_degree_split,
    table_rows,
)


def _shape(fz):
    return [(str(pp.prime), pp.exp) for pp in fz.factors]


def _polys(ctx, parts):
    """The (coefficient list, n) pairs of a list stage as (Poly, n)."""
    return [(Poly(ctx, g), n) for g, n in parts]


def test_irreducibility_examples(ctx3, mk):
    assert poly_is_irreducible(var_T(ctx3))
    assert poly_is_irreducible(mk(ctx3, "T^2+1"))
    assert not poly_is_irreducible(mk(ctx3, "T^2+2"))  # (T+1)(T+2)


def test_lines_build_no_frobenius_table(mk, monkeypatch):
    """A degree-1 polynomial is irreducible, and its own distinct-degree
    part, without a table; factoring T * (T+1)**2 builds none either. The
    field is a fresh one, so no table kept by an earlier test hides a build."""
    ctx = field_create(3)
    counting = CountingKernel(ctx.kernel)
    monkeypatch.setattr(ctx, "kernel", counting)
    for text in ("T", "2*T+1", "T+2"):
        assert poly_is_irreducible(mk(ctx, text))
    line = mk(ctx, "T+1").coeffs
    assert factor._distinct_degree_parts(ctx, line) == [(line, 1)]
    assert _shape(poly_factor(mk(ctx, "T^3+2*T^2+T"))) == [("T", 1), ("T+1", 2)]
    assert counting.calls["ptable"] == 0
    assert not poly_is_irreducible(mk(ctx, "T^2+2"))
    assert counting.calls["ptable"] == 1


def test_irreducibility_rejects_constants(ctx3, mk):
    with pytest.raises(ConstantInput):
        poly_is_irreducible(mk(ctx3, "2"))
    with pytest.raises(ConstantInput):
        poly_is_irreducible(Poly(ctx3, []))


def test_factor_and_irreducibility_reject_non_polys(ctx3):
    """A non-Poly input is a ValidationError at entry, not an
    AttributeError from inside the stages."""
    for bad in ("x", 5, None, (1, 1)):
        with pytest.raises(ValidationError):
            poly_factor(bad)
        with pytest.raises(ValidationError):
            poly_is_irreducible(bad)


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
    # two primes of one degree: an equal-degree split
    assert _shape(poly_factor(mk(ctx3, "T^8+T^4+2*T^2+1"))) == [("T^4+T+2", 1), ("T^4+2*T+2", 1)]


@pytest.mark.parametrize("q, text, primes", [
    # five primes of degrees 5-14 over F_13: the pure kernel runs its
    # products, remainders and gcds on bytes
    (13, "T^50+T^49+8*T^48+2*T^47+7*T^46+10*T^45+T^44+3*T^43+5*T^42+6*T^41+3*T^40+12*T^38"
         "+12*T^37+9*T^36+8*T^34+9*T^33+7*T^32+10*T^31+10*T^30+8*T^29+6*T^28+T^27+T^26"
         "+5*T^25+8*T^24+12*T^23+4*T^22+9*T^21+9*T^20+7*T^19+4*T^18+3*T^17+T^16+5*T^15"
         "+7*T^14+12*T^13+10*T^12+11*T^11+12*T^10+6*T^9+7*T^8+6*T^7+4*T^6+3*T^5+3*T^4"
         "+11*T^3+11*T^2+11*T+12",
     ["T^5+12*T^4+10*T^3+10*T^2+4*T+4", "T^7+10*T^6+3*T^5+2*T^4+10*T^3+3*T^2+10*T+2",
      "T^12+3*T^11+5*T^10+12*T^9+12*T^8+4*T^7+11*T^6+6*T^5+11*T^4+2*T^3+4*T^2+10*T+7",
      "T^12+10*T^11+2*T^10+6*T^9+4*T^7+11*T^6+3*T^5+8*T^4+T^3+2*T^2+2*T+11",
      "T^14+5*T^13+T^12+5*T^11+7*T^10+T^9+2*T^8+10*T^7+3*T^6+2*T^4+11*T^3+8*T^2+2*T+5"]),
    # T^11-T times two primes of degree 5 and two of degree 6 over F_11: the
    # equal-degree splits build byte tables of degree 10, 11 and 12, on both sides of q
    (11, "T^33+T^32+8*T^31+4*T^30+5*T^28+8*T^27+6*T^26+2*T^25+4*T^24+7*T^23+2*T^22+4*T^20"
         "+3*T^19+7*T^18+4*T^17+5*T^16+T^15+8*T^14+6*T^13+9*T^12+6*T^11+3*T^10+8*T^9+10*T^8"
         "+10*T^7+8*T^5+10*T^4+8*T^3+10*T^2+8*T",
     ["T"] + [f"T+{a}" for a in range(1, 11)] + ["T^5+2*T^4+8*T^3+T^2+7*T+5",
      "T^5+2*T^4+10*T^3+5*T^2+3*T+3", "T^6+2*T^5+3*T^4+6*T^3+T^2+4*T+3",
      "T^6+6*T^5+5*T^4+2*T^3+3*T+3"]),
], ids=["f13_degree_50", "f11_degree_33"])
def test_factor_past_the_pool_fields(mk, q, text, primes):
    """Squarefree products over fields the benchmark pool does not reach."""
    assert _shape(poly_factor(mk(field_create(q), text))) == [(p, 1) for p in primes]


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
    parts = dict((str(g), m) for g, m in _polys(ctx3, factor._squarefree_parts(ctx3, f.coeffs)))
    assert parts == {"T+1": 3, "T": 2}
    f9 = mk(ctx3, "T") ** 9
    assert [(str(g), m) for g, m in _polys(ctx3, factor._squarefree_parts(ctx3, f9.coeffs))] \
        == [("T", 9)]


def test_squarefree_decomposition_takes_pth_roots_over_an_extension(ctx9, mk, monkeypatch):
    """Over F_9 a p-th root maps each coefficient x to x**(p**(e-1)) = x**3,
    not to itself: (T+1)*(T+3)**3 = T^4+T^3+6*T+6 leaves the cube T^3+6,
    whose cube root is T+3."""
    roots = []
    pth_root = factor._pth_root

    def spying(ctx, f):
        roots.append((list(f), pth_root(ctx, f)))
        return roots[-1][1]

    monkeypatch.setattr(factor, "_pth_root", spying)
    f = mk(ctx9, "T^4+T^3+6*T+6")
    assert f == mk(ctx9, "T+1") * mk(ctx9, "T+3") ** 3
    assert _polys(ctx9, factor._squarefree_parts(ctx9, f.coeffs)) == \
        [(mk(ctx9, "T+1"), 1), (mk(ctx9, "T+3"), 3)]
    assert roots == [(list(mk(ctx9, "T^3+6").coeffs), list(mk(ctx9, "T+3").coeffs))]
    assert _shape(poly_factor(f)) == [("T+1", 1), ("T+3", 3)]


def test_squarefree_input_costs_one_gcd(ctx3, ctx9, mk, monkeypatch):
    """A squarefree f leaves the decomposition after gcd(f, f') = 1, with no
    division, and with no gcd at all when f' is a constant (T^3+2*T+1 over
    F_3); a repeated factor still runs the loop."""
    for ctx, text, gcds in ((ctx3, "T^3+2*T+1", 0), (ctx3, "T^3+2*T^2+2*T", 1),
                            (ctx3, "T^3+2*T", 0), (ctx9, "T^2+T+3", 1)):
        f = mk(ctx, text)
        counting = CountingKernel(ctx.kernel)
        monkeypatch.setattr(ctx, "kernel", counting)
        assert factor._squarefree_parts(ctx, f.coeffs) == [(f.coeffs, 1)]
        assert (counting.calls["pgcd"], counting.calls["pdivrem"]) == (gcds, 0), text
        monkeypatch.undo()
    counting = CountingKernel(ctx3.kernel)
    monkeypatch.setattr(ctx3, "kernel", counting)
    f = mk(ctx3, "T+1") ** 2 * mk(ctx3, "T^2+1")
    assert _polys(ctx3, factor._squarefree_parts(ctx3, f.coeffs)) == \
        [(mk(ctx3, "T^2+1"), 1), (mk(ctx3, "T+1"), 2)]
    assert counting.calls["pgcd"] > 1 and counting.calls["pdivrem"] > 0


def test_squarefree_parts_take_no_constant_operand(ctx3, ctx9, mk, monkeypatch):
    """Once the repeated part g is 1, or shares nothing with h, h is the last
    part of the round: no division by a constant and no gcd with a constant
    operand, f' included. Over F_3, (T+1)**2 * (T^2+1) leaves g = 1; over
    F_9, (T+1) * (T+3)**3 leaves g = (T+3)**3 coprime to h = T+1, and then
    the cube root T+3, whose derivative is 1."""
    for ctx, f, parts in (
            (ctx3, mk(ctx3, "T+1") ** 2 * mk(ctx3, "T^2+1"), [("T^2+1", 1), ("T+1", 2)]),
            (ctx9, mk(ctx9, "T+1") * mk(ctx9, "T+3") ** 3, [("T+1", 1), ("T+3", 3)])):
        counting = CountingKernel(ctx.kernel)
        monkeypatch.setattr(ctx, "kernel", counting)
        assert [(str(g), m) for g, m in _polys(ctx, factor._squarefree_parts(ctx, f.coeffs))] \
            == parts
        monkeypatch.undo()
        assert counting.calls["pgcd"] > 0 and counting.calls["pdivrem"] > 0
        assert all(len(b) > 1 for _, b in counting.args["pdivrem"]), f
        assert all(min(len(a), len(b)) > 1 for a, b in counting.args["pgcd"]), f


def test_factoring_matches_the_poly_level_references(ctx3, ctx5, ctx9):
    """Every monic polynomial of degree <= 6 over F_3, <= 4 over F_5 and
    <= 3 over F_9, and g * f**2 and g * f**3 for every monic f of degree
    1 or 2 and monic g of degree <= 1: the squarefree decomposition, the
    factorization and its product equal those of the Poly-level references."""
    cases = 0
    for ctx, top in ((ctx3, 6), (ctx5, 4), (ctx9, 3)):
        inputs = [f for d in range(1, top + 1) for f in monic_of_degree(ctx, d)]
        inputs += [g * f ** k for d in (1, 2) for f in monic_of_degree(ctx, d)
                   for g in itertools.chain(monic_of_degree(ctx, 0), monic_of_degree(ctx, 1))
                   for k in (2, 3)]
        for f in inputs:
            assert _polys(ctx, factor._squarefree_parts(ctx, f.coeffs)) == \
                poly_squarefree_decomposition(f), f
            fz = poly_factor(f)
            assert fz == reference_factorization(f), f
            assert fz.product(ctx) == poly_power_product(ctx, fz) == f, f
            cases += 1
    # 1092 + 780 + 819 monic polynomials, and 2 * (q + q**2) * (q + 1)
    # products: 96, 360 and 1800
    assert cases == 1092 + 780 + 819 + 96 + 360 + 1800


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


def _roundtrip_draws(ctx, count, max_degree, rng):
    """The polynomials suite_factor_roundtrip draws from rng."""
    out = []
    for _ in range(count):
        d = rng.randint(1, max_degree)
        coeffs = [rng.randrange(ctx.q) for _ in range(d)]
        coeffs.append(rng.randrange(1, ctx.q))
        out.append(Poly(ctx, coeffs))
    return out


def test_roundtrip_proves_each_distinct_prime_once(ctx3, ctx9, monkeypatch):
    """One suite_factor_roundtrip call runs Ben-Or once per distinct prime
    of its samples' factorizations, though most primes recur."""
    for ctx in (ctx3, ctx9):
        draws = _roundtrip_draws(ctx, 300, 8, random.Random(35))
        held = [pp.prime for f in draws for pp in poly_factor(f).factors]
        proven: Counter = Counter()

        def counting(f):
            proven[f] += 1
            return poly_is_irreducible(f)

        monkeypatch.setattr(selfcheck, "poly_is_irreducible", counting)
        result = suite_factor_roundtrip(ctx, 300, 8, random.Random(35))
        monkeypatch.undo()
        assert result.passed and result.cases == 300
        assert proven == Counter(set(held)) and len(proven) < len(held) / 2, ctx.q


def test_roundtrip_reports_a_bad_prime_in_every_sample(ctx3, mk, monkeypatch):
    """A prime the test calls reducible is proven once, but every sample
    that holds it gets its own failure line, in draw order."""
    line = mk(ctx3, "T+1")
    asked = []

    def refusing(f):
        asked.append(f)
        return f != line and poly_is_irreducible(f)

    monkeypatch.setattr(selfcheck, "poly_is_irreducible", refusing)
    result = suite_factor_roundtrip(ctx3, 300, 8, random.Random(35))
    draws = _roundtrip_draws(ctx3, 300, 8, random.Random(35))
    expected = [f"{f}: bad prime T+1" for f in draws
                if line in {pp.prime for pp in poly_factor(f).factors}]
    assert result.failures == expected and len(expected) > 50
    assert asked.count(line) == 1


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
    and its remainder mod f (q >= deg f, every other case)."""
    ctx = {3: ctx3, 5: ctx5}[q]
    rng = random.Random(q)
    checked = 0
    for d in range(1, 5):
        for f in monic_of_degree(ctx, d):
            table = frobenius_table(ctx, f.coeffs)
            assert len(table) == d
            hs = list(all_polys_below(ctx, d))
            if q == 5:
                hs = rng.sample(hs, min(16, len(hs)))
            for h in hs:
                assert list(ctx.kernel.papply(table, h.coeffs)) == \
                    list(poly_powmod(h, q, f).coeffs), (f, h)
                for k in range(1, d + 1):
                    assert list(ctx.kernel.pnorm(table, h.coeffs, k)) == \
                        list(poly_powmod(h, (q ** k - 1) // (q - 1), f).coeffs), (f, h, k)
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
            rows = table_rows(kernel, frobenius_table(ctx, f.coeffs))
            assert rows == list_frobenius_rows(kernel, f.coeffs), f
            primes = [pp.prime for pp in poly_factor(f).factors]
            for g in primes + [f // p for p in primes if (f // p).degree >= 1]:
                reduced = [kernel.prem(r, g.coeffs) for r in rows[:g.degree]]
                assert reduced == table_rows(kernel, frobenius_table(ctx, g.coeffs)), (f, g)


def test_the_field_keeps_each_table(mk, monkeypatch):
    """A second Ben-Or test or residue symbol on a modulus reads the table
    the field kept from the first call on it, whichever of the two came
    first: one build per modulus."""
    ctx = field_create(3)
    counting = CountingKernel(ctx.kernel)
    monkeypatch.setattr(ctx, "kernel", counting)
    r, s = mk(ctx, "T^3+2*T+1"), mk(ctx, "T^2+1")
    assert poly_is_irreducible(r) and poly_is_irreducible(r) and poly_is_irreducible(2 * r)
    assert counting.calls["ptable"] == 1
    assert residue_symbol(var_T(ctx), r) == residue_symbol(var_T(ctx), r)
    assert counting.calls["ptable"] == 1
    first = residue_symbol(mk(ctx, "T+1"), s)
    assert residue_symbol(mk(ctx, "T+1"), s) == first and poly_is_irreducible(s)
    assert counting.calls["ptable"] == 2
    assert [tuple(m) for (m,) in counting.args["ptable"]] == [r.coeffs, s.coeffs]
    assert frobenius_table(ctx, r.coeffs) is frobenius_table(ctx, list(r.coeffs))
    assert counting.calls["ptable"] == 2


def test_ben_or_and_factoring_build_one_table_per_prime(mk, monkeypatch):
    """poly_is_irreducible and poly_factor on one prime f of degree >= 2
    build exactly one table between them, in either order and for any
    leading coefficient: both take f's distinct-degree parts on the table
    the field keeps. A line builds none."""
    ctx = field_create(3)
    counting = CountingKernel(ctx.kernel)
    monkeypatch.setattr(ctx, "kernel", counting)
    built = 0
    for text, ben_or_first in (("T^2+1", True), ("T^3+2*T+1", False), ("T^4+T+2", True)):
        f = mk(ctx, text)
        if ben_or_first:
            assert poly_is_irreducible(2 * f), text
        assert _shape(poly_factor(f)) == [(text, 1)]
        assert poly_is_irreducible(2 * f), text
        built += 1
        assert counting.calls["ptable"] == built, text
        assert tuple(counting.args["ptable"][-1][0]) == f.coeffs, text
    for text in ("T+2", "2*T+1"):
        assert poly_is_irreducible(mk(ctx, text))
        assert poly_factor(mk(ctx, text)).factors[0].prime == mk(ctx, "T+2")
    assert counting.calls["ptable"] == built


def test_the_kept_tables_stay_within_the_bound(monkeypatch):
    """When a new table would take the total deg**2 of the kept tables past
    TABLE_COEFFS, the field drops the least recently used tables until it
    fits; a table past the bound on its own is never kept and drops none.
    The running total is always the sum over the kept tables."""
    monkeypatch.setattr(factor, "TABLE_COEFFS", 20)
    ctx = field_create(5)

    def kept(m):
        table = frobenius_table(ctx, m)
        assert ctx.table_coeffs == sum((len(k) - 1) ** 2 for k in ctx.tables) <= 20
        return table

    square = kept((1, 0, 1))
    cubic = kept((1, 1, 0, 1))
    assert kept([1, 0, 1]) is square
    kept((2, 0, 1))
    assert list(ctx.tables) == [(1, 1, 0, 1), (1, 0, 1), (2, 0, 1)]
    assert ctx.table_coeffs == 9 + 4 + 4
    kept((1, 2, 0, 1))  # 17 + 9 > 20: the cubic was used longest ago
    assert list(ctx.tables) == [(1, 0, 1), (2, 0, 1), (1, 2, 0, 1)]
    assert kept((1, 0, 1)) is square
    assert kept((1, 1, 0, 1)) is not cubic  # 17 + 9 > 20: drops two
    assert list(ctx.tables) == [(1, 0, 1), (1, 1, 0, 1)] and ctx.table_coeffs == 13
    big = kept((1, 0, 0, 0, 0, 1))  # 25 > 20 alone
    assert list(ctx.tables) == [(1, 0, 1), (1, 1, 0, 1)] and ctx.table_coeffs == 13
    assert len(big) == 5 and kept((1, 0, 0, 0, 0, 1)) is not big


def test_a_table_used_since_the_last_eviction_survives_the_next():
    """With the real bound: two tables of degree 40 and one of degree 30
    pass TABLE_COEFFS = 4096 (1600 + 1600 + 900), so the third drops one,
    the one not read since the first was read again."""
    assert factor.TABLE_COEFFS == 4096
    ctx = field_create(3)
    first, second, third = ([c] + [0] * (n - 1) + [1] for c, n in ((1, 40), (2, 40), (1, 30)))
    kept = frobenius_table(ctx, first)
    frobenius_table(ctx, second)
    assert frobenius_table(ctx, first) is kept
    frobenius_table(ctx, third)
    assert list(ctx.tables) == [tuple(first), tuple(third)]
    assert frobenius_table(ctx, first) is kept


def test_frobenius_table_is_the_one_place_a_table_is_built():
    """Outside the kernels, a ptable call appears only inside
    frobenius_table, so every table is one the field keeps."""
    package = Path(qcff.__file__).parent
    sources = {}
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix()
        text = path.read_text(encoding="utf-8")
        if not name.startswith("_kernels/") and ".ptable(" in text:
            sources[name] = text
    assert list(sources) == ["algebra/factor.py"]
    text = sources["algebra/factor.py"]
    owner = next(ast.get_source_segment(text, node) for node in ast.parse(text).body
                 if isinstance(node, ast.FunctionDef) and node.name == "frobenius_table")
    assert text.count(".ptable(") == owner.count(".ptable(") == 1


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
            split = factor._distinct_degree_parts(ctx3, f.coeffs)
            assert sorted((d, tuple(g)) for g, d in split) == \
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
            parts = _polys(ctx, factor._distinct_degree_parts(ctx, f.coeffs))
            assert parts == rereducing_distinct_degree_split(f), f
            assert len(parts) >= 3, f
            tested.append(f)
    tested += [p for found in primes.values() for p in found]
    tested += [_random_monic(ctx, rng.randrange(1, 9), rng) for _ in range(40)]
    tested += [p * p for p in primes[2]]
    verdicts = set()
    for f in tested:
        ben_or = poly_is_irreducible(f)
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
                split = factor._equal_degree_parts(ctx, f.coeffs, d)
                assert [Poly(ctx, g) for g in split] == powmod_equal_degree_split(f, d), (f, d)
                cases += 1
    # C(n, 2) + C(n, 3) products from n primes: 4 for n = 3 (F_3 has three
    # primes of degree 1 and three of degree 2), 20, 56 and 84 for 5, 7, 8
    assert cases == {3: 4 + 4 + 84 + 84, 5: 20 + 3 * 84, 7: 56 + 3 * 84, 9: 4 * 84}[q]


def test_equal_degree_split_refuses_what_it_cannot_split(ctx3):
    """An input that is not a product of degree-d primes raises ValueError,
    where the draws went on forever: T^2+1 is prime over F_3, no line; T is
    a line, not a product of quadratics; T^3+T+1 has degree 3, no multiple
    of 2. Valid input gets the same primes, as in the tests above."""
    for f, d in (([1, 0, 1], 1), ([0, 1], 2), ([1, 1, 0, 1], 2)):
        with pytest.raises(ValueError):
            factor._equal_degree_parts(ctx3, f, d)
    assert factor._equal_degree_parts(ctx3, [2, 0, 1], 1) == [[1, 1], [2, 1]]


def test_frobenius_apply_rejects_unreduced_input(ctx3, mk):
    table = frobenius_table(ctx3, mk(ctx3, "T^2+1").coeffs)
    with pytest.raises(ValueError):
        ctx3.kernel.papply(table, mk(ctx3, "T^2").coeffs)
    with pytest.raises(ValueError):
        ctx3.kernel.pnorm(table, mk(ctx3, "T^2").coeffs, 2)
    with pytest.raises(ValueError):
        ctx3.kernel.pnorm(table, mk(ctx3, "T").coeffs, 0)


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
