from __future__ import annotations

import functools
import itertools
import math
import random
import re

import pytest

from qcff._kernels import CompiledFieldKernel, PureFieldKernel
from qcff.algebra import (
    Poly,
    enumerate_monic_below,
    field,
    field_create,
    monic_irreducibles,
    monic_of_degree,
    one,
    poly_cmp,
    poly_is_irreducible,
    var_T,
)
from qcff.config import JobConfig, Options
from qcff.cyclotomic import (
    conductor_create,
    genus_closed_form,
    genus_riemann_hurwitz as base_genus_riemann_hurwitz,
)
from qcff.errors import (
    BadPair,
    DuplicatePair,
    NonIntegerGenus,
    OnlySinglePairSupported,
    PairMembersEqual,
    PrimeNotInConductor,
    ValidationError,
    WrongOrientation,
)
from qcff.kummer import (
    genus_hasse_formula,
    genus_riemann_hurwitz,
    pair_formal_sum,
    pairset_create,
    parity_consistency,
    presentation,
    ramification_table,
    raw_term_count,
    reduce_fraction,
)
from qcff.report import run_report
from qcff.selfcheck import suite_genus_paths
from qcff.symbols import jacobi_symbol, residue_symbol

from .oracles import (
    CountingKernel,
    decoded_terms,
    doctored,
    flat_terms,
    fraction_genus_closed_form,
    fraction_genus_hasse_formula,
    fraction_genus_riemann_hurwitz,
    fraction_kummer_genus_riemann_hurwitz,
    index_groups,
    naive_fq_inv,
    naive_fq_mul,
    per_term_formal_sum,
)


def _cond(ctx, *primes_with_exp):
    return conductor_create(ctx, list(primes_with_exp))


def test_pairset_create_and_indices(ctx3, mk):
    t, t1, t2 = var_T(ctx3), mk(ctx3, "T+1"), mk(ctx3, "T+2")
    cond = _cond(ctx3, (t, 1), (t1, 1), (t2, 1))
    ps = pairset_create(cond, [(t, t1)])
    assert ps.pairs == ((t, t1),)
    assert ps.is_paired(t) and ps.is_paired(t1)
    assert not ps.is_paired(t2)


def test_pairset_rejections(ctx3, mk):
    t, t1, t2 = var_T(ctx3), mk(ctx3, "T+1"), mk(ctx3, "T+2")
    cond = _cond(ctx3, (t, 1), (t1, 1))
    with pytest.raises(WrongOrientation):
        pairset_create(cond, [(t1, t)])
    with pytest.raises(DuplicatePair):
        pairset_create(cond, [(t, t1), (t, t1)])
    with pytest.raises(PairMembersEqual):
        pairset_create(cond, [(t, t)])
    with pytest.raises(PrimeNotInConductor):
        pairset_create(cond, [(t, t2)])
    with pytest.raises(ValidationError):
        pairset_create(cond, [])


def test_pairset_rejects_non_polys(ctx3, mk):
    """A pair member that is not a Poly is a ValidationError, not an
    AttributeError."""
    t, t1 = var_T(ctx3), mk(ctx3, "T+1")
    cond = _cond(ctx3, (t, 1), (t1, 1))
    for pair in ((t, "x"), ("T", t1), (t, None), (5, t1)):
        with pytest.raises(ValidationError):
            pairset_create(cond, [pair])
    assert pairset_create(cond, [(t, t1)]).pairs == ((t, t1),)


def test_pairset_rejects_malformed_entries(ctx3, mk):
    """An entry that is not a two-member pair is a ValidationError naming
    the entry, not the TypeError or ValueError of unpacking it; run_report,
    which hands the pair members to conductor_create first, raises the same."""
    t, t1 = var_T(ctx3), mk(ctx3, "T+1")
    cond = _cond(ctx3, (t, 1), (t1, 1))
    for entry in (1, (t, t, t), (t,), None):
        with pytest.raises(ValidationError, match=re.escape(f"got {entry!r}")):
            pairset_create(cond, [entry])
        cfg = JobConfig(field=ctx3, conductor=t * t1, pairs=(entry,), rng_seed=0,
                        options=Options())
        with pytest.raises(ValidationError, match=re.escape(f"got {entry!r}")):
            run_report(cfg)
    assert pairset_create(cond, [[t, t1]]).pairs == ((t, t1),)


def test_formal_sum_frozen_example(ctx3, mk):
    # single (A, B, s) term; the first fraction reduces, the second does not
    fs = pair_formal_sum(var_T(ctx3), mk(ctx3, "T+1"))
    assert fs.raw_terms == 2
    terms = {(str(c.num), str(c.den)): n for c, n in fs.terms}
    assert terms == {("1", "T+1"): 1, ("T+2", "T^2+T"): -1}


def test_formal_sum_raw_term_counts(ctx3, ctx5, mk):
    assert pair_formal_sum(var_T(ctx5), mk(ctx5, "T+1")).raw_terms == 6
    fs = pair_formal_sum(var_T(ctx3), mk(ctx3, "T^2+1"))
    assert fs.raw_terms == raw_term_count(ctx3, 1, 2) == 2 * 1 * 4 * 1


def test_formal_sum_classes_are_canonical(ctx3, mk):
    t = var_T(ctx3)
    q2 = mk(ctx3, "T^2+1")
    den = t * q2
    for cls, coeff in pair_formal_sum(t, q2).terms:
        assert coeff != 0
        assert cls.den.monic and not cls.den.is_constant
        assert cls.num.degree < cls.den.degree
        assert not cls.num.is_zero
        from qcff.algebra import poly_gcd
        assert poly_gcd(cls.num, cls.den).degree == 0
        assert (den % cls.den).is_zero  # denominator divides P*Q


def _formal_sum_by_reduction(p_first, p_second):
    """The formal sum straight from its definition: reduce_fraction on every
    raw term, equal classes summed, zero classes dropped, sorted by poly_cmp
    and grouped by denominator, each numerator kept as its coefficient
    tuple. Returns the groups and the raw term count."""
    ctx = p_first.ctx
    den = p_first * p_second
    acc = {}
    raw = 0
    for a in enumerate_monic_below(ctx, p_second.degree):
        for b in enumerate_monic_below(ctx, p_first.degree):
            for s in range(1, ctx.q - 1):
                c = ctx.exp[-s % ctx.w]
                for num, coeff in ((b * p_second + a.scale(c), s),
                                   (a * p_first + b.scale(c), -s)):
                    raw += 1
                    cls = reduce_fraction(num, den)
                    if cls is not None:
                        acc[cls] = acc.get(cls, 0) + coeff

    def order(x, y):
        return poly_cmp(x[0].den, y[0].den) or poly_cmp(x[0].num, y[0].num)

    terms = sorted(((cls, n) for cls, n in acc.items() if n),
                   key=functools.cmp_to_key(order))
    # one group per denominator in poly_cmp order, P, Q and PQ even if empty
    dens = sorted({p_first, p_second, den} | {cls.den for cls, _ in terms},
                  key=functools.cmp_to_key(poly_cmp))
    groups = tuple((d, tuple((cls.num.coeffs, n) for cls, n in terms if cls.den == d))
                   for d in dens)
    return groups, raw


def _oracle_pairs(ctx3, ctx5, ctx7, ctx9):
    # every oriented pair of at most 100 raw terms, then seeded pairs of
    # 1,040-1,400 raw terms
    for ctx in (ctx3, ctx5, ctx7, ctx9):
        primes = list(monic_irreducibles(ctx, 3 if ctx.q == 3 else 2))
        for a, b in itertools.combinations(primes, 2):
            if raw_term_count(ctx, a.degree, b.degree) <= 100:
                yield a, b
    rng = random.Random(2010)
    for ctx, d_first, d_second in ((ctx3, 3, 4), (ctx5, 2, 3), (ctx9, 2, 2)):
        a = rng.choice([f for f in monic_irreducibles(ctx, d_first) if f.degree == d_first])
        b = rng.choice([f for f in monic_irreducibles(ctx, d_second)
                        if f.degree == d_second and f != a])
        yield (a, b) if poly_cmp(a, b) < 0 else (b, a)


def test_formal_sum_matches_generic_reduction(ctx3, ctx5, ctx7, ctx9):
    big = 0
    for a, b in _oracle_pairs(ctx3, ctx5, ctx7, ctx9):
        fs = pair_formal_sum(a, b)
        groups, raw = _formal_sum_by_reduction(a, b)
        assert fs.groups == index_groups(groups), (a, b)
        assert decoded_terms(fs) == flat_terms(groups), (a, b)
        assert fs.raw_terms == raw == raw_term_count(a.ctx, a.degree, b.degree)
        assert {cls.den for cls, _ in fs.terms} <= {a, b, a * b}
        big += fs.raw_terms > 1000
    assert big == 3


# the per-term oracle's sweep: every oriented pair within the raw-term budget
# over the small fields, then pairs of degree 1 and 2 over F_257 (stride-1
# sums) and F_7^3 (digit-group sums)
SMALL_FIELDS = [(3, 1, None), (5, 1, None), (7, 1, None), (3, 2, [1, 0, 1])]
LARGE_FIELDS = [(257, 1, None), (7, 3, [2, 0, 0, 1])]
PER_TERM_BUDGET = 400


def _per_term_pairs():
    for p, e, mod in SMALL_FIELDS:
        ctx = field_create(p, e, mod)
        d = 1
        while raw_term_count(ctx, 1, d + 1) <= PER_TERM_BUDGET:
            d += 1
        for a, b in itertools.combinations(monic_irreducibles(ctx, d), 2):
            if raw_term_count(ctx, a.degree, b.degree) <= PER_TERM_BUDGET:
                yield a, b
    rng = random.Random(1007)
    for p, e, mod in LARGE_FIELDS:
        ctx = field_create(p, e, mod)
        linear = sorted(rng.sample(list(monic_of_degree(ctx, 1)), 4), key=lambda f: f.sort_key)
        yield from itertools.combinations(linear, 2)
        quadratic = var_T(ctx) * var_T(ctx)
        while not poly_is_irreducible(quadratic):
            quadratic = Poly(ctx, [rng.randrange(ctx.q), rng.randrange(ctx.q), 1])
        yield linear[0], quadratic


def _has_hit(p_first, p_second, a):
    """Whether P | B*Q + gamma^{-s} A for some monic B below deg P and some s."""
    ctx = p_first.ctx
    return any(((b * p_second + a.scale(ctx.exp[-s % ctx.w])) % p_first).is_zero
               for b in enumerate_monic_below(ctx, p_first.degree)
               for s in range(1, ctx.q - 1))


def _first_half_leads(p_first, p_second):
    """How the first half sum finds each hit's lead, counted by Poly
    arithmetic: M = T^j*H + K with j = max(deg Q - deg P, 0), H monic below
    min(deg P, deg Q) and K in F_q^j, and P*M mod Q = r + P*K with
    r = P*T^j*H mod Q. Returns j and the number of (H, K) where P*K has the
    larger degree, where r has (K not 0), where both have one degree, and
    where, of those, the leads cancel."""
    ctx = p_first.ctx
    j = max(p_second.degree - p_first.degree, 0)
    shift = Poly(ctx, [0] * j + [1])
    ks = [Poly(ctx, list(k)) for k in itertools.product(range(ctx.q), repeat=j)]
    counts = [0, 0, 0, 0]
    for h in enumerate_monic_below(ctx, min(p_first.degree, p_second.degree)):
        r = (p_first * shift * h) % p_second
        for k in ks:
            if k.is_zero:
                continue
            pk = p_first * k
            if pk.degree != r.degree:
                counts[pk.degree < r.degree] += 1
            else:
                counts[2] += 1
                counts[3] += (r + pk).degree < r.degree
    return j, counts


@pytest.mark.parametrize("kernel", [
    pytest.param(PureFieldKernel, id="pure"),
    pytest.param(CompiledFieldKernel, id="compiled", marks=pytest.mark.skipif(
        CompiledFieldKernel is None, reason="compiled kernel not built"))])
def test_formal_sum_matches_per_term_loop(kernel, monkeypatch):
    """The enumeration of numerators against the loop that adds every raw
    term by one kernel call, on both kernels."""
    monkeypatch.setattr(field, "FieldKernel", kernel)
    seen = {"deg P = 1": 0, "deg P = deg Q": 0, "A = P has no hit": 0,
            "terms over P or Q": 0, "F_257, deg Q = 2": 0, "F_7^3, deg Q = 2": 0,
            "first half with j >= 2": 0, "deg P*K > deg r": 0, "deg r > deg P*K": 0,
            "deg r = deg P*K": 0, "leads cancel": 0}
    for a, b in _per_term_pairs():
        assert isinstance(a.ctx.kernel, kernel)
        fs = pair_formal_sum(a, b)
        groups = per_term_formal_sum(a, b)
        assert fs.groups == index_groups(groups), (a, b)
        assert decoded_terms(fs) == flat_terms(groups), (a, b)
        assert fs.raw_terms == raw_term_count(a.ctx, a.degree, b.degree)
        seen["deg P = 1"] += a.degree == 1
        seen["deg P = deg Q"] += a.degree == b.degree
        # A = P is monic below deg Q, and P | A leaves no B with P | B*Q + c*A
        seen["A = P has no hit"] += a.degree < b.degree and not _has_hit(a, b, a)
        seen["terms over P or Q"] += any(cls.den in (a, b) for cls, _ in fs.terms)
        seen["F_257, deg Q = 2"] += a.ctx.q == 257 and b.degree == 2
        seen["F_7^3, deg Q = 2"] += a.ctx.q == 343 and b.degree == 2
        j, leads = _first_half_leads(a, b)
        seen["first half with j >= 2"] += j >= 2
        for name, count in zip(("deg P*K > deg r", "deg r > deg P*K", "deg r = deg P*K",
                                "leads cancel"), leads):
            seen[name] += count
    assert all(seen.values()), seen


def test_formal_sum_rejects_bad_pairs(ctx3, mk):
    with pytest.raises(BadPair):
        pair_formal_sum(mk(ctx3, "T+1"), var_T(ctx3))  # wrong orientation
    with pytest.raises(BadPair):
        pair_formal_sum(var_T(ctx3), var_T(ctx3))
    with pytest.raises(BadPair):
        pair_formal_sum(var_T(ctx3), mk(ctx3, "2*T^2+1"))  # not monic
    with pytest.raises(BadPair):
        pair_formal_sum(mk(ctx3, "2"), var_T(ctx3))  # constant
    for second in ("T^2", "T^2+T"):  # gcd with T is T
        with pytest.raises(BadPair):
            pair_formal_sum(var_T(ctx3), mk(ctx3, second))


@pytest.mark.parametrize("other", ["x", None, 1, (1, 1), [0, 1]], ids=repr)
def test_formal_sum_rejects_members_that_are_not_polys(ctx3, other):
    t = var_T(ctx3)
    for pair in ((t, other), (other, t), (other, other)):
        with pytest.raises(BadPair):
            pair_formal_sum(*pair)


# past the benchmark pool's q <= 9: a linear pair over F_257, with numerator
# coefficients and sum coefficients of three digits, and one over F_3^6,
# whose elements are base-3 digit encodings up to 728
_WIDE_PAIRS = {"f257": (257, 1, None, "T+3", "T+250"),
               "f3_6": (3, 6, [2, 1, 0, 0, 0, 0, 1], "T+1", "T+5")}


@pytest.mark.parametrize("args", _WIDE_PAIRS.values(), ids=_WIDE_PAIRS)
def test_formal_sum_over_wide_fields_matches_references(mk, args):
    """The sweep against the per-term loop and the generic reduction."""
    p, e, modulus, first, second = args
    ctx = field_create(p, e, modulus)
    a, b = mk(ctx, first), mk(ctx, second)
    fs = pair_formal_sum(a, b)
    assert fs.raw_terms == raw_term_count(ctx, 1, 1) == 2 * (ctx.q - 2)
    groups, raw = _formal_sum_by_reduction(a, b)
    assert per_term_formal_sum(a, b) == groups
    assert fs.groups == index_groups(groups)
    assert decoded_terms(fs) == flat_terms(groups)
    assert raw == fs.raw_terms
    nums = [num for _, num, _ in flat_terms(groups)]
    assert max(c for num in nums for c in num) >= 100
    assert max(abs(n) for _, _, n in flat_terms(groups)) >= 100
    # every numerator over PQ is linear: its index lies in [q, q^2)
    assert all(ctx.q <= v < ctx.q ** 2 for v, _ in fs.groups[2][1])


class _TablelessKernel:
    """A field kernel that refuses to build a Frobenius table."""

    def __init__(self, kernel):
        self.kernel = kernel

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def ptable(self, *args):
        raise AssertionError("a Frobenius table was built")


def test_formal_sum_builds_no_frobenius_table(mk, monkeypatch):
    """The caller proves the pair prime, so the sum never tables its members.
    The fields are fresh, so no table kept by an earlier test hides a build."""
    for ctx, p_first, p_second in ((field_create(3), "T", "T^2+1"),
                                   (field_create(3, 2, [1, 0, 1]), "T+1", "T^2+T+3")):
        a, b = mk(ctx, p_first), mk(ctx, p_second)
        expected = pair_formal_sum(a, b)
        monkeypatch.setattr(ctx, "kernel", _TablelessKernel(ctx.kernel))
        assert pair_formal_sum(a, b) == expected
        monkeypatch.undo()


@pytest.mark.parametrize("pair, prems", [(("T", "T^4+T+2"), 2), (("T^2+1", "T^2+T+2"), 8)],
                         ids=["j=3", "j=0"])
def test_formal_sum_takes_one_remainder_per_high_part(mk, monkeypatch, pair, prems):
    """Each half sum takes one remainder by Q per monic H below
    min(deg P, deg Q), not one per monic M: for (T, T^4+T+2) over F_3 one
    in each half, where the 27 M = T^3 + K of the first half took 27."""
    ctx = field_create(3)
    a, b = (mk(ctx, f) for f in pair)
    expected = pair_formal_sum(a, b)
    counting = CountingKernel(ctx.kernel)
    monkeypatch.setattr(ctx, "kernel", counting)
    assert pair_formal_sum(a, b) == expected
    assert counting.calls["prem"] == prems


def test_reduce_fraction_class_preserved_randomized(ctx3):
    # [num/den] and its canonical form differ by an element of the ring:
    # den * den' divides num * den' - num' * den; dropped classes are the
    # ones where den | num.
    from qcff.algebra import Poly
    rng = random.Random(17)
    for _ in range(300):
        num = Poly(ctx3, [rng.randrange(3) for _ in range(rng.randint(1, 6))])
        if num.is_zero:
            continue
        den_coeffs = [rng.randrange(3) for _ in range(rng.randint(1, 5))] + [1]
        den = Poly(ctx3, den_coeffs)
        cls = reduce_fraction(num, den)
        if cls is None:
            assert (num % den).is_zero
            continue
        diff = num * cls.den - cls.num * den
        assert (diff % (den * cls.den)).is_zero


def test_reduce_fraction_drops_integral_classes(ctx3, mk):
    t = var_T(ctx3)
    assert reduce_fraction(t * t, t) is None
    # gcd cancels T, then T mod (T+1) = 2
    cls = reduce_fraction(mk(ctx3, "T^2"), mk(ctx3, "T^2+T"))
    assert cls is not None and (str(cls.num), str(cls.den)) == ("2", "T+1")
    # coprime case: only the numerator reduces, T^2 mod (T^2+1) = 2
    cls = reduce_fraction(mk(ctx3, "T^2"), mk(ctx3, "T^2+1"))
    assert cls is not None and (str(cls.num), str(cls.den)) == ("2", "T^2+1")


@pytest.mark.parametrize("ctx", [field_create(3), field_create(3, 2, [1, 0, 1]),
                                 field_create(17)], ids=["F3", "F9", "F17"])
def test_reduce_fraction_makes_the_denominator_monic(ctx):
    """(T+1) / (c*T^2 + c) for every c != 0, 1 is the class of
    (T+1)/c over T^2+1, the inverse of c found by naive products; a
    multiple of the non-monic denominator, 0 included, is a class in A."""
    t = var_T(ctx)
    for c in range(2, ctx.q):
        den = Poly(ctx, [c, 0, c])
        inv = naive_fq_inv(ctx, c)
        cls = reduce_fraction(t + 1, den)
        assert cls.den == t * t + 1
        assert cls.num == Poly(ctx, [inv, inv])
        assert naive_fq_mul(ctx, inv, c) == 1
        assert reduce_fraction((t + 2) * den, den) is None
        assert reduce_fraction(Poly(ctx, []), den) is None


def test_ramification_single_pair_example(ctx3, mk):
    t, t1 = var_T(ctx3), mk(ctx3, "T+1")
    cond = _cond(ctx3, (t, 1), (t1, 1))
    ps = pairset_create(cond, [(t, t1)])
    ram = ramification_table(cond, ps)
    assert ram.row_for(t).vbar == 1 and ram.row_for(t).e == 2
    assert ram.row_for(t1).vbar == 0 and ram.row_for(t1).e == 1
    with pytest.raises(ValidationError, match="T\\+2 has no ramification row"):
        ram.row_for(mk(ctx3, "T+2"))


def test_ramification_matches_direct_symbol_formulas(ctx3, ctx5):
    # two independent code paths for single pairs
    for ctx in (ctx3, ctx5):
        primes = list(monic_irreducibles(ctx, 2))
        for a, b in itertools.combinations(primes, 2):
            cond = _cond(ctx, (a, 1), (b, 1))
            ps = pairset_create(cond, [(a, b)])
            ram = ramification_table(cond, ps)
            e_first = ctx.w // math.gcd(ctx.w, residue_symbol(a, b))
            e_second = ctx.w // math.gcd(ctx.w, residue_symbol(b, a))
            assert ram.e_for(a) == e_first
            assert ram.e_for(b) == e_second


def test_ramification_matches_partner_product_formula(ctx3, ctx5):
    # vbar(L) = dlog jacobi(L over the partners with L first)
    #         - dlog jacobi(L over the partners with L second), mod w,
    # on every pair set of size 2-3 in which some prime is first in one pair
    # and second in another. F_3: every conductor of 3 or 4 distinct primes
    # of degree <= 2; F_5: every one of 3 such primes (its 1,365 four-prime
    # conductors would take about 25 s).
    pair_sets = checks = 0
    for ctx, sizes in ((ctx3, (3, 4)), (ctx5, (3,))):
        primes = list(monic_irreducibles(ctx, 2))
        for k in sizes:
            for chosen in itertools.combinations(primes, k):
                cond = _cond(ctx, *[(p, 1) for p in chosen])
                possible = list(itertools.combinations(chosen, 2))
                for r in (2, 3):
                    for subset in itertools.combinations(possible, r):
                        firsts = {a for a, _ in subset}
                        if not any(b in firsts for _, b in subset):
                            continue
                        pair_sets += 1
                        ram = ramification_table(cond, pairset_create(cond, list(subset)))
                        for row in ram.per_prime:
                            as_first = math.prod([b for a, b in subset if a == row.prime],
                                              start=one(ctx))
                            as_second = math.prod([a for a, b in subset if b == row.prime],
                                              start=one(ctx))
                            expected = (jacobi_symbol(row.prime, as_first)
                                        - jacobi_symbol(row.prime, as_second)) % ctx.w
                            assert row.vbar == expected, (subset, row.prime)
                            checks += 1
    assert (pair_sets, checks) == (1205, 3870)


def test_unpaired_primes_are_unramified(ctx3, mk):
    t, t1, q2 = var_T(ctx3), mk(ctx3, "T+1"), mk(ctx3, "T^2+1")
    cond = _cond(ctx3, (t, 1), (t1, 1), (q2, 1))
    ps = pairset_create(cond, [(t, t1)])
    ram = ramification_table(cond, ps)
    assert ram.row_for(q2).e == 1 and ram.row_for(q2).vbar == 0


def test_ramification_e_divides_w(ctx5, mk):
    t, t1 = var_T(ctx5), mk(ctx5, "T+1")
    cond = _cond(ctx5, (t, 1), (t1, 1))
    ram = ramification_table(cond, pairset_create(cond, [(t, t1)]))
    for row in ram.per_prime:
        assert ctx5.w % row.e == 0 and row.e >= 1


def test_pair_parities_and_radicand(ctx3, mk):
    t, t1, q2 = var_T(ctx3), mk(ctx3, "T+1"), mk(ctx3, "T^2+1")
    cond = _cond(ctx3, (t, 1), (t1, 1), (q2, 1))
    ps = pairset_create(cond, [(t, t1), (t, q2)])
    ram = ramification_table(cond, ps)
    by_pair = {(str(pp.pair[0]), str(pp.pair[1])): pp for pp in ram.pair_parities}
    both_odd = by_pair[("T", "T+1")]
    assert (both_odd.d_first_mod2, both_odd.d_second_mod2) == (1, 1)
    assert both_odd.radicand == t * t1
    mixed = by_pair[("T", "T^2+1")]
    assert (mixed.d_first_mod2, mixed.d_second_mod2) == (1, 0)
    assert mixed.radicand == q2  # odd-degree first member pairs with the second prime


def test_parity_consistency_examples(ctx3, mk):
    t, t1 = var_T(ctx3), mk(ctx3, "T+1")
    # odd * odd: vacuous
    cond = _cond(ctx3, (t, 1), (t1, 1))
    ps = pairset_create(cond, [(t, t1)])
    verdict = parity_consistency(ps, ramification_table(cond, ps))
    assert not verdict.applicable and verdict.passed

    # deg 1 * deg 2: applicable, e agree
    q2 = mk(ctx3, "T^2+1")
    cond = _cond(ctx3, (t, 1), (q2, 1))
    ps = pairset_create(cond, [(t, q2)])
    verdict = parity_consistency(ps, ramification_table(cond, ps))
    assert verdict.applicable and verdict.passed
    assert verdict.e_first == verdict.e_second == 1

    # deg 2 * deg 2
    r2 = mk(ctx3, "T^2+T+2")
    cond = _cond(ctx3, (q2, 1), (r2, 1))
    ps = pairset_create(cond, [(q2, r2)])
    verdict = parity_consistency(ps, ramification_table(cond, ps))
    assert verdict.applicable and verdict.passed


def test_parity_rejects_multi_pair(ctx3, mk):
    t, t1, q2 = var_T(ctx3), mk(ctx3, "T+1"), mk(ctx3, "T^2+1")
    cond = _cond(ctx3, (t, 1), (t1, 1), (q2, 1))
    ps = pairset_create(cond, [(t, t1), (t, q2)])
    with pytest.raises(OnlySinglePairSupported):
        parity_consistency(ps, ramification_table(cond, ps))


def test_presentation_fixture(ctx3, mk):
    t, t1 = var_T(ctx3), mk(ctx3, "T+1")
    cond = _cond(ctx3, (t, 1), (t1, 1))
    ps = pairset_create(cond, [(t, t1)])
    pres = presentation(cond, ps, ramification_table(cond, ps))
    assert pres.epsilon_order == 2
    assert pres.p_part_order == 1
    assert pres.group_order == 8
    orders = {g.name: g.lift_order for g in pres.generators}
    assert orders == {"sigma[T]": 4, "sigma[T+1]": 2}
    assert all(not g.central for g in pres.generators)
    assert len(pres.relations) == 1
    rel = pres.relations[0]
    assert (rel.left, rel.right, rel.epsilon_exponent) == ("sigma[T]", "sigma[T+1]", -1)


def test_pairs_of_another_conductor_name_the_missing_prime(ctx3, mk):
    """Pairs validated against one conductor and read against another that
    lacks a member raise PrimeNotInConductor naming it, not KeyError."""
    t, t1, q2 = var_T(ctx3), mk(ctx3, "T+1"), mk(ctx3, "T^2+1")
    cond = _cond(ctx3, (t, 1), (t1, 1), (q2, 1))
    ps = pairset_create(cond, [(t, t1)])
    cond2 = _cond(ctx3, (t, 1), (q2, 1))
    with pytest.raises(PrimeNotInConductor, match=re.escape("T+1 is not a prime")):
        ramification_table(cond2, ps)
    with pytest.raises(PrimeNotInConductor, match=re.escape("T+1 is not a prime")):
        presentation(cond2, ps, ramification_table(cond, ps))


def test_presentation_unpaired_prime_keeps_base_order(ctx3, mk):
    t, t1, q2 = var_T(ctx3), mk(ctx3, "T+1"), mk(ctx3, "T^2+1")
    cond = _cond(ctx3, (t, 1), (t1, 1), (q2, 1))
    ps = pairset_create(cond, [(t, t1)])
    pres = presentation(cond, ps, ramification_table(cond, ps))
    rows = {g.name: g for g in pres.generators}
    assert rows["sigma[T^2+1]"].lift_order == rows["sigma[T^2+1]"].base_order == 8
    assert rows["sigma[T^2+1]"].central


def test_presentation_invariants_sweep(ctx3):
    for d in range(2, 5):
        for m in monic_of_degree(ctx3, d):
            cond = conductor_create(ctx3, m)
            if len(cond.factors) < 2:
                continue
            names = {pp.prime: f"sigma[{pp.prime}]" for pp in cond.factors}
            for i, j in itertools.combinations(range(len(cond.factors)), 2):
                a, b = cond.factors[i].prime, cond.factors[j].prime
                ps = pairset_create(cond, [(a, b)])
                ram = ramification_table(cond, ps)
                pres = presentation(cond, ps, ram)
                assert pres.group_order == ctx3.w * cond.phi
                declared = {(r.left, r.right) for r in pres.relations}
                assert declared == {(names[a], names[b])}
                for g in pres.generators:
                    row = ram.row_for(g.prime)
                    assert g.lift_order == row.e * g.base_order
                    assert g.central == (g.prime not in (a, b))


def test_quasi_genus_fixture(ctx3, mk):
    t, t1 = var_T(ctx3), mk(ctx3, "T+1")
    cond = _cond(ctx3, (t, 1), (t1, 1))
    ps = pairset_create(cond, [(t, t1)])
    ram = ramification_table(cond, ps)
    base = genus_closed_form(cond)
    assert base == 0
    assert genus_hasse_formula(cond, base, ram) == 0
    assert genus_riemann_hurwitz(cond, base, ram) == 0


def test_quasi_genus_collapses_when_unramified(ctx3, mk):
    # e = 1 everywhere forces g = 1 + w(g_base - 1)
    t, q2 = var_T(ctx3), mk(ctx3, "T^2+1")
    cond = _cond(ctx3, (t, 1), (q2, 1))
    ps = pairset_create(cond, [(t, q2)])
    ram = ramification_table(cond, ps)
    assert all(row.e == 1 for row in ram.per_prime)
    base = genus_closed_form(cond)
    expected = 1 + ctx3.w * (base - 1)
    assert genus_hasse_formula(cond, base, ram) == expected
    assert genus_riemann_hurwitz(cond, base, ram) == expected


def test_quasi_genus_paths_agree_exhaustively_deg4(ctx3):
    # every conductor of degree <= 4 and every admissible pair set (all
    # nonempty subsets of the possible pairs), both paths exactly equal
    for d in range(2, 5):
        for m in monic_of_degree(ctx3, d):
            cond = conductor_create(ctx3, m)
            if len(cond.factors) < 2:
                continue
            base = genus_closed_form(cond)
            possible = [(cond.factors[i].prime, cond.factors[j].prime)
                        for i, j in itertools.combinations(range(len(cond.factors)), 2)]
            for r in range(1, len(possible) + 1):
                for subset in itertools.combinations(possible, r):
                    ps = pairset_create(cond, list(subset))
                    ram = ramification_table(cond, ps)
                    g1 = genus_hasse_formula(cond, base, ram)
                    g2 = genus_riemann_hurwitz(cond, base, ram)
                    assert g1 == g2 and g1 >= 0


def test_quasi_genus_paths_agree_extension_field(ctx9):
    res = suite_genus_paths(ctx9, 3)
    assert res.failures == []
    assert res.cases == 1503


def test_kummer_genus_paths_raise_on_doctored_records(ctx3, mk):
    """Each Kummer genus path raises NonIntegerGenus for a conductor
    doctored to a non-integral genus and for a ramification table doctored
    to a negative one; the message names the value, which the path's
    Fraction reference gives. M = T(T+1) over F_3 with the pair (T, T+1):
    e = 2 at T, 1 at T+1, both genera 0."""
    t, t1 = var_T(ctx3), mk(ctx3, "T+1")
    cond = _cond(ctx3, (t, 1), (t1, 1))
    ram = ramification_table(cond, pairset_create(cond, [(t, t1)]))
    assert [row.e for row in ram.per_prime] == [2, 1]
    rows = cond.different.per_prime
    # cofactor 1 at the ramified T: a different of odd degree
    odd = doctored(cond, different=doctored(
        cond.different, per_prime=(doctored(rows[0], phi_cofactor=1), rows[1])))
    # nothing ramified: g = 1 + w * (0 - 1)
    unramified = doctored(ram, per_prime=tuple(doctored(row, vbar=0, e=1)
                                                for row in ram.per_prime))
    paths = [(genus_hasse_formula, fraction_genus_hasse_formula, "Kummer closed-form genus"),
             (genus_riemann_hurwitz, fraction_kummer_genus_riemann_hurwitz,
              "Kummer Riemann-Hurwitz genus")]
    for path, reference, where in paths:
        assert path(cond, 0, ram) == 0
        for c, r, value in ((odd, ram, "non-integer -1/2"),
                            (cond, unramified, "negative genus -1")):
            assert value.endswith(f" {reference(c, 0, r)}")
            with pytest.raises(NonIntegerGenus, match=f"^{where} evaluated to {value}$"):
                path(c, 0, r)


@pytest.mark.parametrize("field_args, max_degree, cases", [
    ((3,), 4, 222), ((5,), 3, 265), ((3, 2, [1, 0, 1]), 3, 1503)])
def test_integer_genera_equal_fraction_references(field_args, max_degree, cases):
    """The four genus paths, in ints, equal their Fraction references on
    every case of suite_genus_paths' ranges: run_selfcheck's F_3 to degree
    4, and F_5 and F_9 to degree 3 as the tests run it."""
    ctx = field_create(*field_args)
    seen = 0
    for d in range(1, max_degree + 1):
        for m in monic_of_degree(ctx, d):
            cond = conductor_create(ctx, m)
            seen += 1
            base = genus_closed_form(cond)
            assert base == fraction_genus_closed_form(cond)
            assert base_genus_riemann_hurwitz(cond) == fraction_genus_riemann_hurwitz(cond)
            for i, j in itertools.combinations(range(len(cond.factors)), 2):
                ps = pairset_create(cond, [(cond.factors[i].prime, cond.factors[j].prime)])
                ram = ramification_table(cond, ps)
                seen += 1
                assert (genus_hasse_formula(cond, base, ram)
                        == fraction_genus_hasse_formula(cond, base, ram))
                assert (genus_riemann_hurwitz(cond, base, ram)
                        == fraction_kummer_genus_riemann_hurwitz(cond, base, ram))
    assert seen == cases == suite_genus_paths(ctx, max_degree).cases


def test_tower_fixture_with_repeated_prime_power(ctx3, mk):
    # M = T^2 (T+1): s_T = 2*Phi(T^2) - 3 = 9, s_{T+1} = 1,
    # closed form gives g = -9 + 12 + 1 = 4; e_T = 2 stretches the Kummer
    # step to 2g' - 2 = 2*6 + 1*1*1*2 = 14, so g' = 8.
    t, t1 = var_T(ctx3), mk(ctx3, "T+1")
    cond = _cond(ctx3, (t, 2), (t1, 1))
    assert cond.phi == 12
    assert genus_closed_form(cond) == 4
    assert base_genus_riemann_hurwitz(cond) == 4
    ps = pairset_create(cond, [(t, t1)])
    ram = ramification_table(cond, ps)
    assert ram.e_for(t) == 2 and ram.e_for(t1) == 1
    assert genus_hasse_formula(cond, 4, ram) == 8
    assert genus_riemann_hurwitz(cond, 4, ram) == 8
    pres = presentation(cond, ps, ram)
    assert pres.p_part_order == 3
    assert pres.group_order == 24


def test_tower_fixture_over_f9(ctx9, mk):
    # q = 9, w = 8, M = T(T+1): Phi = 64, s = 7 at both primes,
    # g = (7/16 - 1)*64 + (56 + 56)/2 + 1 = 21; T maps to -1 = gamma^4
    # mod T+1, so vbar(T) = 4 and e_T = 2, giving g' = 1 + 8*(20 + 2) = 177.
    t, t1 = var_T(ctx9), mk(ctx9, "T+1")
    cond = _cond(ctx9, (t, 1), (t1, 1))
    assert cond.phi == 64
    assert genus_closed_form(cond) == 21
    ps = pairset_create(cond, [(t, t1)])
    ram = ramification_table(cond, ps)
    assert ram.row_for(t).vbar == 4 and ram.e_for(t) == 2
    assert ram.e_for(t1) == 1
    assert genus_hasse_formula(cond, 21, ram) == 177
    assert genus_riemann_hurwitz(cond, 21, ram) == 177
    pres = presentation(cond, ps, ram)
    assert pres.epsilon_order == 8
    assert pres.group_order == 512
    orders = {g.name: g.lift_order for g in pres.generators}
    assert orders == {"sigma[T]": 16, "sigma[T+1]": 8}


def test_multi_pair_set_full_pipeline(ctx3, mk):
    # three primes, two pairs sharing a prime
    t, t1, t2 = var_T(ctx3), mk(ctx3, "T+1"), mk(ctx3, "T+2")
    cond = _cond(ctx3, (t, 1), (t1, 1), (t2, 1))
    ps = pairset_create(cond, [(t, t1), (t1, t2)])
    ram = ramification_table(cond, ps)
    # combined valuation for the shared prime T+1:
    # dlog(T+1 / T+2) - dlog(T+1 / T)
    lhs = residue_symbol(t1, t2)
    rhs = residue_symbol(t1, t)
    assert ram.row_for(t1).vbar == (lhs - rhs) % ctx3.w
    pres = presentation(cond, ps, ram)
    assert len(pres.relations) == 2
    assert pres.group_order == ctx3.w * cond.phi
    base = genus_closed_form(cond)
    assert genus_hasse_formula(cond, base, ram) == \
        genus_riemann_hurwitz(cond, base, ram)
