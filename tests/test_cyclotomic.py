from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcff.cyclotomic as cyclotomic
from qcff.algebra import (
    Poly,
    field_create,
    monic_of_degree,
    one,
    poly_is_irreducible,
    poly_phi,
    var_T,
)
from qcff.algebra.factor import TABLE_COEFFS
from qcff.config import parse_config
from qcff.cyclotomic import (
    conductor_create,
    genus_closed_form,
    genus_riemann_hurwitz,
)
from qcff.errors import (
    ConstantConductor,
    ConstantInput,
    DuplicatePrime,
    NonIntegerGenus,
    NotMonic,
    ReducibleClaimedPrime,
    ValidationError,
)
from qcff.report import run_report
from qcff.selfcheck import count_units, suite_genus_paths

from .oracles import (
    CountingKernel,
    doctored,
    fraction_genus_closed_form,
    fraction_genus_riemann_hurwitz,
)


def test_conductor_from_factored_input(ctx3, mk):
    cond = conductor_create(ctx3, [(var_T(ctx3), 1), (mk(ctx3, "T+1"), 1)])
    assert cond.phi == 4
    assert str(cond.M) == "T^2+T"
    assert cond.degM == 2


def test_conductor_from_unfactored_input(ctx3, mk):
    cond = conductor_create(ctx3, mk(ctx3, "T^2+2*T+1"))
    assert [(str(pp.prime), pp.exp) for pp in cond.factors] == [("T+1", 2)]
    assert cond.phi == 6


def test_factored_conductor_is_its_input(ctx3, mk):
    """A conductor given as a polynomial keeps it as M, not a product of its
    factors rebuilt; the factors still multiply back to it."""
    for text in ("T", "T^2+2*T+1", "T^7+2*T^5+T^4+T^2+2*T", "T^9+T^3+2"):
        spec = mk(ctx3, text)
        cond = conductor_create(ctx3, spec)
        assert cond.M == spec and cond.M is spec
        assert cond.degM == spec.degree
        product = mk(ctx3, "1")
        for pp in cond.factors:
            product = product * pp.prime ** pp.exp
        assert product == spec


def test_conductor_sorts_factors_canonically(ctx3, mk):
    cond = conductor_create(ctx3, [(mk(ctx3, "T^2+1"), 1), (var_T(ctx3), 2)])
    assert [str(pp.prime) for pp in cond.factors] == ["T", "T^2+1"]


def test_conductor_rejections(ctx3, mk):
    with pytest.raises(ReducibleClaimedPrime):
        conductor_create(ctx3, [(mk(ctx3, "T^2+2"), 1)])
    with pytest.raises(NotMonic):
        conductor_create(ctx3, mk(ctx3, "2*T+1"))
    with pytest.raises(NotMonic):
        conductor_create(ctx3, [(mk(ctx3, "2*T"), 1)])
    with pytest.raises(ConstantConductor):
        conductor_create(ctx3, mk(ctx3, "2"))
    with pytest.raises(ConstantConductor):
        conductor_create(ctx3, [])
    with pytest.raises(DuplicatePrime):
        conductor_create(ctx3, [(var_T(ctx3), 1), (var_T(ctx3), 2)])
    with pytest.raises(ConstantInput):
        conductor_create(ctx3, [(mk(ctx3, "1"), 1)])


@pytest.mark.parametrize("exp", [1.9, "2", "x", True, 0], ids=repr)
def test_conductor_exponents_are_ints(ctx3, exp):
    """A claimed exponent is an int >= 1, not a bool or anything int()
    would convert."""
    with pytest.raises(ValidationError):
        conductor_create(ctx3, [(var_T(ctx3), exp)])


@pytest.mark.parametrize("spec", [5, None, [("T", 1)], [(3, 1)], [(None, 1)], "T",
                                  ["T", 1], [((1, 1), 1)], [("T",)], [(None,)], [(1, 1, 1)]],
                         ids=repr)
def test_malformed_claimed_factorizations_rejected(ctx3, spec):
    """A spec that is neither a Poly nor a sequence of (Poly, exponent)
    pairs raises ValidationError, not a bare Python error."""
    with pytest.raises(ValidationError):
        conductor_create(ctx3, spec)


def test_claimed_factor_shapes(ctx3, ctx5):
    t = var_T(ctx3)
    for spec in ([(t,)], [(t, 1, 1)], [t], [(t, 1), t]):
        with pytest.raises(ValidationError):
            conductor_create(ctx3, spec)
    with pytest.raises(ValidationError):
        conductor_create(ctx3, [(var_T(ctx5), 1)])  # a prime of another field
    assert conductor_create(ctx3, [[t, 1]]).M == conductor_create(ctx3, [(t, 1)]).M


def test_only_claimed_primes_are_retested(ctx3, mk, monkeypatch):
    tested = []

    def counting(f):
        tested.append(f)
        return poly_is_irreducible(f)

    monkeypatch.setattr(cyclotomic, "poly_is_irreducible", counting)
    primes = [var_T(ctx3), mk(ctx3, "T+1"), mk(ctx3, "T^2+1"), mk(ctx3, "T^3+2*T+1")]
    m = mk(ctx3, "T^2") * primes[1] * primes[2] * primes[3] ** 2
    from_poly = conductor_create(ctx3, m)
    assert tested == []
    claimed = conductor_create(ctx3, [(pp.prime, pp.exp) for pp in from_poly.factors])
    assert sorted(f.sort_key for f in tested) == sorted(f.sort_key for f in primes)
    assert claimed == from_poly
    # members: Ben-Or runs once on each that divides m, in the order divided
    # out, and on no prime that poly_factor returns for the cofactor
    tested.clear()
    members = [primes[3], primes[1], primes[3], mk(ctx3, "T+2"), mk(ctx3, "2*T+2"),
               mk(ctx3, "1"), m * primes[1], "T", None]
    assert conductor_create(ctx3, m, members=members) == from_poly
    assert tested == [primes[3], primes[1]]


def _first_built_twice(ctx, pairs, m, monkeypatch):
    """The first table that run_report builds twice on the config of the
    unfactored conductor m and pairs, or None; with the moduli of every
    table it built."""
    cfg = parse_config({"p": ctx.p, "conductor": {"poly": str(m)}, "pairs": pairs})
    counting = CountingKernel(cfg.field.kernel)
    monkeypatch.setattr(cfg.field, "kernel", counting)
    run_report(cfg)
    built = [tuple(m) for (m,) in counting.args["ptable"]]
    return next((m for m in built if built.count(m) > 1), None), set(built)


def test_a_report_builds_no_table_twice(mk, monkeypatch):
    """With an unfactored conductor, run_report builds each Frobenius table
    once: the walk runs on the cofactor alone, never on M, and the members'
    tables, built last by their Ben-Or proofs, are the ones the residue
    symbols read (a line's proof builds none; its symbols build it). In
    the second config the cofactor T^63+T^26+2 is prime and its table
    (3,969 coefficients) with the two members' (100 each) passes
    TABLE_COEFFS = 4,096: had the proofs run before the cofactor was
    factored, its table would have dropped the first member's."""
    assert TABLE_COEFFS == 4096
    ctx = field_create(3)
    t, p2, p3 = var_T(ctx), mk(ctx, "T^2+1"), mk(ctx, "T^3+2*T+1")
    pairs = [["T", "T^2+1"], ["T^2+1", "T^3+2*T+1"]]
    twice, built = _first_built_twice(ctx, pairs, t * t * p2 * p3, monkeypatch)
    assert twice is None and built == {t.coeffs, p2.coeffs, p3.coeffs}
    members, cofactor = [mk(ctx, "T^10+2*T^2+1"), mk(ctx, "T^10+2*T^8+1")], mk(ctx, "T^63+T^26+2")
    pairs = [[str(f) for f in members]]
    twice, built = _first_built_twice(ctx, pairs, members[0] * members[1] * cofactor,
                                      monkeypatch)
    assert twice is None and built == {f.coeffs for f in members + [cofactor]}


_HINT_FIELDS = [field_create(3), field_create(5), field_create(3, 2, [1, 0, 1]), field_create(17)]


def _monics(ctx, max_degree: int):
    return st.integers(1, max_degree).flatmap(
        lambda d: st.lists(st.integers(0, ctx.q - 1), min_size=d, max_size=d)).map(
        lambda cs: Poly(ctx, cs + [1]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_members_never_change_the_conductor(data):
    """Over F_3, F_5, F_9 and F_17 the conductor of M with any list of
    members equals the one without: M's primes and their powers, products
    of two of its primes and squares, non-divisors, repeats, constants,
    non-monic members, members of degree above deg M and non-Polys."""
    draw = data.draw
    ctx = draw(st.sampled_from(_HINT_FIELDS), label="field")
    m = one(ctx)
    for f in draw(st.lists(_monics(ctx, 4), min_size=1, max_size=3), label="factors"):
        m = m * f
    plain = conductor_create(ctx, m)
    primes = [pp.prime for pp in plain.factors]
    prime = st.sampled_from(primes)
    member = st.one_of(
        prime,
        st.builds(lambda f, k: f ** k, prime, st.integers(1, 3)),
        st.builds(lambda f, g: f * g, prime, prime),
        _monics(ctx, 3),
        st.integers(0, ctx.q - 1).map(lambda c: Poly(ctx, [c])),
        st.builds(lambda f, c: f.scale(c), prime, st.integers(2, ctx.q - 1)),
        st.builds(lambda f: m * f, prime),
        st.sampled_from([None, 1, "T", (1, 1)]),
    )
    members = draw(st.lists(member, max_size=8), label="members")
    if members:
        members += draw(st.lists(st.sampled_from(members), max_size=3), label="repeats")
    hinted = conductor_create(ctx, m, members=members)
    assert hinted == plain and hinted.M is m
    assert [pp.prime for pp in hinted.factors] == primes


def test_galois_structure_examples(ctx3, mk):
    t = var_T(ctx3)
    gs = conductor_create(ctx3, t).structure
    assert (gs.cyclic_orders, gs.p_part_order, gs.total_order) == ((2,), 1, 2)
    gs = conductor_create(ctx3, t * t).structure
    assert (gs.cyclic_orders, gs.p_part_order, gs.total_order) == ((2,), 3, 6)
    gs = conductor_create(ctx3, t * mk(ctx3, "T^2+1")).structure
    assert (gs.cyclic_orders, gs.p_part_order, gs.total_order) == ((2, 8), 1, 16)


def test_galois_structure_total_is_phi(ctx3):
    for d in range(1, 5):
        for m in monic_of_degree(ctx3, d):
            cond = conductor_create(ctx3, m)
            assert cond.structure.total_order == cond.phi


def test_different_coefficients(ctx3, mk):
    t = var_T(ctx3)
    assert conductor_create(ctx3, t).different.per_prime[0].s == 1
    assert conductor_create(ctx3, t * t).different.per_prime[0].s == 9
    assert conductor_create(ctx3, mk(ctx3, "T^2+1")).different.per_prime[0].s == 7


def test_infinite_place_data(ctx3, mk):
    dd = conductor_create(ctx3, mk(ctx3, "T^2+1")).different
    assert dd.infinite_count == 4  # Phi / (q-1) = 8 / 2
    assert dd.infinite_coefficient == 1  # q - 2


def test_genus_fixtures_both_paths(ctx3, ctx5, mk):
    cases = [
        (ctx3, "T", 0),
        (ctx3, "T^2+T", 0),
        (ctx3, "T^2+1", 2),
        (ctx5, "T", 0),
    ]
    for ctx, text, expected in cases:
        cond = conductor_create(ctx, mk(ctx, text))
        assert genus_closed_form(cond) == expected
        assert genus_riemann_hurwitz(cond) == expected


def test_genus_paths_raise_on_doctored_conductors(ctx3, mk):
    """Each cyclotomic genus path raises NonIntegerGenus for a conductor
    doctored to a non-integral genus and for one doctored to a negative
    genus; the message names the value, which the path's Fraction reference
    gives. M = T(T+1) over F_3: Phi(M) = 4, s = 1 and cofactor 2 at both
    primes, two places at infinity, genus 0."""
    cond = conductor_create(ctx3, mk(ctx3, "T^2+T"))
    extra_place = doctored(cond, different=doctored(
        cond.different, infinite_count=cond.different.infinite_count + 1))
    wide = doctored(cond, phi=10 * cond.phi)
    cases = [
        (genus_closed_form, fraction_genus_closed_form, doctored(cond, phi=cond.phi + 1),
         "closed-form genus evaluated to non-integer -3/4"),
        (genus_closed_form, fraction_genus_closed_form, wide,
         "closed-form genus evaluated to negative genus -27"),
        (genus_riemann_hurwitz, fraction_genus_riemann_hurwitz, extra_place,
         "Riemann-Hurwitz genus evaluated to non-integer 1/2"),
        (genus_riemann_hurwitz, fraction_genus_riemann_hurwitz, wide,
         "Riemann-Hurwitz genus evaluated to negative genus -36"),
    ]
    assert genus_closed_form(cond) == genus_riemann_hurwitz(cond) == 0
    for path, reference, record, message in cases:
        assert message.endswith(f" {reference(record)}")
        with pytest.raises(NonIntegerGenus, match=f"^{message}$"):
            path(record)


def test_genus_zero_for_degree_one_conductors():
    for p in (3, 5, 7):
        ctx = field_create(p)
        for m in monic_of_degree(ctx, 1):
            cond = conductor_create(ctx, m)
            assert genus_closed_form(cond) == 0
            assert genus_riemann_hurwitz(cond) == 0


def test_genus_paths_agree_exhaustively_f5_deg3(ctx5):
    # F_3 up to degree 4 is acceptance criterion 03
    res = suite_genus_paths(ctx5, 3)
    assert res.failures == []
    assert res.cases == 265  # 155 conductors, 110 pairs


def test_phi_divisible_by_w(ctx3, ctx5):
    for ctx in (ctx3, ctx5):
        for d in range(1, 4):
            for m in monic_of_degree(ctx, d):
                assert conductor_create(ctx, m).phi % ctx.w == 0


def test_cofactor_phi_is_phi_of_the_other_factors(ctx3):
    cases = 0
    for d in range(1, 5):
        for m in monic_of_degree(ctx3, d):
            cond = conductor_create(ctx3, m)
            for pp, row in zip(cond.factors, cond.different.per_prime):
                others = [f for f in cond.factors if f is not pp]
                assert row.phi_cofactor == poly_phi(ctx3, others)
                cases += 1
    # sum over primes P of deg P <= d of the 3^(d - deg P) multiples of P
    assert cases == 209


def test_outputs_invariant_under_factor_permutation(ctx3, mk):
    primes = [(var_T(ctx3), 2), (mk(ctx3, "T+1"), 1), (mk(ctx3, "T^2+1"), 1)]
    conds = [conductor_create(ctx3, list(perm))
             for perm in itertools.permutations(primes)]
    base = conds[0]
    for cond in conds[1:]:
        assert cond == base
        assert genus_closed_form(cond) == genus_closed_form(base)
        assert cond.structure == base.structure


def test_phi_consistency_with_bruteforce_on_conductor(ctx3, mk):
    cond = conductor_create(ctx3, mk(ctx3, "T^3+2*T"))
    assert cond.phi == count_units(ctx3, cond.M) == poly_phi(ctx3, cond.factors)
