from __future__ import annotations

import itertools

import pytest

import qcff.cyclotomic as cyclotomic
from qcff.algebra import field_create, monic_of_degree, poly_is_irreducible, poly_phi, var_T
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
from qcff.selfcheck import count_units, suite_genus_paths

from .oracles import doctored, fraction_genus_closed_form, fraction_genus_riemann_hurwitz


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
