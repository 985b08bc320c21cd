from __future__ import annotations

import random

import pytest

from qcff.algebra import (
    Poly,
    monic_irreducibles,
    poly_factor,
    poly_is_irreducible,
    poly_phi,
    var_T,
)
from qcff.algebra.factor import squarefree_decomposition
from qcff.errors import ConstantInput, ValidationError
from qcff.selfcheck import suite_phi_bruteforce


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


def test_factor_is_deterministic_given_seed(ctx3, mk):
    f = mk(ctx3, "T^6+T^4+2*T^2+T+1")
    a = poly_factor(f, random.Random(7))
    b = poly_factor(f, random.Random(7))
    assert a == b


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
    from qcff.algebra import PrimePower
    t = var_T(ctx3)
    with pytest.raises(ValidationError):
        poly_phi(ctx3, [PrimePower.make(t, 1), PrimePower.make(t, 2)])
