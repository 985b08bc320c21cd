from __future__ import annotations

import random

import pytest

from qcff.algebra import (
    monic_irreducibles,
    one,
    poly_gcd,
    var_T,
    zero,
)
from qcff.errors import EqualPrimes, NotCoprime, NotMonic, NotPrimeModulus
from qcff.selfcheck import all_polys_below
from qcff.symbols import check_reciprocity, jacobi_symbol, residue_symbol


def test_symbol_examples(ctx3, mk):
    assert residue_symbol(one(ctx3), mk(ctx3, "T^2+1")).value == 1
    assert residue_symbol(var_T(ctx3), mk(ctx3, "T+1")).value == 2  # T = -1 mod T+1
    assert residue_symbol(var_T(ctx3), mk(ctx3, "T^2+1")).value == 1


def test_symbol_value_carries_consistent_dlog(ctx5, mk):
    s = residue_symbol(var_T(ctx5), mk(ctx5, "T+1"))
    assert ctx5.exp[s.dlog] == s.value


def test_symbol_rejects_noncoprime_and_bad_modulus(ctx3, mk):
    with pytest.raises(NotCoprime):
        residue_symbol(var_T(ctx3), var_T(ctx3))
    with pytest.raises(NotPrimeModulus):
        residue_symbol(one(ctx3), mk(ctx3, "2*T+1"))  # not monic
    with pytest.raises(NotPrimeModulus):
        residue_symbol(var_T(ctx3), mk(ctx3, "T^2+2"), validate=True)  # reducible


def test_symbol_multiplicative_in_upper_entry(ctx3, mk):
    r = mk(ctx3, "T^2+1")
    rng = random.Random(5)
    residues = [a for a in all_polys_below(ctx3, 4)
                if poly_gcd(a, r).degree == 0]
    for _ in range(100):
        a, b = rng.choice(residues), rng.choice(residues)
        lhs = residue_symbol(a * b, r)
        assert lhs.value == ctx3.kernel.fmul(residue_symbol(a, r).value,
                                             residue_symbol(b, r).value)
        assert lhs.dlog == (residue_symbol(a, r).dlog + residue_symbol(b, r).dlog) % ctx3.w


def test_symbol_depends_only_on_residue(ctx3, mk):
    r = mk(ctx3, "T^2+T+2")
    for a in all_polys_below(ctx3, 2):
        if a.is_zero:
            continue
        shifted = a + r * mk(ctx3, "T^2+2*T+1")
        assert residue_symbol(a, r).value == residue_symbol(shifted, r).value


def test_jacobi_examples(ctx3, mk):
    t = var_T(ctx3)
    assert jacobi_symbol(t, mk(ctx3, "T+1") * mk(ctx3, "T+2")).value == 2
    assert jacobi_symbol(t, one(ctx3)).value == 1
    assert jacobi_symbol(t, mk(ctx3, "T+1") ** 2).value == 1


def test_jacobi_agrees_with_residue_symbol_on_primes(ctx3):
    for r in monic_irreducibles(ctx3, 2):
        for a in all_polys_below(ctx3, 2):
            if a.is_zero or poly_gcd(a, r).degree != 0:
                continue
            assert jacobi_symbol(a, r) == residue_symbol(a, r)


def test_jacobi_rejects_non_monic_lower_entry(ctx3, mk):
    with pytest.raises(NotMonic):
        jacobi_symbol(var_T(ctx3), mk(ctx3, "2*T+1"))
    with pytest.raises(NotMonic):
        jacobi_symbol(var_T(ctx3), mk(ctx3, "2"))
    with pytest.raises(NotMonic):
        jacobi_symbol(var_T(ctx3), zero(ctx3))


def test_jacobi_rejects_noncoprime(ctx3, mk):
    b = mk(ctx3, "T+1")
    with pytest.raises(NotCoprime):
        jacobi_symbol(b, b)
    with pytest.raises(NotCoprime):
        jacobi_symbol(b, var_T(ctx3) * b)


def test_reciprocity_examples(ctx3, ctx5, mk):
    assert check_reciprocity(var_T(ctx3), mk(ctx3, "T+1"))
    assert check_reciprocity(var_T(ctx3), mk(ctx3, "T^2+1"))
    assert check_reciprocity(var_T(ctx5), mk(ctx5, "T+1"))


def test_reciprocity_rejects_equal_primes(ctx3):
    with pytest.raises(EqualPrimes):
        check_reciprocity(var_T(ctx3), var_T(ctx3))
