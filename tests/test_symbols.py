from __future__ import annotations

import random

import pytest

from qcff.algebra import (
    monic_irreducibles,
    monic_of_degree,
    one,
    poly_gcd,
    var_T,
    zero,
)
from qcff.errors import EqualPrimes, NotCoprime, NotMonic, NotPrimeModulus, ValidationError
from qcff.selfcheck import all_polys_below, suite_symbol_euclid
from qcff.symbols import SymbolValue, check_reciprocity, jacobi_symbol, residue_symbol, symbol_dlog

from .oracles import powmod_residue_symbol


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


def _outcome(symbol, a, r, validate):
    try:
        return symbol(a, r, validate=validate)
    except ValidationError as exc:
        return type(exc)


def test_norm_symbol_matches_powmod_definition(ctx3, ctx5, ctx9):
    """Every monic r of degree <= 3 over F_3 with every a of degree < 3, and
    every monic r of degree <= 2 over F_5 and F_9 with every a of degree < 2:
    the same value or the same exception class as one powmod, with and
    without validate. Reducible r and constant r are included."""
    seen: dict[object, int] = {}
    for ctx, top in ((ctx3, 3), (ctx5, 2), (ctx9, 2)):
        upper = list(all_polys_below(ctx, top))
        for d in range(top + 1):
            for r in monic_of_degree(ctx, d):
                for a in upper:
                    for validate in (False, True):
                        got = _outcome(residue_symbol, a, r, validate)
                        assert got == _outcome(powmod_residue_symbol, a, r, validate), \
                            (a, r, validate)
                        kind = got if isinstance(got, type) else SymbolValue
                        seen[kind, validate] = seen.get((kind, validate), 0) + 1
    # without validate a reducible r gives values, NotCoprime and NotPrimeModulus
    assert seen[SymbolValue, False] > seen[SymbolValue, True]
    assert seen[NotCoprime, False] > seen[NotCoprime, True]
    assert seen[NotPrimeModulus, True] > seen[NotPrimeModulus, False] > 0
    assert sum(seen.values()) == 2 * (40 * 27 + 31 * 25 + 91 * 81)


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


def test_euclidean_symbol_matches_powmod_symbols(ctx3, ctx5, ctx9):
    results = [suite_symbol_euclid(ctx3, 3, 4), suite_symbol_euclid(ctx5, 2, 3),
               suite_symbol_euclid(ctx9, 2, 2)]
    assert [r.failures for r in results] == [[], [], []]
    # (sum over deg b <= bound of q^deg b monic b) * q^a_degree residues a
    assert [r.cases for r in results] == [40 * 81, 31 * 125, 91 * 81]


def test_euclidean_symbol_rejects_bad_lower_entry(ctx3, ctx5, mk):
    with pytest.raises(NotMonic):
        symbol_dlog(var_T(ctx3), mk(ctx3, "2*T+1"))
    with pytest.raises(NotMonic):
        symbol_dlog(var_T(ctx3), zero(ctx3))
    with pytest.raises(ValidationError):
        symbol_dlog(var_T(ctx3), mk(ctx5, "T+1"))
