from __future__ import annotations

import itertools
import random
from types import MappingProxyType

import pytest

from qcff import report as report_module
from qcff import symbols
from qcff.algebra import (
    monic_irreducibles,
    monic_of_degree,
    one,
    poly_gcd,
    var_T,
    zero,
)
from qcff.algebra.factor import frobenius_table
from qcff.config import parse_config
from qcff.errors import EqualPrimes, NotCoprime, NotMonic, NotPrimeModulus, ValidationError
from qcff.report import run_report
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
        residue_symbol(mk(ctx3, "T+1"), mk(ctx3, "T^3+T"))  # T * (T^2+1)


def _outcome(symbol, *args):
    try:
        return symbol(*args)
    except ValidationError as exc:
        return type(exc)


def test_norm_symbol_matches_powmod_definition(ctx3, ctx5, ctx9):
    """Every monic r of degree <= 3 over F_3 with every a of degree < 3, and
    every monic r of degree <= 2 over F_5 and F_9 with every a of degree < 2:
    the same value or the same exception class as one powmod, with r's table
    built by the symbol and given to it. Reducible r and constant r are
    included."""
    seen: dict[object, int] = {}
    for ctx, top in ((ctx3, 3), (ctx5, 2), (ctx9, 2)):
        upper = list(all_polys_below(ctx, top))
        for d in range(top + 1):
            for r in monic_of_degree(ctx, d):
                table = frobenius_table(r) if d else None
                for a in upper:
                    got = _outcome(residue_symbol, a, r)
                    assert got == _outcome(powmod_residue_symbol, a, r), (a, r)
                    assert _outcome(residue_symbol, a, r, table) == got, (a, r)
                    kind = got if isinstance(got, type) else SymbolValue
                    seen[kind] = seen.get(kind, 0) + 1
    # a reducible r gives values, NotCoprime and NotPrimeModulus
    assert min(seen[SymbolValue], seen[NotCoprime], seen[NotPrimeModulus]) > 0
    assert sum(seen.values()) == 40 * 27 + 31 * 25 + 91 * 81


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
    assert check_reciprocity(var_T(ctx3), mk(ctx3, "T+1")).holds
    assert check_reciprocity(var_T(ctx3), mk(ctx3, "T^2+1")).holds
    assert check_reciprocity(var_T(ctx5), mk(ctx5, "T+1")).holds


def test_reciprocity_rejects_equal_primes(ctx3):
    with pytest.raises(EqualPrimes):
        check_reciprocity(var_T(ctx3), var_T(ctx3))


def test_reciprocity_returns_both_symbols(ctx3, ctx5, ctx9):
    """Every pair of distinct monic primes, F_3 deg <= 3, F_5 and F_9
    deg <= 2: check_reciprocity gives the two residue symbols and the
    verdict of the law, and reads the tables it is given without writing
    to them."""
    for ctx, bound in ((ctx3, 3), (ctx5, 2), (ctx9, 2)):
        primes = list(monic_irreducibles(ctx, bound))
        tables = MappingProxyType({p.coeffs: frobenius_table(p) for p in primes})
        for a, b in itertools.combinations(primes, 2):
            law = check_reciprocity(a, b, tables)
            assert law == check_reciprocity(a, b), (a, b)
            assert law.holds, (a, b)
            assert law.first_over_second == residue_symbol(a, b)
            assert law.second_over_first == residue_symbol(b, a)


def _unbuildable(r):
    raise AssertionError(f"a table of {r} was built")


def test_bad_modulus_raises_before_a_table_is_built(ctx3, mk, monkeypatch):
    monkeypatch.setattr(symbols, "frobenius_table", _unbuildable)
    for r in (zero(ctx3), one(ctx3), mk(ctx3, "2"), mk(ctx3, "2*T+1")):
        with pytest.raises(NotPrimeModulus, match="monic prime"):
            residue_symbol(var_T(ctx3), r)


_FOUR_PAIRS = {
    "p": 3,
    "conductor": {"factors": [["T", 1], ["T+1", 1], ["T+2", 1], ["T^2+1", 1]]},
    "pairs": [["T", "T+1"], ["T", "T^2+1"], ["T+1", "T^2+1"], ["T+1", "T+2"]],
}


class _WalkCountingKernel:
    """A field kernel that records each first-part walk on one of tables."""

    def __init__(self, kernel, tables):
        self.kernel, self.tables, self.walked = kernel, tables, []

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def pwalk(self, table, first):
        if first and any(table is t for t in self.tables):
            self.walked.append(table)
        return self.kernel.pwalk(table, first)


def test_report_builds_one_table_per_pair_prime(monkeypatch):
    """Four pairs over four primes (one of degree 2): the oracle builds one
    Frobenius table per distinct pair member, not one per symbol, and the
    symbols build none of their own. With validate_primality it walks
    Ben-Or once on the table of each one of degree >= 2 (degree 1 needs no
    walk); without it, never."""
    built: dict = {}

    def counting(r):
        built[r.coeffs] = table = frobenius_table(r)
        return table

    monkeypatch.setattr(report_module, "frobenius_table", counting)
    monkeypatch.setattr(symbols, "frobenius_table", _unbuildable)
    for validate in (True, False):
        built.clear()
        cfg = parse_config(dict(_FOUR_PAIRS, options={"validate_primality": validate}))
        kernel = _WalkCountingKernel(cfg.field.kernel, built.values())
        monkeypatch.setattr(cfg.field, "kernel", kernel)
        report = run_report(cfg)
        monkeypatch.setattr(cfg.field, "kernel", kernel.kernel)
        checks = [c for c in report["oracles"]["checks"]
                  if c["name"].startswith("reciprocity")]
        assert len(checks) == 4 and all(c["passed"] for c in checks)
        members = {p.coeffs for pair in cfg.pairs for p in pair}
        assert sorted(built) == sorted(members) and len(members) == 4
        expected = [t for key, t in built.items() if len(key) > 2] if validate else []
        assert kernel.walked == expected and len(expected) == validate


def test_report_raises_when_a_pair_prime_fails_ben_or(monkeypatch):
    monkeypatch.setattr(report_module, "_is_irreducible", lambda f, table: False)
    with pytest.raises(NotPrimeModulus, match="reducible"):
        run_report(parse_config(_FOUR_PAIRS))


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
