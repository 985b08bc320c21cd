from __future__ import annotations

import itertools
import random

import pytest

from qcff import symbols
from qcff.algebra import (
    Poly,
    field_create,
    monic_irreducibles,
    monic_of_degree,
    one,
    poly_gcd,
    var_T,
    zero,
)
from qcff.config import parse_config
from qcff.errors import EqualPrimes, NotCoprime, NotMonic, NotPrimeModulus, ValidationError
from qcff.report import run_report
from qcff.selfcheck import all_polys_below, suite_symbol_euclid
from qcff.symbols import check_reciprocity, jacobi_symbol, residue_symbol, symbol_dlog

from .oracles import powmod_residue_symbol


def test_symbol_examples(ctx3, mk):
    # over F_3, gamma = 2 = -1: the value 1 has dlog 0 and the value 2 dlog 1
    assert residue_symbol(one(ctx3), mk(ctx3, "T^2+1")) == 0
    assert residue_symbol(var_T(ctx3), mk(ctx3, "T+1")) == 1  # T = -1 mod T+1
    assert residue_symbol(var_T(ctx3), mk(ctx3, "T^2+1")) == 0


def test_symbol_rejects_non_polys(ctx3, mk):
    """Either entry not a Poly is a ValidationError at entry, not an
    AttributeError."""
    t, r = var_T(ctx3), mk(ctx3, "T^2+1")
    for a, b in ((t, 5), (t, "T"), (5, r), ("T", r), (None, None)):
        with pytest.raises(ValidationError):
            residue_symbol(a, b)
    assert residue_symbol(t, r) == residue_symbol(mk(ctx3, "T"), r)


def test_symbol_value_carries_consistent_dlog(ctx5, mk):
    """The symbol is a dlog in [0, w) whose power of gamma is the symbol's
    value: T = -1 mod T+1, and (-1)**((5-1)/4) = -1 = 4."""
    s = residue_symbol(var_T(ctx5), mk(ctx5, "T+1"))
    assert 0 <= s < ctx5.w
    assert ctx5.exp[s] == 4


def test_symbol_rejects_noncoprime_and_bad_modulus(ctx3, mk):
    with pytest.raises(NotCoprime):
        residue_symbol(var_T(ctx3), var_T(ctx3))
    with pytest.raises(NotPrimeModulus):
        residue_symbol(one(ctx3), mk(ctx3, "2*T+1"))  # not monic
    with pytest.raises(NotPrimeModulus):
        residue_symbol(mk(ctx3, "T+1"), mk(ctx3, "T^3+T"))  # T * (T^2+1)


def test_symbol_takes_the_upper_entry_from_an_equal_field(ctx3, ctx5, mk):
    """a may belong to another context of r's field, as a % r allows: the
    norm runs on r's kernel, the one that built r's table. An a from
    another field is refused."""
    r, other = mk(ctx3, "T^2+1"), field_create(3)
    assert other is not ctx3 and other.kernel is not ctx3.kernel
    for text in ("T", "T+1", "2*T+2"):
        assert residue_symbol(mk(other, text), r) == residue_symbol(mk(ctx3, text), r), text
    with pytest.raises(ValidationError):
        residue_symbol(mk(ctx5, "T"), mk(ctx3, "T+1"))


def _outcome(symbol, *args):
    try:
        return symbol(*args)
    except ValidationError as exc:
        return type(exc)


def test_norm_symbol_matches_powmod_definition(ctx3, ctx5, ctx9, monkeypatch):
    """Every monic r of degree <= 3 over F_3 with every a of degree < 3, and
    every monic r of degree <= 2 over F_5 and F_9 with every a of degree < 2:
    the same value or the same exception class as one powmod, and a repeat
    call gives the same outcome on the table r's field kept from the first,
    building none. Reducible r and constant r are included."""
    seen: dict[object, int] = {}
    for ctx, top in ((ctx3, 3), (ctx5, 2), (ctx9, 2)):
        upper = list(all_polys_below(ctx, top))
        kernel = _TableKernel(ctx.kernel)
        monkeypatch.setattr(ctx, "kernel", kernel)
        for d in range(top + 1):
            for r in monic_of_degree(ctx, d):
                for a in upper:
                    got = _outcome(residue_symbol, a, r)
                    assert got == _outcome(powmod_residue_symbol, a, r), (a, r)
                    assert (r.coeffs in ctx.tables) == (d > 0), r
                    built = len(kernel.built)
                    assert _outcome(residue_symbol, a, r) == got, (a, r)
                    assert len(kernel.built) == built, (a, r)
                    kind = got if isinstance(got, type) else int
                    if kind is int:
                        assert 0 <= got < ctx.w, (a, r)
                    seen[kind] = seen.get(kind, 0) + 1
        monkeypatch.undo()
    # a reducible r gives values, NotCoprime and NotPrimeModulus
    assert min(seen[int], seen[NotCoprime], seen[NotPrimeModulus]) > 0
    assert sum(seen.values()) == 40 * 27 + 31 * 25 + 91 * 81


def test_symbol_multiplicative_in_upper_entry(ctx3, mk):
    r = mk(ctx3, "T^2+1")
    rng = random.Random(5)
    residues = [a for a in all_polys_below(ctx3, 4)
                if poly_gcd(a, r).degree == 0]
    for _ in range(100):
        a, b = rng.choice(residues), rng.choice(residues)
        lhs = residue_symbol(a * b, r)
        assert ctx3.exp[lhs] == ctx3.kernel.fmul(ctx3.exp[residue_symbol(a, r)],
                                                 ctx3.exp[residue_symbol(b, r)])
        assert lhs == (residue_symbol(a, r) + residue_symbol(b, r)) % ctx3.w


def test_symbol_depends_only_on_residue(ctx3, mk):
    r = mk(ctx3, "T^2+T+2")
    for a in all_polys_below(ctx3, 2):
        if a.is_zero:
            continue
        shifted = a + r * mk(ctx3, "T^2+2*T+1")
        assert residue_symbol(a, r) == residue_symbol(shifted, r)


def test_jacobi_examples(ctx3, mk):
    t = var_T(ctx3)
    # values 2, 1 and 1 over F_3, where gamma = 2
    assert jacobi_symbol(t, mk(ctx3, "T+1") * mk(ctx3, "T+2")) == 1
    assert jacobi_symbol(t, one(ctx3)) == 0
    assert jacobi_symbol(t, mk(ctx3, "T+1") ** 2) == 0


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
    verdict of the law on the tables the field keeps, and the same on a
    fresh field that has kept none."""
    for ctx, bound in ((ctx3, 3), (ctx5, 2), (ctx9, 2)):
        primes = list(monic_irreducibles(ctx, bound))
        for a, b in itertools.combinations(primes, 2):
            law = check_reciprocity(a, b)
            fresh = field_create(ctx.p, ctx.e, ctx.modulus)
            assert law == check_reciprocity(Poly(fresh, a.coeffs), Poly(fresh, b.coeffs)), (a, b)
            assert law.holds, (a, b)
            assert law.first_over_second == residue_symbol(a, b)
            assert law.second_over_first == residue_symbol(b, a)


def _unbuildable(ctx, m):
    raise AssertionError(f"a table of {list(m)} was built")


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


class _TableKernel:
    """A field kernel that records the modulus of each table it builds and
    the table of each first-part walk."""

    def __init__(self, kernel):
        self.kernel, self.built, self.walked = kernel, [], []

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def ptable(self, m):
        self.built.append(tuple(m))
        return self.kernel.ptable(m)

    def pwalk(self, table, first):
        if first:
            self.walked.append(table)
        return self.kernel.pwalk(table, first)


def test_report_builds_one_table_per_pair_prime(monkeypatch):
    """Four pairs over four primes (one of degree 2), with validate_primality
    on and off: the job's field builds exactly one Frobenius table per
    distinct pair member, four, not one per symbol. The one Ben-Or walk of
    the report is conductor_create's proof of the degree-2 claimed prime
    (degree 1 needs no walk), and the oracle's symbols modulo that prime
    read the table the proof built."""
    for validate in (True, False):
        cfg = parse_config(dict(_FOUR_PAIRS, options={"validate_primality": validate}))
        kernel = _TableKernel(cfg.field.kernel)
        monkeypatch.setattr(cfg.field, "kernel", kernel)
        report = run_report(cfg)
        monkeypatch.setattr(cfg.field, "kernel", kernel.kernel)
        checks = [c for c in report["oracles"]["checks"]
                  if c["name"].startswith("reciprocity")]
        assert len(checks) == 4 and all(c["passed"] for c in checks)
        members = {p.coeffs for pair in cfg.pairs for p in pair}
        assert len(kernel.built) == len(members) == 4 and set(kernel.built) == members
        square = (1, 0, 1)  # T^2+1
        assert kernel.built[0] == square
        assert kernel.walked == [cfg.field.tables[square]]


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
