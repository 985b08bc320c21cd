"""Property tests at the input boundary: parse_poly, parse_config, main()
and every library entry that takes a polynomial.

Every input either succeeds or fails with a documented error: the parsers
raise only ConfigError (exit 2) or ValidationError (exit 3), main() returns
0, 2 or 3 for `report` and `factor`, and an accepted config renders to the
same bytes twice. A library entry given a non-Poly, or a Poly of another
field, where it takes a polynomial raises ValidationError. Inputs stay small
(p <= 9, degree <= 4 in the polynomials that reach the mathematics, at most
3 pairs) and the examples are derandomized, so a run is fast and the same
every time.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from qcff.algebra import (
    Poly,
    field_create,
    format_poly,
    monic_irreducibles,
    one,
    parse_poly,
    poly_cmp,
    poly_factor,
    poly_gcd,
    poly_is_irreducible,
    poly_powmod,
)
from qcff.cli import main
from qcff.config import parse_config
from qcff.cyclotomic import conductor_create
from qcff.errors import ConfigError, ValidationError
from qcff.kummer import pair_formal_sum, pairset_create, reduce_fraction
from qcff.limits import MAX_DEGREE
from qcff.symbols import check_reciprocity, jacobi_symbol, residue_symbol, symbol_dlog

FIELDS = {3: field_create(3), 5: field_create(5), 7: field_create(7),
          9: field_create(3, 2, [1, 0, 1])}
FIELD_KEYS = {3: {"p": 3}, 5: {"p": 5}, 7: {"p": 7}, 9: {"p": 3, "e": 2, "modulus": "T^2+1"}}
PRIMES = {q: list(monic_irreducibles(ctx, 2)) for q, ctx in FIELDS.items()}

# Terms of the polynomial syntax, of degree <= 4, with some malformed ones.
_TERMS = st.one_of(
    st.integers(0, 9).map(str),
    st.integers(0, 4).map(lambda k: f"T^{k}"),
    st.tuples(st.integers(0, 9), st.integers(0, 4)).map(lambda ck: f"{ck[0]}*T^{ck[1]}"),
    st.sampled_from(["T", " T ", "", "T^", "*T", "2**T", "x", "-1", "T^-1", "1e3",
                     "٣", "T^٢", "T^00004"]),
)
POLY_TEXTS = st.lists(_TERMS, min_size=1, max_size=4).map("+".join)
# Well-formed text of degree <= 4 with coefficients in every field.
WELL_FORMED = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4))
                       .map(lambda ck: f"{ck[0]}*T^{ck[1]}"), min_size=1, max_size=5).map("+".join)
POLY_VALUES = st.one_of(
    POLY_TEXTS,
    st.lists(st.integers(0, 9), max_size=5),
    st.sampled_from([None, True, 3, -1, 1.5, [True], [-1], [[0]], {}]),
)

_ANY_FIELD_KEYS = st.one_of(
    st.sampled_from([{"p": 3}, {"p": 5}, {"p": 7}, {"p": 3, "e": 2, "modulus": "T^2+1"},
                     {"p": 3, "e": 2, "modulus": "T^2+2"}, {"p": 3, "e": 2},
                     {"p": 3, "modulus": "T+1"}, {"p": 9}, {"p": 2}, {"p": 1},
                     {"p": True}, {"p": 3, "e": 0}, {}]),
    POLY_VALUES.map(lambda m: {"p": 3, "e": 2, "modulus": m}),
)
_OPTIONS = st.fixed_dictionaries({}, optional={
    "validate_primality": st.booleans(),
    "emit_a_pq": st.booleans(),
    "run_oracles": st.booleans(),
    "a_pq_term_cap": st.integers(0, 3000),
})
_CONDUCTORS = st.one_of(
    POLY_VALUES.map(lambda f: {"poly": f}),
    st.lists(st.tuples(POLY_VALUES, st.integers(0, 2)).map(list), max_size=3)
    .map(lambda fs: {"factors": fs}),
    st.sampled_from([{}, {"poly": "T", "factors": []}, {"factors": [["T"]]}, []]),
)
_BAD_PAIRS = st.sampled_from([[], ["T"], ["T", "T+1", "T"], "T", None, ["T", [3]]])
_REST = st.fixed_dictionaries({"conductor": _CONDUCTORS}, optional={
    "pairs": st.one_of(st.lists(st.one_of(st.lists(POLY_VALUES, min_size=2, max_size=2),
                                          _BAD_PAIRS), max_size=3), POLY_VALUES),
    "rng_seed": st.integers(0, 3),
    "options": _OPTIONS,
    "schema_version": st.sampled_from([1, 2]),
})


@st.composite
def _towers(draw):
    """Configs that mostly pass: conductor primes of degree <= 2, pairs of them."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    primes = draw(st.lists(st.sampled_from(PRIMES[q]), min_size=1, max_size=3, unique=True))
    exps = draw(st.lists(st.integers(1, 2), min_size=len(primes), max_size=len(primes)))
    if draw(st.booleans()):
        conductor = {"factors": [[format_poly(f), r] for f, r in zip(primes, exps)]}
    else:
        product = one(FIELDS[q])
        for f, r in zip(primes, exps):
            product = product * f ** r
        conductor = {"poly": format_poly(product)}
    texts = st.sampled_from(primes).map(format_poly)
    pair = st.lists(texts, min_size=2, max_size=2)
    pairs = draw(st.lists((pair | _BAD_PAIRS) if draw(st.booleans()) else pair, max_size=3))
    return {**FIELD_KEYS[q], "conductor": conductor, "pairs": pairs,
            "options": draw(_OPTIONS)}


CONFIGS = st.one_of(_towers(),
                    st.builds(lambda field, rest: {**field, **rest}, _ANY_FIELD_KEYS, _REST))

# Any JSON value whose objects may use the config's own keys.
_KEYS = st.sampled_from(["p", "e", "modulus", "rng_seed", "conductor", "poly", "factors",
                         "pairs", "options", "schema_version", "emit_a_pq", "x"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 9) | st.just(1.5) | POLY_TEXTS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


def _run_main(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(q=st.sampled_from(sorted(FIELDS)),
       text=st.one_of(POLY_TEXTS, st.text(max_size=12),
                      st.integers(MAX_DEGREE - 2, 10 ** 9).map(lambda k: f"T^{k}+1")))
def test_parse_poly_raises_only_config_or_validation_errors(q, text):
    ctx = FIELDS[q]
    try:
        f = parse_poly(ctx, text)
    except (ConfigError, ValidationError):
        return
    assert f.degree <= MAX_DEGREE
    assert parse_poly(ctx, format_poly(f)) == f


@settings(max_examples=400, derandomize=True, deadline=None)
@given(raw=st.one_of(CONFIGS, JSON_VALUES))
def test_parse_config_raises_only_config_or_validation_errors(raw):
    try:
        parse_config(raw)
    except (ConfigError, ValidationError):
        pass


@settings(max_examples=150, derandomize=True, deadline=None)
@given(raw=CONFIGS, fmt=st.sampled_from(["json", "text"]), cyclotomic_only=st.booleans())
def test_main_report_exits_0_2_or_3_and_repeats_its_bytes(raw, fmt, cyclotomic_only):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["report", "--config", str(path), "--format", fmt]
        if cyclotomic_only:
            argv.append("--cyclotomic-only")
        code, out = _run_main(argv)
        assert code in (0, 2, 3), raw
        if code == 0:
            assert out and _run_main(argv) == (0, out), raw


@settings(max_examples=150, derandomize=True, deadline=None)
@given(q=st.one_of(st.sampled_from(sorted(FIELDS)), st.integers(-1, 9)),
       poly=st.one_of(WELL_FORMED, POLY_TEXTS),
       modulus=st.one_of(st.none(), st.just("T^2+1"), POLY_TEXTS))
def test_main_factor_exits_0_2_or_3_and_repeats_its_bytes(q, poly, modulus):
    argv = ["factor", f"--q={q}", f"--poly={poly}"]
    if modulus is not None:
        argv.append(f"--modulus={modulus}")
    code, out = _run_main(argv)
    assert code in (0, 2, 3), argv
    if code == 0:
        assert out and _run_main(argv) == (0, out), argv


# -- every Poly parameter of the library's public entries -------------------------

_F3 = FIELDS[3]
_T, _T1, _T2_1 = (parse_poly(_F3, text) for text in ("T", "T+1", "T^2+1"))
_M = _T * _T1 * _T2_1
_COND = conductor_create(_F3, _M)
# Each entry is called with its valid Poly arguments, over F_3, in order.
POLY_ENTRIES = {
    "poly_gcd": (poly_gcd, (_T, _T1)),
    "poly_powmod": (lambda a, m: poly_powmod(a, 5, m), (_T, _T2_1)),
    "poly_cmp": (poly_cmp, (_T, _T1)),
    "format_poly": (format_poly, (_T,)),
    "poly_is_irreducible": (poly_is_irreducible, (_T2_1,)),
    "poly_factor": (poly_factor, (_M,)),
    "residue_symbol": (residue_symbol, (_T1, _T2_1)),
    "jacobi_symbol": (jacobi_symbol, (_T1, _T2_1)),
    "symbol_dlog": (symbol_dlog, (_T1, _T2_1)),
    "check_reciprocity": (check_reciprocity, (_T1, _T2_1)),
    "pairset_create": (lambda a, b: pairset_create(_COND, [(a, b)]), (_T, _T1)),
    "reduce_fraction": (reduce_fraction, (_T, _T2_1)),
    "pair_formal_sum": (pair_formal_sum, (_T, _T1)),
    "conductor_create spec": (lambda m: conductor_create(_F3, m), (_M,)),
    "conductor_create claimed prime": (lambda f: conductor_create(_F3, [(f, 1), (_T1, 2)]),
                                       (_T,)),
    "field_create modulus": (lambda m: field_create(3, 2, m), (_T2_1,)),
}
# Not a Poly of F_3: the last is a Poly of F_5, refused where another argument
# fixes the field, that is by every entry but these three.
NOT_F3_POLYS = [None, 0, 1.5, "T", (), parse_poly(FIELDS[5], "T+1")]
ANY_FIELD = {"format_poly", "poly_factor", "poly_is_irreducible"}


@pytest.mark.parametrize("name,at,bad", [
    (name, at, bad) for name, (_, args) in sorted(POLY_ENTRIES.items())
    for at in range(len(args)) for bad in NOT_F3_POLYS
    if not (name in ANY_FIELD and isinstance(bad, Poly))], ids=repr)
def test_every_poly_parameter_refuses_what_is_not_a_poly_of_its_field(name, at, bad):
    """Valid arguments except one Poly parameter: the call raises a
    ValidationError (BadPair and the other subclasses count), never the
    AttributeError or TypeError of reading the bad value. With none bad it
    returns."""
    call, args = POLY_ENTRIES[name]
    call(*args)
    with pytest.raises(ValidationError):
        call(*args[:at], bad, *args[at + 1:])


@pytest.mark.parametrize("members", NOT_F3_POLYS, ids=repr)
def test_conductor_members_refuse_a_non_sequence_and_skip_any_other_member(members):
    """members change the work, never the Conductor: a value that is no
    sequence raises ValidationError, and a member that is not a Poly of the
    field is passed over, as are the characters of a string and the
    coefficients of a Poly."""
    if members in (None, 0, 1.5):
        with pytest.raises(ValidationError):
            conductor_create(_F3, _M, members=members)
    else:
        assert conductor_create(_F3, _M, members=members) == _COND


@pytest.mark.parametrize("bad", [None, 1.5, "T", (), NOT_F3_POLYS[-1]], ids=repr)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.mod,
                                operator.floordiv, divmod], ids=lambda op: op.__name__)
def test_operators_follow_python_protocol_and_refuse_another_field(op, bad):
    """Any operand that is neither a Poly nor an int gives Python's TypeError,
    from either side; a Poly of another field ValidationError."""
    for left, right in ((_T1, bad), (bad, _T1)):
        with pytest.raises(ValidationError if isinstance(bad, Poly) else TypeError):
            op(left, right)
