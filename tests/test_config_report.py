from __future__ import annotations

import gc
import hashlib
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcff import config as config_module
from qcff import cyclotomic
from qcff import report as report_module
from qcff.algebra import FieldCtx, field_create, parse_poly, var_T
from qcff.cli import main
from qcff.config import MAX_Q, Options, load_config, parse_config
from qcff.errors import ConfigError, NonPrimeP, ValidationError
from qcff.kummer import pair_formal_sum
from qcff.limits import MAX_DEGREE
from qcff.report import FormalTerms, render_json, render_text, run_report

from .oracles import dict_per_term_formal_sums


def _base_config(**overrides):
    raw = {
        "p": 3,
        "conductor": {"factors": [["T", 1], ["T+1", 1]]},
        "pairs": [["T", "T+1"]],
    }
    raw.update(overrides)
    return raw


def test_parse_config_defaults():
    cfg = parse_config(_base_config())
    ctx = cfg.field
    assert (ctx.p, ctx.e, cfg.rng_seed) == (3, 1, 0)
    assert cfg.options == Options()
    t, t1 = parse_poly(ctx, "T"), parse_poly(ctx, "T+1")
    assert cfg.conductor == ((t, 1), (t1, 1))
    assert cfg.pairs == ((t, t1),)


def test_parse_config_schema_rejections():
    bad_cases = [
        {},                                        # missing everything
        {"p": 3},                                  # missing conductor
        _base_config(p="3"),                       # p wrong type
        _base_config(schema_version=2),            # unsupported version
        _base_config(extra=1),                     # unknown key
        _base_config(conductor={"poly": "T", "factors": []}),  # both forms
        _base_config(conductor={"factors": []}),   # empty factors
        _base_config(conductor={"factors": [["T", 0]]}),  # exponent < 1
        _base_config(pairs=[["T"]]),               # not a 2-list
        _base_config(options={"bogus": True}),     # unknown option
        _base_config(options={"emit_a_pq": 1}),    # not a boolean
        _base_config(options={"a_pq_term_cap": 0}),
        _base_config(rng_seed="x"),
        _base_config(conductor={"poly": 5}),     # neither string nor array
        _base_config(pairs=[[{"T": 1}, "T+1"]]),
    ]
    for raw in bad_cases:
        with pytest.raises(ConfigError):
            parse_config(raw)


@pytest.mark.parametrize("p,e", [
    (65537, 1),          # the next prime past MAX_Q
    (10 ** 12 + 39, 1),  # a prime whose tables would not fit in memory
    (257, 2),
    (3, 10 ** 9),        # rejected without evaluating 3 ** e
])
def test_parse_config_rejects_q_past_max_q(p, e):
    with pytest.raises(ConfigError, match=f"MAX_Q = {MAX_Q}"):
        parse_config(_base_config(p=p, e=e))


@pytest.mark.parametrize("raw", [
    _base_config(rng_seed=True),
    _base_config(options={"a_pq_term_cap": True}),
    _base_config(e=True),
    _base_config(conductor={"factors": [["T", True], ["T+1", 1]]}),
    _base_config(schema_version=True),
    _base_config(p=True),
    _base_config(pairs=[[[0, True], "T+1"]]),
], ids=["rng_seed", "a_pq_term_cap", "e", "conductor_exponent", "schema_version",
        "p", "coefficient"])
def test_parse_config_rejects_booleans_for_integers(raw):
    with pytest.raises(ConfigError, match="must|unsupported"):
        parse_config(raw)


def test_parse_config_error_order():
    """Schema checks read no polynomial; the field comes before the
    polynomials, and every polynomial before the conductor's mathematics."""
    with pytest.raises(NonPrimeP):
        parse_config({"p": 4, "conductor": {"poly": 5}})
    with pytest.raises(ConfigError, match=re.escape("'pairs[0][1]'")):
        parse_config(_base_config(conductor={"factors": [["T^2+2", 1]]},
                                  pairs=[["T", {}]]))


def test_parse_poly_degree_bound():
    ctx = field_create(3)
    assert parse_poly(ctx, f"T^{MAX_DEGREE}").degree == MAX_DEGREE
    # rejected before a coefficient list is allocated
    for text in (f"T^{MAX_DEGREE + 1}", "T^" + str(10 ** 12) + "+1"):
        with pytest.raises(ConfigError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
            parse_poly(ctx, text)


@pytest.mark.parametrize("raw", [
    _base_config(conductor={"factors": [["T", 10 ** 9], ["T+1", 1]]}),
    _base_config(conductor={"factors": [["T", MAX_DEGREE], ["T+1", 1]]}),
    _base_config(conductor={"factors": [["T^2", MAX_DEGREE // 2 + 1]]}),
    _base_config(conductor={"poly": "T^" + str(10 ** 12)}),
    _base_config(conductor={"poly": [0] * (MAX_DEGREE + 1) + [1]}),
    _base_config(pairs=[["T", [1] * (MAX_DEGREE + 2)]]),
    _base_config(e=2, modulus=[1] + [0] * MAX_DEGREE + [1]),
], ids=["exponent_1e9", "product_one_past", "prime_degree_times_exponent",
        "text_exponent", "conductor_array", "pair_array", "modulus_array"])
def test_parse_config_rejects_degrees_past_max_degree(raw):
    """A claimed factorization is bounded by the degree of its product,
    which conductor_create would otherwise multiply out."""
    with pytest.raises(ConfigError, match="MAX_DEGREE"):
        parse_config(raw)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    not_utf8 = tmp_path / "latin.json"
    not_utf8.write_bytes(b'\xff\xfe{"p":3}')
    with pytest.raises(ConfigError):
        load_config(not_utf8)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(deep)


def test_run_report_quasi_fixture():
    report = run_report(parse_config(_base_config()))
    assert report["schema_version"] == 1
    assert report["field"]["q"] == 3
    assert report["cyclotomic"]["phi"] == 4
    assert report["cyclotomic"]["genus"] == {"closed_form": 0, "riemann_hurwitz": 0}
    kum = report["kummer"]
    assert kum["genus"] == {"hasse_formula": 0, "riemann_hurwitz": 0}
    assert kum["presentation"]["group_order"] == 8
    assert kum["presentation"]["epsilon_order"] == 2
    orders = sorted(g["lift_order"] for g in kum["presentation"]["generators"])
    assert orders == [2, 4]
    assert len(kum["presentation"]["relations"]) == 1
    assert all(c["passed"] for c in report["oracles"]["checks"])


def test_run_report_accepts_coefficient_arrays():
    raw = _base_config(conductor={"factors": [[[0, 1], 1], [[1, 1], 1]]},
                       pairs=[[[0, 1], [1, 1]]])
    report = run_report(parse_config(raw))
    assert report["cyclotomic"]["phi"] == 4


def test_run_report_unfactored_conductor_matches_factored():
    factored = run_report(parse_config(_base_config()))
    unfactored = run_report(parse_config(_base_config(
        conductor={"poly": "T^2+T"})))
    assert render_json(factored) == render_json(unfactored)


def test_run_report_empty_pairs_needs_cyclotomic_only():
    raw = _base_config(conductor={"factors": [["T", 1]]}, pairs=[])
    with pytest.raises(ConfigError):
        run_report(parse_config(raw))
    report = run_report(parse_config(raw), cyclotomic_only=True)
    assert "kummer" not in report
    assert report["cyclotomic"]["genus"]["closed_form"] == 0


def test_run_report_validation_errors_propagate():
    with pytest.raises(ValidationError):
        run_report(parse_config(_base_config(pairs=[["T+1", "T"]])))
    with pytest.raises(ValidationError):
        run_report(parse_config(_base_config(
            conductor={"factors": [["T^2+2", 1]]}, pairs=[])), cyclotomic_only=True)


@pytest.mark.parametrize("raw", [
    _base_config(e=1, modulus="T^2+1", conductor={"poly": "T^2+T"}),
    {"p": 3, "e": 2, "conductor": {"factors": [["T", 1]]}, "pairs": [["T", "T+1"]]},
])
def test_run_report_rejects_modulus_mismatch(raw):
    """A modulus with e = 1 is rejected like a missing one with e > 1."""
    with pytest.raises(ValidationError, match="modulus"):
        run_report(parse_config(raw))


@pytest.mark.parametrize("raw,where,cyclotomic_only", [
    (_base_config(conductor={"factors": [[[0, 5], 1], ["T+1", 1]]}),
     "'conductor.factors[0]'", False),
    (_base_config(pairs=[["T", [1, 4]]]), "'pairs[0][1]'", False),
    (_base_config(pairs=[["T", "T+1"], [[1, 4], "T"]]), "'pairs[1][0]'", True),
], ids=["conductor_factor", "pair_member", "pair_member_cyclotomic_only"])
def test_run_report_rejects_coefficients_outside_the_field(raw, where, cyclotomic_only):
    """Arrays pass the schema check; an entry >= q is a config error."""
    with pytest.raises(ConfigError, match=re.escape(f"{where}: coefficient")):
        run_report(parse_config(raw), cyclotomic_only=cyclotomic_only)


def test_run_report_extension_field_modulus():
    raw = {
        "p": 3, "e": 2, "modulus": "T^2+1",
        "conductor": {"factors": [["T", 1]]},
        "pairs": [],
    }
    report = run_report(parse_config(raw), cyclotomic_only=True)
    assert report["field"]["q"] == 9
    assert report["conventions"]["gamma"]["enc"] == 4
    assert report["cyclotomic"]["phi"] == 8


# an unfactored conductor P1*P2^2*P3 and two pairs over F_11, which no
# benchmark workload covers: the pure kernel's byte tables, pnorm and Ben-Or's walk
_F11_UNFACTORED = {
    "p": 11, "conductor": {"poly": "T^13+9*T^11+7*T^9+3*T^8+5*T^6+6*T^5+9*T^4+2*T^3+5*T^2+7*T+2"},
    "pairs": [["T^2+3", "T^3+3*T+9"], ["T^3+3*T+9", "T^5+4*T^2+2*T+2"]],
}


def test_unfactored_f11_report_passes_its_four_oracle_checks():
    oracles = run_report(parse_config(_F11_UNFACTORED))["oracles"]
    assert oracles["ran"] and len(oracles["checks"]) == 4
    assert all(check["passed"] for check in oracles["checks"])


def test_formal_sum_emission_and_cap():
    raw = _base_config(options={"emit_a_pq": True})
    report = run_report(parse_config(raw))
    sums = report["kummer"]["formal_sums"]
    assert len(sums) == 1 and sums[0]["raw_terms"] == 2
    terms = {(t["num"]["str"], t["den"]["str"]): t["coeff"]
             for t in sums[0]["terms"]}
    assert terms == {("1", "T+1"): 1, ("T+2", "T^2+T"): -1}

    capped = _base_config(options={"emit_a_pq": True, "a_pq_term_cap": 1})
    with pytest.raises(ConfigError):
        run_report(parse_config(capped))
    # a cap at the raw term count lets the sum through
    raised = _base_config(options={"emit_a_pq": True, "a_pq_term_cap": 2})
    report = run_report(parse_config(raised))
    assert report["kummer"]["formal_sums"][0]["raw_terms"] == 2


def test_term_cap_is_checked_before_any_formal_sum(monkeypatch):
    """A pair over the cap is refused before the formal sum of an earlier
    pair under it is computed."""
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return pair_formal_sum(a, b)

    monkeypatch.setattr(report_module, "pair_formal_sum", counted)
    two_pairs = _base_config(conductor={"factors": [["T", 1], ["T+1", 1], ["T^2+1", 1]]},
                             pairs=[["T", "T+1"], ["T", "T^2+1"]],
                             options={"emit_a_pq": True, "a_pq_term_cap": 2})
    with pytest.raises(ConfigError, match=re.escape(
            "formal sum for (T, T^2+1) has 8 raw terms, over the cap 2")):
        run_report(parse_config(two_pairs))
    assert calls == []


def test_report_is_deterministic_in_process():
    cfg = parse_config(_base_config(rng_seed=11))
    assert render_json(run_report(cfg)) == render_json(run_report(cfg))


# A tower_report config of the benchmark pool (perfbench/pool.json) and its
# report's pinned sha256: the four primes of M over F_7, every two of them
# paired, so each prime's text appears three times in the pairs.
POOL_PRIME = "T^11+4*T^10+3*T^9+3*T^7+2*T^6+T^5+2*T^3+T^2+2*T+3"
POOL_CONFIG = {
    "conductor": {"poly": [2, 0, 3, 0, 2, 5, 2, 2, 5, 2, 2, 0, 2, 0, 1, 6, 1]},
    "e": 1, "options": {"emit_a_pq": False, "run_oracles": True}, "p": 7,
    "pairs": [["T+3", "T+5"], ["T+3", "T+6"], ["T+3", POOL_PRIME], ["T+5", "T+6"],
              ["T+5", POOL_PRIME], ["T+6", POOL_PRIME]],
    "rng_seed": 627, "schema_version": 1}
POOL_SHA256 = "a7c9f4f885339a24d0a4c861ba343ca2065737904cd89ee676be0e02bd1b73b2"


def test_one_text_per_polynomial_and_one_parse_per_string(monkeypatch):
    """parse_config parses each distinct polynomial string of a config once,
    and run_report and render_json call format_poly at most once per
    distinct polynomial of the report, not counting the generator names
    kummer.presentation makes; the bytes are the pinned ones."""
    real_format, real_parse = report_module.format_poly, config_module.parse_poly
    texts, parses, counting = [], [], [True]

    def format_poly(f):
        if counting[0]:
            texts.append(f.coeffs)
        return real_format(f)

    def presentation(*args):
        counting[0] = False
        try:
            return real_presentation(*args)
        finally:
            counting[0] = True

    # every qcff name for format_poly, Poly.__str__'s in qcff.algebra.poly included
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qcff" and getattr(module, "format_poly", None) is real_format:
            monkeypatch.setattr(module, "format_poly", format_poly)
    real_presentation = report_module.presentation
    monkeypatch.setattr(report_module, "presentation", presentation)
    monkeypatch.setattr(config_module, "parse_poly",
                        lambda ctx, text: parses.append(text) or real_parse(ctx, text))

    cfg = parse_config(POOL_CONFIG)
    assert sorted(parses) == sorted({text for pair in POOL_CONFIG["pairs"] for text in pair})
    text = render_json(run_report(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == POOL_SHA256

    found = set()

    def walk(node):
        if isinstance(node, dict):
            if set(node) == {"coeffs", "str"}:
                found.add(tuple(node["coeffs"]))
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(text))
    assert len(found) == 11  # M, its four primes and each pair's radicand, their product
    assert len(texts) == len(set(texts)) <= len(found)


def test_an_edit_to_a_shared_fragment_shows_everywhere_and_in_the_next_render():
    """A report holds one fragment per distinct polynomial at every place
    that holds the polynomial, so an edit to it shows at each place; each
    render_json call writes the fragments afresh, so a render after the
    edit writes the edited fragment."""
    report = run_report(parse_config(POOL_CONFIG))
    first = render_json(report)
    prime = report["inputs"]["conductor"]["factors"][0]["prime"]
    rows = report["kummer"]["ramification"]["per_prime"]
    assert [row["prime"] for row in rows if row["prime"] is prime] == [prime]
    places = first.count(f'"str": {json.dumps(prime["str"])}')
    assert places > 1

    prime["str"] = "edited"
    prime["coeffs"].append(9)
    text = render_json(report)
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n" != first
    assert text.count('"str": "edited"') == places


def test_every_reported_poly_round_trips():
    ctx = field_create(3)
    raw = _base_config(conductor={"poly": "T^4+2*T^3+2*T"},
                       pairs=[], options={"emit_a_pq": False})
    report = run_report(parse_config(raw), cyclotomic_only=True)

    found = []

    def walk(node):
        if isinstance(node, dict):
            if set(node) == {"coeffs", "str"}:
                found.append(node)
            else:
                for v in node.values():
                    walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(report)
    assert found
    for item in found:
        assert list(parse_poly(ctx, item["str"]).coeffs) == item["coeffs"]


def test_render_text_mentions_key_facts():
    report = run_report(parse_config(_base_config(options={"emit_a_pq": True})))
    text = render_text(report)
    assert "group order 8" in text
    assert "e(T) = 2" in text
    assert "sigma[T]" in text
    assert "Hasse formula" in text


def _plain_terms(value):
    """json.dumps's hook for a formal sum's terms: their plain dicts."""
    if isinstance(value, FormalTerms):
        return list(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _oracle(value) -> str:
    """The canonical text by the generic encoder."""
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True,
                      default=_plain_terms) + "\n"


def test_render_json_is_canonical():
    report = run_report(parse_config(_base_config()))
    dumped = render_json(report)
    assert dumped == _oracle(report)
    assert dumped.endswith("\n")
    assert json.loads(dumped) == report


_ODD_CHARS = st.sampled_from('"\\/\x00\x01\x1f\x7f\b\f\n\r\t\u00e9\u2028\uffff\U0001f600')
_TEXT = st.text(st.characters() | _ODD_CHARS, max_size=8)
_KEYS = st.sampled_from(["coeffs", "str"]) | _TEXT
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.integers(-2 ** 200, 2 ** 200) | _TEXT)
_REPORT_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=4)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(value=_REPORT_VALUES)
def test_render_json_matches_generic_encoder(value):
    assert render_json(value) == _oracle(value)


def _formal_sum_config(p, pairs, e=1, modulus=None):
    primes = sorted({prime for pair in pairs for prime in pair})
    raw = {"p": p, "conductor": {"factors": [[prime, 1] for prime in primes]},
           "pairs": pairs, "options": {"emit_a_pq": True}}
    if modulus is not None:
        raw.update(e=e, modulus=modulus)
    return parse_config(raw)


# pairs over F_3, F_5, F_7, F_9, F_13, F_257, F_7^3 and F_3^6, of 2 to 4,312 raw terms
_TEXT_PATH_CONFIGS = {
    "f3_linear": (3, [["T", "T+1"]]),
    "f3_two_pairs": (3, [["T", "T+1"], ["T+1", "T^2+1"]]),
    "f3_deg_3_4": (3, [["T^3+2*T+1", "T^4+T+2"]]),
    "f5": (5, [["T", "T^2+2"]]),
    "f7_linear": (7, [["T+1", "T+3"]]),
    "f7": (7, [["T", "T^2+1"]]),
    "f9": (3, [["T", "T^2+T+3"]], 2, "T^2+1"),
    "f13": (13, [["T^2+2", "T^2+5"]]),
    "f257": (257, [["T", "T+1"]]),
    "f257_wide": (257, [["T+3", "T+250"]]),
    "f7_3": (7, [["T", "T+1"]], 3, "T^3+2"),
    "f3_6": (3, [["T+1", "T+5"]], 6, "T^6+T+2"),
}


@pytest.mark.parametrize("args", _TEXT_PATH_CONFIGS.values(), ids=_TEXT_PATH_CONFIGS)
def test_formal_sum_text_matches_dict_per_term_reference(args):
    """The terms objects' JSON text against json.dumps of the same report
    with one plain dict per term, at the depth of a report and at others."""
    cfg = _formal_sum_config(*args)
    report = run_report(cfg)
    sums = report["kummer"]["formal_sums"]
    ref_sums = dict_per_term_formal_sums(cfg.pairs)
    ref_kummer = dict(report["kummer"], formal_sums=ref_sums)
    ref = dict(report, kummer=ref_kummer)
    for value, ref_value in ((report, ref), (report["kummer"], ref_kummer),
                             ([report], [ref]), (sums, ref_sums),
                             (sums[-1]["terms"], ref_sums[-1]["terms"])):
        got = render_json(value)
        want = json.dumps(ref_value, sort_keys=True, indent=2) + "\n"
        if got != want:  # long texts: show where they differ, not a whole diff
            at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
                      min(len(got), len(want)))
            pytest.fail(f"text differs at {at}: {got[at - 60:at + 60]!r} "
                        f"!= {want[at - 60:at + 60]!r}")
    assert [list(block["terms"]) for block in sums] == [block["terms"] for block in ref_sums]


def test_formal_sum_text_covers_an_empty_group():
    """Some pair of the text-path sweep has no class over P or over Q."""
    empty = [any(not nums for _, nums in pair_formal_sum(a, b).groups[:2])
             for args in _TEXT_PATH_CONFIGS.values()
             for a, b in _formal_sum_config(*args).pairs]
    assert any(empty) and not all(empty)


# one pair each over F_3, F_5, F_7, F_9, F_11 and F_13, of 180 to 2,184 kept terms
_BLOCK_PAIRS = {
    "f3": (3, [["T^2+1", "T^4+T+2"]]),
    "f5": (5, [["T^2+2", "T^3+T+1"]]),
    "f7": (7, [["T", "T^3+2"]]),
    "f9": (3, [["T", "T^3+T+3"]], 2, "T^2+1"),
    "f11": (11, [["T^2+1", "T^2+3"]]),
    "f13": (13, [["T^2+2", "T^2+5"]]),
}


@pytest.fixture(scope="module")
def block_sums():
    return {name: run_report(_formal_sum_config(*args))["kummer"]["formal_sums"][0]["terms"]
            for name, args in _BLOCK_PAIRS.items()}


@pytest.mark.parametrize("low_block", [1, 2, 3, 4])
def test_formal_terms_text_from_blocks(block_sums, monkeypatch, low_block):
    """write_json, built from cached low and high blocks, against json.dumps
    of the term dicts re-indented, at depths 0 and 3, for the default block
    size and the ones around it. At the default size the pairs above hold
    numerators shorter than the low block, all-zero low blocks under a high
    block, high blocks with a zero below their top, and, over F_11 and F_13
    only, two-digit coefficients."""
    low = report_module.LOW_BLOCK
    nums = {name: [_coeffs_of(v, den.ctx.q) for den, group in terms.groups for v, _ in group]
            for name, terms in block_sums.items()}
    every = [num for group in nums.values() for num in group]
    assert any(len(num) < low for num in every)
    assert any(len(num) > low and not any(num[:low]) for num in every)
    assert any(0 in num[low:-1] for num in every)
    two_digits = {name for name, group in nums.items() if any(c >= 10 for num in group for c in num)}
    assert two_digits == {"f11", "f13"}

    monkeypatch.setattr(report_module, "LOW_BLOCK", low_block)
    for name, terms in block_sums.items():
        want = json.dumps(list(terms), sort_keys=True, indent=2)
        for depth in (0, 3):
            got = _terms_text(terms, depth)
            assert got == want.replace("\n", "\n" + "  " * depth), (name, depth)


def _terms_text(terms, depth):
    """The text write_json appends, joined, after checking that it holds
    each term in a piece of its own: the one copy of the text is the join
    render_json makes."""
    out = ["before"]
    terms.write_json(depth, out)
    assert out[0] == "before"
    assert all(piece.count('"coeff"') <= 1 for piece in out)
    assert sum('"coeff"' in piece for piece in out) == len(list(terms))
    return "".join(out[1:])


def test_formal_terms_without_a_term_write_an_empty_list():
    """Groups that all hold no class write "[]", in one piece, as json
    writes an empty list at any depth."""
    ctx = field_create(3)
    terms = FormalTerms(((var_T(ctx), ()), (var_T(ctx) + 1, ())), [["0", "1", "2"]])
    for depth in (0, 3):
        assert _terms_text(terms, depth) == "[]"
    value = {"a": [{"terms": terms}]}
    assert render_json(value) == _oracle(value)


def _coeffs_of(v, q):
    """The coefficients of the numerator of index v, low first."""
    out = []
    while v:
        out.append(v % q)
        v //= q
    return tuple(out)


# a linear pair over F_257 and one over F_3^6: numerator coefficients of
# three digits, and at LOW_BLOCK = 1 a high block of one of them
_WIDE_BLOCK_PAIRS = {
    "f257": (257, [["T+3", "T+250"]]),
    "f3_6": (3, [["T+1", "T+5"]], 6, "T^6+T+2"),
}


@pytest.mark.parametrize("low_block", [1, 2, 3, 4])
def test_formal_terms_text_over_wide_fields(monkeypatch, low_block):
    """write_json against json.dumps of the term dicts past the benchmark
    pool's q <= 9, at depths 0 and 3."""
    monkeypatch.setattr(report_module, "LOW_BLOCK", low_block)
    for name, args in _WIDE_BLOCK_PAIRS.items():
        terms = run_report(_formal_sum_config(*args))["kummer"]["formal_sums"][0]["terms"]
        q = terms.groups[0][0].ctx.q
        assert any(c >= 100 for _, group in terms.groups for v, _ in group
                   for c in _coeffs_of(v, q)), name
        want = json.dumps(list(terms), sort_keys=True, indent=2)
        for depth in (0, 3):
            assert _terms_text(terms, depth) == want.replace("\n", "\n" + "  " * depth), (name, depth)


@pytest.mark.parametrize("args, raw_terms, kept", [
    (_BLOCK_PAIRS["f13"], 4312, 2184), (_WIDE_BLOCK_PAIRS["f257"], 510, 257)], ids=["f13", "f257"])
def test_formal_sum_term_counts_past_the_pool_fields(args, raw_terms, kept):
    block = run_report(_formal_sum_config(*args))["kummer"]["formal_sums"][0]
    assert block["raw_terms"] == raw_terms and len(list(block["terms"])) == kept


def test_render_json_shared_fragment_at_every_depth():
    frag = {"coeffs": [1, 0, 2], "str": "2*T^2+1"}
    other = {"coeffs": [], "str": "0"}
    value = {"a": frag, "b": [frag, frag, other], "c": {"d": [frag, {"e": frag}]},
             "f": [[frag, other, frag]], "g": other}
    assert render_json(value) == _oracle(value)
    assert render_json([frag, value, frag]) == _oracle([frag, value, frag])


_SHARED = {"coeffs": [2, 1], "str": "T+2"}


# dicts shaped like polynomial fragments, and near misses
@pytest.mark.parametrize("value", [
    {"coeffs": [], "str": "0"},
    {"coeffs": [-1, 0, -2 ** 70, 2 ** 70], "str": "T^3"},
    {"coeffs": [1, True], "str": "T+1"},
    {"coeffs": [False], "str": "0"},
    {"coeffs": [1, None], "str": "T+1"},
    {"coeffs": [1, 2], "str": "2*T+1", "deg": 1},
    {"coeffs": [1, 2], "str": 5},
    {"coeffs": [1, 2], "str": None},
    {"coeffs": [1, 2], "text": "2*T+1"},
    {"coeffs": "T", "str": "T"},
    {"a": _SHARED, "b": [[_SHARED]]},
], ids=["empty", "big_and_negative", "bool", "false_only", "none", "third_key",
        "int_str", "none_str", "no_str", "str_coeffs", "shared_at_two_depths"])
def test_render_json_fragment_edges(value):
    assert render_json(value) == _oracle(value)
    assert render_json([value, {"x": value}]) == _oracle([value, {"x": value}])


_P9 = {"p": 3, "e": 2, "modulus": "T^2+1",
       "conductor": {"factors": [["T", 1], ["T^2+T+3", 2]]},
       "pairs": [["T", "T^2+T+3"]]}


# json_sha and text_sha pin the bytes of render_json and render_text
_PINNED_REPORTS = [
    (_base_config(options={"emit_a_pq": True}), False,
     "ff076ee3c4e555b9ef9b12502e0ae01d9984e63977a6acf36ff5f6b0b96e531c",
     "20fb7c5d76c60123e07bbcb62256e562ea76005017a9a1d8e63a09aa03c1ded3"),
    ({"p": 3, "rng_seed": 7, "conductor": {"poly": "T^3+2*T^2+T"},
      "pairs": [["T", "T+1"]], "options": {"emit_a_pq": True}}, False,
     "172e426753f09387ed397655c4229a1119ced90ebe05910e4dae9c2b38ddf370",
     "dedb89c9c46c6ff749fa424c962b6d3cd2af2e6138bb7212648bf01ab1aa150a"),
    (_base_config(conductor={"poly": "T^4+2*T^3+2*T"}, pairs=[]), True,
     "02a0cd859de113fbc043df1569d1be8c58a19ea14b09c658481cb4935e950274",
     "68c4fcdf9f6cffdbab81b10a28e1e9576ed4feb463f9200b5661b067add3ff25"),
    (_base_config(options={"emit_a_pq": True}), True,
     "6fb07b16517a8a494c555f6a19c38b7cda2a98d41261d2c60dceb1280109ab5e",
     "b3df1049775dcc417482ce5ff8ac3a473131f367274e113bf17672358adbb104"),
    (dict(_P9, options={"emit_a_pq": True}), False,
     "f3fbf930052a67fb2b9cf051406b07a10aede490818afd220c86ab26dc228905",
     "2ac5b80b021a8cc51fbda6be7089511153e57fc21d8c7308c194336f0d368e56"),
    (_P9, True,
     "5398738a23a79110a55e18f5ca4807f5af533b99a7f1b9b725c2f5d1274d5d46",
     "3a26cf6b9c2ea3855e2f2982cbce60cad23c7dc28e3d1a13b801673a1f25acdf"),
]
_PINNED_IDS = ["quasi_a_pq", "determinism_a_pq", "cyclotomic_only",
               "cyclotomic_only_with_pairs", "f9_a_pq", "f9_cyclotomic_only"]


@pytest.mark.parametrize("raw,cyclotomic_only,json_sha,text_sha", _PINNED_REPORTS,
                         ids=_PINNED_IDS)
def test_render_json_matches_generic_encoder_on_reports(raw, cyclotomic_only,
                                                        json_sha, text_sha):
    report = run_report(parse_config(raw), cyclotomic_only=cyclotomic_only)
    text = render_json(report)
    assert text == _oracle(report)
    assert hashlib.sha256(text.encode()).hexdigest() == json_sha
    assert hashlib.sha256(render_text(report).encode()).hexdigest() == text_sha


def _echoed_configs(report):
    """The configs a report's echo spells: its field, conventions.rng_seed
    and inputs, with the conductor once as its factors (and the polynomials
    as coefficient arrays) and once as its product (and as text)."""
    field, inputs = report["field"], report["inputs"]
    base = {"p": field["p"], "e": field["e"], "rng_seed": report["conventions"]["rng_seed"],
            "options": inputs["options"]}
    if field["modulus"] is not None:
        base["modulus"] = field["modulus"]
    conductor = inputs["conductor"]
    by_factors = dict(base, conductor={"factors": [[f["prime"]["coeffs"], f["exp"]]
                                                   for f in conductor["factors"]]},
                      pairs=[[a["coeffs"], b["coeffs"]] for a, b in inputs["pairs"]])
    by_poly = dict(base, conductor={"poly": conductor["poly"]["str"]},
                   pairs=[[a["str"], b["str"]] for a, b in inputs["pairs"]])
    return by_factors, by_poly


@pytest.mark.parametrize("raw,cyclotomic_only",
                         [case[:2] for case in _PINNED_REPORTS], ids=_PINNED_IDS)
def test_report_reproduces_from_its_echo(raw, cyclotomic_only):
    """A config rebuilt from what a report echoes gives the same bytes, so
    every input that shapes a report is echoed in it."""
    report = run_report(parse_config(raw), cyclotomic_only=cyclotomic_only)
    text = render_json(report)
    for rebuilt in _echoed_configs(json.loads(text)):
        again = run_report(parse_config(rebuilt),
                           cyclotomic_only=report["inputs"]["cyclotomic_only"])
        assert render_json(again) == text, rebuilt


@pytest.mark.parametrize("value,name", [
    ({"x": 1.5}, "float"),
    ({"x": (1, 2)}, "tuple"),
    ([{1, 2}], "set"),
    ({1: "one"}, "int"),
    ({"x": [var_T(field_create(3))]}, "Poly"),
    ({"coeffs": (1, 2), "str": "x"}, "tuple"),
], ids=["float", "tuple", "set", "non_str_key", "poly", "fragment_tuple_coeffs"])
def test_render_json_rejects_other_types(value, name):
    with pytest.raises(TypeError, match=name):
        render_json(value)


def test_render_json_leaves_no_garbage_cycles():
    """A formal-sum report of 1,040 raw terms renders without creating
    reference cycles, so its pieces are freed without the cyclic collector."""
    raw = _base_config(conductor={"factors": [["T^3+2*T+1", 1], ["T^4+T+2", 1]]},
                       pairs=[["T^3+2*T+1", "T^4+T+2"]], options={"emit_a_pq": True})
    report = run_report(parse_config(raw))
    assert report["kummer"]["formal_sums"][0]["raw_terms"] == 1040
    gc.collect()
    gc.disable()
    try:
        render_json(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _count_prime_field_builds(monkeypatch) -> list[int]:
    builds = []
    init = FieldCtx.__init__

    def counting_init(self, p, e, *args):
        if e == 1:
            builds.append(p)
        init(self, p, e, *args)

    monkeypatch.setattr(FieldCtx, "__init__", counting_init)
    return builds


def test_extension_field_report_builds_f_p_once(monkeypatch):
    builds = _count_prime_field_builds(monkeypatch)
    run_report(parse_config(_P9), cyclotomic_only=True)
    assert builds == [3]


def test_factor_over_extension_field_builds_f_p_once(monkeypatch, capsys):
    builds = _count_prime_field_builds(monkeypatch)
    assert main(["factor", "--q", "9", "--poly", "T^2+2", "--modulus", "T^2+1"]) == 0
    assert builds == [3]
    assert json.loads(capsys.readouterr().out)["q"] == 9
    builds.clear()
    assert main(["factor", "--q", "3", "--poly", "T^2+2"]) == 0
    assert builds == [3]
    assert json.loads(capsys.readouterr().out)["q"] == 3


def test_field_create_rejects_modulus_over_another_field():
    with pytest.raises(ValidationError, match="over F_3"):
        field_create(3, 2, parse_poly(field_create(5), "T^2+2"))


def test_run_report_builds_cyclotomic_data_once(monkeypatch):
    """One unit-group order per conductor prime: the conductor carries
    Phi(M), the cofactors and the different data for every later stage."""
    real, calls = cyclotomic.poly_phi, []

    def counting_phi(ctx, factors):
        calls.append(len(factors))
        return real(ctx, factors)

    monkeypatch.setattr(cyclotomic, "poly_phi", counting_phi)
    run_report(parse_config(_base_config(
        conductor={"factors": [["T", 1], ["T+1", 2], ["T^2+1", 1]]})))
    assert calls == [1, 1, 1]


def _readme_example_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\nExample config:\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


_ECHO_CONFIGS = {
    "readme_example": _readme_example_config(),
    "frozen_a_pq": {"p": 3, "conductor": {"poly": "T^2+T"}, "pairs": [["T", "T+1"]],
                    "options": {"emit_a_pq": True}},
    "f5_claimed_factors": _base_config(
        p=5, conductor={"factors": [["T+1", 2], ["T^2+2", 1], ["T^3+T+1", 1]]},
        pairs=[["T+1", "T^2+2"], ["T^2+2", "T^3+T+1"]]),
    "f9_three_pairs": dict(_P9, conductor={"factors": [["T", 1], ["T+1", 2], ["T^2+T+3", 1]]},
                           pairs=[["T", "T+1"], ["T", "T^2+T+3"], ["T+1", "T^2+T+3"]]),
    "f11_unfactored": _F11_UNFACTORED,
}


@pytest.mark.parametrize("name,rng_seed", [
    pytest.param(name, seed, id=name if seed == 0 else f"{name}-rng_seed={seed}")
    for seed in (0, 1, 7, 2 ** 40) for name in _ECHO_CONFIGS])
def test_validate_primality_changes_only_its_echo(name, rng_seed):
    """validate_primality and rng_seed are echo-only: nothing but their
    echoes reads them, so each report differs from the one with the option
    on and seed 0 in the lines that echo them alone, and the text rendering
    not at all."""
    raw = _ECHO_CONFIGS[name]

    def rendered(seed, flag):
        cfg = dict(raw, rng_seed=seed,
                   options=dict(raw.get("options", {}), validate_primality=flag))
        report = run_report(parse_config(cfg))
        assert report["inputs"]["options"]["validate_primality"] is flag
        assert report["conventions"]["rng_seed"] == seed
        return render_json(report).splitlines(), render_text(report)

    base, base_text = rendered(0, True)
    seed_echo = [('    "rng_seed": 0', f'    "rng_seed": {rng_seed}')] if rng_seed else []
    for flag in (True, False):
        lines, text = rendered(rng_seed, flag)
        flag_echo = [] if flag else [('      "validate_primality": true',
                                      '      "validate_primality": false')]
        assert len(lines) == len(base)
        assert [(a, b) for a, b in zip(base, lines) if a != b] == seed_echo + flag_echo
        assert text == base_text


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    assert namespace["cond"].structure.total_order == namespace["cond"].phi == 4
    assert namespace["gs"].cyclic_orders == (2, 2) and namespace["s"] == [1, 1]
    assert namespace["g_base"] == namespace["g_tower"] == 0
    assert namespace["pres"].group_order == 8
    law = namespace["law"]
    assert (law.first_over_second, law.second_over_first, law.holds) == (1, 0, True)


def test_readme_example_config_runs(tmp_path, capsys):
    cfg = tmp_path / "example.json"
    cfg.write_text(json.dumps(_readme_example_config()), encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kummer"]["presentation"]["group_order"] == 8
