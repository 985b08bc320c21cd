from __future__ import annotations

import json

import pytest

from qcff.algebra import parse_poly
from qcff.config import Options, load_config, parse_config
from qcff.errors import ConfigError, ValidationError
from qcff.report import render_json, render_text, run_report


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
    assert cfg.p == 3 and cfg.e == 1 and cfg.rng_seed == 0
    assert cfg.options == Options()
    assert cfg.conductor_factors == (("T", 1), ("T+1", 1))


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
    ]
    for raw in bad_cases:
        with pytest.raises(ConfigError):
            parse_config(raw)


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


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


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
    # override flag bypasses the cap
    report = run_report(parse_config(capped), ignore_term_cap=True)
    assert report["kummer"]["formal_sums"][0]["raw_terms"] == 2


def test_report_is_deterministic_in_process():
    cfg = parse_config(_base_config(rng_seed=11))
    assert render_json(run_report(cfg)) == render_json(run_report(cfg))


def test_every_reported_poly_round_trips():
    from qcff.algebra import field_create
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


def test_render_json_is_canonical():
    report = run_report(parse_config(_base_config()))
    dumped = render_json(report)
    assert dumped.endswith("\n")
    assert json.loads(dumped) == report
