from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from qcff import __version__, _kernels, backend_name, selfcheck
from qcff._kernels import PureFieldKernel
from qcff.algebra import field
from qcff.cli import main
from qcff.config import MAX_Q, load_config
from qcff.kummer import genus_riemann_hurwitz as kummer_genus_rh
from qcff.report import render_json, run_report
from qcff.selfcheck import SuiteResult

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "qcff", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


@pytest.fixture()
def quasi_config(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "p": 3,
        "conductor": {"factors": [["T", 1], ["T+1", 1]]},
        "pairs": [["T", "T+1"]],
    }), encoding="utf-8")
    return cfg


def test_report_json_to_stdout(quasi_config):
    proc = run_cli("report", "--config", str(quasi_config))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["kummer"]["presentation"]["group_order"] == 8
    assert report["schema_version"] == 1


def test_report_out_file_and_text_format(tmp_path, capsys):
    """A formal sum over F_3 with --out and to stdout: the same bytes, json's canonical
    text, 80 raw and 54 kept terms, a known digest; the text format writes each term."""
    cfg, out = tmp_path / "job.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({
        "p": 3, "conductor": {"factors": [["T", 1], ["T^4+T+2", 1]]},
        "pairs": [["T", "T^4+T+2"]], "options": {"emit_a_pq": True}}), encoding="utf-8")
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["report", "--config", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert out.read_bytes() == text.encode()
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    block = report["kummer"]["formal_sums"][0]
    assert block["raw_terms"] == 80
    assert Counter(term["den"]["str"] for term in block["terms"]) == {
        "T": 1, "T^4+T+2": 13, "T^5+T^2+2*T": 40}
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a90210f01f0e0b3f834dbdb47f7626e065a78c4d2872f2fcfc2bde86077fefa6")

    cfg.write_text(json.dumps({"p": 3, "conductor": {"poly": "T^2+T"}, "pairs": [["T", "T+1"]],
                               "options": {"emit_a_pq": True}}), encoding="utf-8")
    assert main(["report", "--config", str(cfg), "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "group order 8" in text
    assert ("formal sum (T, T+1): +1*[(1)/(T+1)] -1*[(T+2)/(T^2+T)] [2 raw terms]"
            in text.splitlines())


@pytest.mark.parametrize("target", ["", "missing/report.json"],
                         ids=["directory", "missing_directory"])
def test_report_out_unwritable_exit_2(quasi_config, tmp_path, target):
    out = tmp_path / target
    proc = run_cli("report", "--config", str(quasi_config), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"config error (ConfigError): cannot write report to {out}: " in proc.stderr


def test_report_byte_identical_across_backends(quasi_config, monkeypatch):
    """The loaded kernel against the pure one; without a compiled kernel
    both renders use the pure kernel."""
    cfg = load_config(quasi_config)
    loaded = render_json(run_report(cfg))
    monkeypatch.setattr(field, "FieldKernel", PureFieldKernel)
    assert render_json(run_report(cfg)) == loaded


def test_modulus_with_prime_field_exit_3(tmp_path):
    cfg = tmp_path / "modulus.json"
    cfg.write_text(json.dumps({
        "p": 3, "e": 1, "modulus": "T^2+1",
        "conductor": {"poly": "T^2+T"}, "pairs": [["T", "T+1"]],
    }), encoding="utf-8")
    proc = run_cli("report", "--config", str(cfg))
    assert proc.returncode == 3
    assert "validation error (ValidationError): modulus must be omitted" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_error_exit_2(tmp_path):
    for name, data in (("bad.json", json.dumps({"p": 3}).encode()),
                       ("latin.json", b'\xff\xfe{"p":3}'),
                       ("deep.json", b"[" * 100_000 + b"]" * 100_000),
                       ("range.json", json.dumps({
                           "p": 3, "conductor": {"factors": [[[0, 5], 1]]},
                           "pairs": [["T", "T+1"]]}).encode())):
        cfg = tmp_path / name
        cfg.write_bytes(data)
        proc = run_cli("report", "--config", str(cfg))
        assert proc.returncode == 2, name
        assert proc.stderr.startswith("config error (ConfigError): "), name
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_report_past_the_integer_digit_limit_exit_2(tmp_path, fmt):
    """Phi(M) for M = T^10000 (T+1) has about 4,772 digits, past Python's
    default limit of 4,300 for writing an integer as text."""
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({
        "p": 3, "conductor": {"factors": [["T", 10000], ["T+1", 1]]},
        "pairs": [["T", "T+1"]],
    }), encoding="utf-8")
    proc = run_cli("report", "--config", str(cfg), "--format", fmt)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "config error" in proc.stderr
    assert f"{sys.get_int_max_str_digits()} digits" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_integer_past_the_digit_limit_exit_2(tmp_path, capsys):
    """json.loads refuses to read an integer of more than 4,300 digits."""
    cfg = tmp_path / "long_p.json"
    cfg.write_text('{"p": ' + "1" * 5000 + ', "conductor": {"poly": "T"}, '
                   '"pairs": [["T", "T+1"]]}', encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "digits" in err
    assert "Traceback" not in err


_LONG_NUMERAL = "1" * 5000  # past Python's default limit of 4,300 digits for int()


@pytest.mark.parametrize("conductor,pair", [
    ("T^" + _LONG_NUMERAL, ["T", "T+1"]),
    ("T^2+T", [_LONG_NUMERAL + "*T+1", "T+1"]),
], ids=["conductor_exponent", "pair_coefficient"])
def test_report_numeral_past_the_digit_limit_exit_2(tmp_path, capsys, conductor, pair):
    cfg = tmp_path / "long_numeral.json"
    cfg.write_text(json.dumps({"p": 3, "conductor": {"poly": conductor},
                               "pairs": [pair]}), encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "digits" in err
    assert "Traceback" not in err


def test_factor_numeral_past_the_digit_limit_exit_2(capsys):
    assert main(["factor", "--q", "3", "--poly", "T^" + _LONG_NUMERAL]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "digits" in err
    assert "Traceback" not in err


def test_consistency_failure_exit_4(quasi_config, monkeypatch, capsys):
    monkeypatch.setattr("qcff.report.kummer_genus_riemann_hurwitz",
                        lambda *args: kummer_genus_rh(*args) + 1)
    assert main(["report", "--config", str(quasi_config)]) == 4
    assert capsys.readouterr().err.startswith(
        "internal consistency failure (ConsistencyError): internal cross-checks failed: "
        "['kummer genus paths agree']")


def _sign_less_symbol_dlog(a, b):
    """symbol_dlog without its reciprocity sign: never adds w/2 on a swap."""
    kernel, log, w = a.ctx.kernel, a.ctx.log, a.ctx.w
    x, y, acc = a.coeffs, b.coeffs, 0
    while len(y) > 1:
        x = kernel.prem(x, y)
        acc += log[x[-1]] * (len(y) - 1)
        x, y = y, kernel.pmonic(x)
    return acc % w


def test_wrong_ramification_symbols_exit_4(tmp_path, monkeypatch, capsys):
    """The symbols of (T+1, T^3+2T+1) over F_3 take one reciprocity sign on
    their way, so a symbol_dlog without it gives T+1 a wrong vbar; the
    oracle's residue symbols catch it."""
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "p": 3,
        "conductor": {"factors": [["T+1", 1], ["T^3+2*T+1", 1]]},
        "pairs": [["T+1", "T^3+2*T+1"]],
    }), encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 0
    monkeypatch.setattr("qcff.kummer.symbol_dlog", _sign_less_symbol_dlog)
    capsys.readouterr()
    assert main(["report", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.startswith(
        "internal consistency failure (ConsistencyError): vbar of T+1 is 1 by the "
        "residue symbols but 0 in the ramification table")


def test_empty_pairs_exit_2_unless_cyclotomic_only(tmp_path):
    cfg = tmp_path / "nopairs.json"
    cfg.write_text(json.dumps({
        "p": 3, "conductor": {"factors": [["T", 1]]}, "pairs": []},
    ), encoding="utf-8")
    proc = run_cli("report", "--config", str(cfg))
    assert proc.returncode == 2

    proc = run_cli("report", "--config", str(cfg), "--cyclotomic-only")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert "kummer" not in report
    assert report["cyclotomic"]["genus"]["closed_form"] == 0


@pytest.mark.parametrize("pairs,error", [
    ([["T", "T"]], "PairMembersEqual"),
    ([["T+1", "T"]], "WrongOrientation"),
    ([["T", "T+2"]], "PrimeNotInConductor"),
    ([["T", "T+1"], ["T", "T+1"]], "DuplicatePair"),
], ids=["equal_members", "wrong_orientation", "not_in_conductor", "listed_twice"])
def test_cyclotomic_only_still_checks_given_pairs(tmp_path, capsys, pairs, error):
    """The report echoes its pairs in inputs.pairs, so it checks them even
    when it computes nothing from them."""
    cfg = tmp_path / "pairs.json"
    cfg.write_text(json.dumps({"p": 3, "conductor": {"poly": "T^2+T"}, "pairs": pairs}),
                   encoding="utf-8")
    assert main(["report", "--config", str(cfg), "--cyclotomic-only"]) == 3
    assert capsys.readouterr().err.startswith(f"validation error ({error}): ")


def test_math_validation_exit_3(tmp_path, capsys):
    wrong_orientation = tmp_path / "orient.json"
    wrong_orientation.write_text(json.dumps({
        "p": 3,
        "conductor": {"factors": [["T", 1], ["T+1", 1]]},
        "pairs": [["T+1", "T"]],
    }), encoding="utf-8")
    proc = run_cli("report", "--config", str(wrong_orientation))
    assert proc.returncode == 3
    assert "validation error (WrongOrientation): " in proc.stderr
    assert "must be listed as" in proc.stderr

    reducible = tmp_path / "reducible.json"
    reducible.write_text(json.dumps({
        "p": 3, "conductor": {"factors": [["T^2+2", 1]]}, "pairs": []},
    ), encoding="utf-8")
    proc = run_cli("report", "--config", str(reducible), "--cyclotomic-only")
    assert proc.returncode == 3
    assert "validation error (ReducibleClaimedPrime): " in proc.stderr

    # with pairs too: conductor_create is the one proof of a claimed prime
    reducible.write_text(json.dumps({"p": 3, "conductor": {"factors": [["T", 1], ["T^2+2", 1]]},
                                     "pairs": [["T", "T^2+2"]]}), encoding="utf-8")
    assert main(["report", "--config", str(reducible)]) == 3
    assert "validation error (ReducibleClaimedPrime): " in capsys.readouterr().err

    # a pair member that divides an unfactored conductor but is reducible:
    # its Ben-Or proof fails, M is factored whole, and the pair is refused
    reducible.write_text(json.dumps({"p": 3, "conductor": {"poly": "T^3+2*T"},
                                     "pairs": [["T+2", "T^2+T"]]}), encoding="utf-8")
    assert main(["report", "--config", str(reducible)]) == 3
    assert "validation error (PrimeNotInConductor): " in capsys.readouterr().err


def test_selfcheck_small():
    proc = run_cli("selfcheck", "--scope", "small")
    assert proc.returncode == 0
    assert "5/5 suites passed" in proc.stdout


def test_selfcheck_failure_exits_1_with_at_most_ten_lines(monkeypatch, capsys):
    """One suite that fails on 12 cases: exit 1, its FAIL line with the
    count, its first 10 failures indented, and the others still ok."""
    real = selfcheck.suite_symbol_character

    def failing(ctx, max_degree):
        res = real(ctx, max_degree)
        return SuiteResult(name=res.name, cases=res.cases,
                           failures=[f"case {i}: wrong" for i in range(12)])

    monkeypatch.setattr(selfcheck, "suite_symbol_character", failing)
    assert main(["selfcheck", "--scope", "small"]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("FAIL "))
    assert lines[at].startswith("FAIL symbol-character") and lines[at].endswith("failures=12")
    assert lines[at + 1:at + 11] == [f"     case {i}: wrong" for i in range(10)]
    assert lines[at + 11].startswith(("ok   ", "selfcheck small: "))
    assert sum(line.startswith("ok   ") for line in lines) == 4
    assert lines[-1].startswith("selfcheck small: 4/5 suites passed, ")


FULL_SELFCHECK = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                             / "pool.json").read_text(encoding="utf-8"))["selfcheck"]


def test_selfcheck_full_passes_in_the_pinned_order():
    proc = run_cli("selfcheck", "--scope", "full", "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:-1] == [f"ok   {name}  cases={cases}" for name, cases in FULL_SELFCHECK]
    assert lines[-1] == "selfcheck full: 11/11 suites passed, 4078 cases"


def test_selfcheck_deep_is_full_plus_symbol_euclid():
    proc = run_cli("selfcheck", "--scope", "deep", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:-1] == [f"ok   {name}  cases={cases}" for name, cases in FULL_SELFCHECK] + [
        "ok   symbol-euclid q=3 degB<=3 degA<3  cases=1080"]
    assert lines[-1] == "selfcheck deep: 12/12 suites passed, 5158 cases"


def test_factor_verb():
    proc = run_cli("factor", "--q", "3", "--poly", "T^3+2*T")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert [f["prime"]["str"] for f in out["factors"]] == ["T", "T+1", "T+2"]
    # the bytes the generic encoder gives: print(json.dumps(out, ...))
    assert proc.stdout == json.dumps(out, sort_keys=True, indent=2) + "\n"

    proc = run_cli("factor", "--q", "9", "--poly", "T^2+2",
                   "--modulus", "T^2+1")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["q"] == 9 and out["factors"]
    assert proc.stdout == json.dumps(out, sort_keys=True, indent=2) + "\n"

    proc = run_cli("factor", "--q", "9", "--poly", "T^2+2")
    assert proc.returncode == 2  # missing modulus for an extension field

    proc = run_cli("factor", "--q", "3", "--poly", "T^2+1", "--modulus", "T^2+1")
    assert proc.returncode == 3  # a modulus for a prime field
    assert "modulus must be omitted" in proc.stderr

    for q in ("1", "12"):
        proc = run_cli("factor", "--q", q, "--poly", "T")
        assert proc.returncode == 2  # not a prime power

    for q in ("2", "4"):
        proc = run_cli("factor", "--q", q, "--poly", "T")
        assert proc.returncode == 3  # even characteristic is a validation error
        assert "(EvenCharacteristic)" in proc.stderr

    proc = run_cli("factor", "--q", "3", "--poly", "T^2+1", "--seed", "1")
    assert proc.returncode == 2  # the factors never depended on a seed, so there is no option


@pytest.mark.parametrize("q", [65537, 257 ** 2, 10 ** 40 + 1])
def test_factor_rejects_q_past_max_q(q, capsys):
    assert main(["factor", "--q", str(q), "--poly", "T"]) == 2
    assert f"MAX_Q = {MAX_Q}" in capsys.readouterr().err


def test_term_cap_is_raised_in_the_config(tmp_path):
    """A formal sum past the config's a_pq_term_cap exits 2 and names the
    key; the same config with the cap raised gives the sum, and its report
    echoes the cap it ran under. No flag overrides the cap."""
    raw = {
        "p": 3,
        "conductor": {"factors": [["T", 1], ["T+1", 1]]},
        "pairs": [["T", "T+1"]],
        "options": {"emit_a_pq": True, "a_pq_term_cap": 1},
    }
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    proc = run_cli("report", "--config", str(cfg))
    assert proc.returncode == 2
    assert "(ConfigError)" in proc.stderr and "a_pq_term_cap" in proc.stderr
    assert run_cli("report", "--config", str(cfg), "--force-a-pq").returncode == 2

    raw["options"]["a_pq_term_cap"] = 2
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    proc = run_cli("report", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["kummer"]["formal_sums"][0]["raw_terms"] == 2
    assert report["inputs"]["options"]["a_pq_term_cap"] == 2


def test_info_verb_names_version_and_backend():
    proc = run_cli("info")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == [f"qcff {__version__}", f"backend: {backend_name()}"]
    if _kernels.IMPORT_ERROR is None:
        assert len(lines) == 2
    else:
        assert lines[2] == f"compiled kernel not loaded: {_kernels.IMPORT_ERROR}"


def test_info_verb_prints_why_compiled_kernel_is_missing(monkeypatch, capsys):
    monkeypatch.setattr(_kernels, "BACKEND", "pure")
    monkeypatch.setattr(_kernels, "IMPORT_ERROR", ImportError("no _core here"))
    assert main(["info"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "backend: pure", "compiled kernel not loaded: no _core here"]
