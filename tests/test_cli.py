from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcff._kernels import PureFieldKernel
from qcff.algebra import field
from qcff.config import load_config
from qcff.report import render_json, run_report

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


def test_report_out_file_and_text_format(quasi_config, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("report", "--config", str(quasi_config), "--out", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    assert json.loads(out.read_text(encoding="utf-8"))["cyclotomic"]["phi"] == 4

    proc = run_cli("report", "--config", str(quasi_config), "--format", "text")
    assert proc.returncode == 0
    assert "group order 8" in proc.stdout


def test_report_byte_identical_across_runs(quasi_config):
    first = run_cli("report", "--config", str(quasi_config))
    second = run_cli("report", "--config", str(quasi_config))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


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
    assert "modulus must be omitted" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_error_exit_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"p": 3}), encoding="utf-8")
    proc = run_cli("report", "--config", str(cfg))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


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


def test_math_validation_exit_3(tmp_path):
    wrong_orientation = tmp_path / "orient.json"
    wrong_orientation.write_text(json.dumps({
        "p": 3,
        "conductor": {"factors": [["T", 1], ["T+1", 1]]},
        "pairs": [["T+1", "T"]],
    }), encoding="utf-8")
    proc = run_cli("report", "--config", str(wrong_orientation))
    assert proc.returncode == 3
    assert "must be listed as" in proc.stderr

    reducible = tmp_path / "reducible.json"
    reducible.write_text(json.dumps({
        "p": 3, "conductor": {"factors": [["T^2+2", 1]]}, "pairs": []},
    ), encoding="utf-8")
    proc = run_cli("report", "--config", str(reducible), "--cyclotomic-only")
    assert proc.returncode == 3


def test_selfcheck_small():
    proc = run_cli("selfcheck", "--scope", "small")
    assert proc.returncode == 0
    assert "5/5 suites passed" in proc.stdout


def test_factor_verb():
    proc = run_cli("factor", "--q", "3", "--poly", "T^3+2*T")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert [f["prime"]["str"] for f in out["factors"]] == ["T", "T+1", "T+2"]

    proc = run_cli("factor", "--q", "9", "--poly", "T^2+2",
                   "--modulus", "T^2+1")
    assert proc.returncode == 0

    proc = run_cli("factor", "--q", "9", "--poly", "T^2+2")
    assert proc.returncode == 2  # missing modulus for an extension field

    proc = run_cli("factor", "--q", "12", "--poly", "T")
    assert proc.returncode == 2  # not a prime power

    proc = run_cli("factor", "--q", "4", "--poly", "T")
    assert proc.returncode == 3  # even characteristic is a validation error


def test_force_a_pq_flag(tmp_path):
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({
        "p": 3,
        "conductor": {"factors": [["T", 1], ["T+1", 1]]},
        "pairs": [["T", "T+1"]],
        "options": {"emit_a_pq": True, "a_pq_term_cap": 1},
    }), encoding="utf-8")
    proc = run_cli("report", "--config", str(cfg))
    assert proc.returncode == 2
    proc = run_cli("report", "--config", str(cfg), "--force-a-pq")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["kummer"]["formal_sums"][0]["raw_terms"] == 2
