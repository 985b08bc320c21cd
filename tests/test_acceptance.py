"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them on
success; failures surface through the assertion as usual).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

from qcff.algebra import Poly, field_create, monic_irreducibles, poly_cmp, var_T
from qcff.cyclotomic import conductor_create, genus_closed_form, genus_riemann_hurwitz
from qcff.kummer import (
    genus_hasse_formula,
    genus_riemann_hurwitz as kummer_genus_rh,
    pair_formal_sum,
    pairset_create,
    presentation,
    ramification_table,
)
from qcff.selfcheck import (
    suite_factor_roundtrip,
    suite_genus_paths,
    suite_parity,
    suite_phi_bruteforce,
    suite_reciprocity,
    suite_symbol_character,
)

F3 = field_create(3)
F5 = field_create(5)
F9 = field_create(3, 2, [1, 0, 1])


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS {description}")


def _pair_fixture():
    t, t1 = var_T(F3), var_T(F3) + 1
    cond = conductor_create(F3, [(t, 1), (t1, 1)])
    pairs = pairset_create(cond, [(t, t1)])
    return t, t1, cond, pairs


def test_criterion_01_genus_fixtures():
    with criterion(1, "genus fixtures via both code paths"):
        cases = [
            (F3, [0, 1], 0),          # M = T
            (F3, [0, 1, 1], 0),       # M = T^2+T = T(T+1)
            (F3, [1, 0, 1], 2),       # M = T^2+1
            (F5, [0, 1], 0),          # M = T over F_5
        ]
        for ctx, coeffs, expected in cases:
            cond = conductor_create(ctx, Poly(ctx, coeffs))
            assert genus_closed_form(cond) == expected
            assert genus_riemann_hurwitz(cond) == expected


def test_criterion_02_quasi_fixture():
    with criterion(2, "quasi fixture: ramification, genus, presentation"):
        t, t1, cond, pairs = _pair_fixture()
        ram = ramification_table(cond, pairs)
        assert ram.e_for(t) == 2
        assert ram.e_for(t1) == 1
        base = genus_closed_form(cond)
        assert genus_hasse_formula(cond, base, ram) == 0
        assert kummer_genus_rh(cond, base, ram) == 0
        pres = presentation(cond, pairs, ram)
        assert pres.group_order == 8
        assert sorted(g.lift_order for g in pres.generators) == [2, 4]
        assert pres.epsilon_order == 2
        assert len(pres.relations) == 1


def test_criterion_03_genus_oracle_equality_deg4():
    with criterion(3, "genus two-path equality, all conductors deg <= 4 over F_3, "
                      "all admissible single pairs"):
        res = suite_genus_paths(F3, 4)
        assert res.failures == []
        assert res.cases == 120 + 102  # 3 + 9 + 27 + 81 conductors, then pairs


def test_criterion_04_reciprocity_exhaustive():
    with criterion(4, "reciprocity law, F_3 deg <= 3 and F_5 deg <= 2"):
        res3, res5 = suite_reciprocity(F3, 3), suite_reciprocity(F5, 2)
        assert (res3.failures, res5.failures) == ([], [])
        assert (res3.cases, res5.cases) == (91, 105)


def test_criterion_05_parity_exhaustive():
    with criterion(5, "parity rule e_P = e_Q when 2 | d_P d_Q, q in {3, 5}, deg <= 3"):
        res3, res5 = suite_parity(F3, 3), suite_parity(F5, 3)
        assert (res3.failures, res5.failures) == ([], [])
        assert (res3.cases, res5.cases) == (36, 495)


def test_criterion_06_phi_bruteforce():
    with criterion(6, "Phi equals brute-force unit count, deg M <= 3 over F_3"):
        res = suite_phi_bruteforce(F3, 3)
        assert res.failures == []
        assert res.cases == 39


def test_criterion_07_symbol_character():
    with criterion(7, "residue symbol is 1 exactly on (q-1)-th powers, "
                      "q = 3, deg R <= 2"):
        res = suite_symbol_character(F3, 2)
        assert res.failures == []
        assert res.cases == 30


def test_criterion_08_formal_sum_structure():
    with criterion(8, "formal-sum fixture and raw-term-count formula on "
                      "20 randomized pairs"):
        t, t1, _, _ = _pair_fixture()
        fs = pair_formal_sum(t, t1)
        assert fs.raw_terms == 2
        terms = {(str(c.num), str(c.den)): n for c, n in fs.terms}
        assert terms == {("1", "T+1"): 1, ("T+2", "T^2+T"): -1}

        rng = random.Random(2024)
        checked = 0
        for ctx in (F3, F5):
            primes = list(monic_irreducibles(ctx, 4))
            done = 0
            while done < 10:
                a, b = rng.sample(primes, 2)
                if poly_cmp(a, b) > 0:
                    a, b = b, a
                if a.degree + b.degree > 5:
                    continue
                fs = pair_formal_sum(a, b)
                n_upper = (ctx.q ** b.degree - 1) // ctx.w
                n_lower = (ctx.q ** a.degree - 1) // ctx.w
                assert fs.raw_terms == (ctx.q - 2) * n_upper * n_lower * 2
                done += 1
            checked += done
        assert checked == 20


def test_criterion_09_factor_roundtrip():
    with criterion(9, "factorization round trip + irreducibility certification, "
                      "1000 random polynomials per field over F_3, F_5, F_9"):
        res3 = suite_factor_roundtrip(F3, 1000, 8, random.Random(9090))
        res5 = suite_factor_roundtrip(F5, 1000, 8, random.Random(9090))
        res9 = suite_factor_roundtrip(F9, 1000, 8, random.Random(9090))
        assert (res3.failures, res5.failures, res9.failures) == ([], [], [])
        assert (res3.cases, res5.cases, res9.cases) == (1000, 1000, 1000)


def test_criterion_10_report_determinism(tmp_path):
    with criterion(10, "byte-identical reports for identical config and seed"):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({
            "p": 3,
            "rng_seed": 7,
            "conductor": {"poly": "T^3+2*T^2+T"},
            "pairs": [["T", "T+1"]],
            "options": {"emit_a_pq": True},
        }), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src") \
            + os.pathsep + env.get("PYTHONPATH", "")
        runs = [subprocess.run([sys.executable, "-m", "qcff", "report",
                                "--config", str(cfg)],
                               capture_output=True, text=True, env=env)
                for _ in range(2)]
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout  # nonempty
