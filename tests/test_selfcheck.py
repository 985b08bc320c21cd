"""run_selfcheck against its suites called one after another.

run_selfcheck runs a fixed share of its suites in a forked child. These
tests check that the split changes no result: the same records in the
pinned order, every round-trip sample the serial run's, a child's failure
lines intact, a child's exception raised in the parent, no child left
behind, and the same results where there is no fork.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from qcff import selfcheck
from qcff.algebra import field_create
from qcff.errors import ConsistencyError, ValidationError
from qcff.selfcheck import run_selfcheck

PIN = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "pool.json")
                 .read_text(encoding="utf-8"))["selfcheck"]


def serial(seed: int) -> list:
    """The full scope's suites, called in the pinned order with one generator."""
    f3, f5, f9 = field_create(3), field_create(5), field_create(3, 2, [1, 0, 1])
    rng = random.Random(seed)
    return [
        selfcheck.suite_reciprocity(f3, 3),
        selfcheck.suite_phi_bruteforce(f3, 3),
        selfcheck.suite_symbol_character(f3, 2),
        selfcheck.suite_parity(f3, 3),
        selfcheck.suite_genus_paths(f3, 3),
        selfcheck.suite_reciprocity(f5, 2),
        selfcheck.suite_parity(f5, 3),
        selfcheck.suite_genus_paths(f3, 4),
        selfcheck.suite_factor_roundtrip(f3, 1000, 8, rng),
        selfcheck.suite_factor_roundtrip(f5, 1000, 8, rng),
        selfcheck.suite_factor_roundtrip(f9, 1000, 8, rng),
    ]


def open_fds() -> set[int]:
    fds = set()
    for fd in range(256):
        try:
            os.fstat(fd)
        except OSError:
            continue
        fds.add(fd)
    return fds


@pytest.fixture()
def nothing_left():
    """After the test: no child to reap and no descriptor left open."""
    before = open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == before


@pytest.fixture()
def f9_mismatch(monkeypatch):
    """Every F_9 round-trip sample fails with a line that names it, so the
    failure lines show which samples the child drew."""
    real = selfcheck.poly_factor

    def factor(f):
        return real(f + 1) if f.ctx.q == 9 else real(f)

    monkeypatch.setattr(selfcheck, "poly_factor", factor)


@pytest.mark.parametrize("seed", [4, 5])
def test_full_equals_the_serial_run(seed, nothing_left):
    results = run_selfcheck("full", seed)
    assert results == serial(seed)
    assert [[r.name, r.cases] for r in results] == PIN
    assert all(r.passed for r in results)


def test_child_failure_lines_arrive_intact_and_in_order(f9_mismatch, nothing_left):
    """The F_9 round trip, which the child runs after drawing the F_3 and F_5
    samples, fails on each of its 1,000 samples, in draw order."""
    results = run_selfcheck("full", 6)
    assert results == serial(6)
    f9 = results[-1]
    assert f9.name.startswith("factor-roundtrip q=9") and len(f9.failures) == 1000
    assert all(line.endswith(": product mismatch") for line in f9.failures)
    assert [r.passed for r in results] == [True] * 10 + [False]


def test_child_exception_is_raised_in_the_parent(monkeypatch, nothing_left):
    parent = os.getpid()
    real = selfcheck.suite_parity

    def parity(ctx, max_degree):
        if os.getpid() != parent:
            raise RuntimeError(f"parity broke at q={ctx.q}")
        return real(ctx, max_degree)

    monkeypatch.setattr(selfcheck, "suite_parity", parity)
    with pytest.raises(ConsistencyError, match=r"RuntimeError: parity broke at q=5"):
        run_selfcheck("full", 1)


def test_parent_exception_leaves_no_child(monkeypatch, nothing_left):
    parent = os.getpid()

    def reciprocity(ctx, max_degree):
        if os.getpid() == parent:
            raise KeyError("reciprocity in the parent")
        raise AssertionError("the child runs no reciprocity suite")

    monkeypatch.setattr(selfcheck, "suite_reciprocity", reciprocity)
    with pytest.raises(KeyError, match="reciprocity in the parent"):
        run_selfcheck("full", 1)


def _fork_fails():
    raise OSError("no more processes")


@pytest.mark.parametrize("fork", [None, _fork_fails], ids=["no_fork", "fork_fails"])
def test_without_a_fork_the_parent_runs_every_suite(fork, monkeypatch, f9_mismatch,
                                                    nothing_left):
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    assert run_selfcheck("full", 7) == serial(7)


@pytest.mark.parametrize("seed", [None, True, 1.5, "x"])
def test_seed_must_be_an_int(seed):
    with pytest.raises(ValidationError, match="seed must be an int"):
        run_selfcheck("full", seed)


def test_unknown_scope_is_refused():
    with pytest.raises(ValidationError, match="scope must be one of small, full, deep"):
        run_selfcheck("huge", 0)
