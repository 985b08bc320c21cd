"""The result types share one base, Record: its behaviour on every type, a
scan of the source for any other record mechanism, and an import of qcff
that loads neither dataclasses nor inspect."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcff.algebra import field_create, parse_poly, poly_factor
from qcff.config import Options, parse_config
from qcff.cyclotomic import conductor_create
from qcff.kummer import (
    Relation,
    pair_formal_sum,
    pairset_create,
    parity_consistency,
    presentation,
    ramification_table,
)
from qcff.record import Record
from qcff.report import _json
from qcff.selfcheck import SuiteResult
from qcff.symbols import check_reciprocity

SRC = Path(__file__).resolve().parent.parent / "src"


def _samples() -> list[Record]:
    """One instance of each result type, from the T, T+1 tower over F_3."""
    ctx = field_create(3)
    t, t1 = parse_poly(ctx, "T"), parse_poly(ctx, "T+1")
    cond = conductor_create(ctx, t * t1)
    pairs = pairset_create(cond, [(t, t1)])
    ram = ramification_table(cond, pairs)
    pres = presentation(cond, pairs, ram)
    fs = pair_formal_sum(t, t1)
    cfg = parse_config({"p": 3, "conductor": {"poly": "T^2+T"}, "pairs": [["T", "T+1"]]})
    return [
        cond.factors[0], poly_factor(t * t1), cond.structure, cond.different.per_prime[0],
        cond.different, cond, pairs, fs.terms[0][0], fs, ram.pair_parities[0],
        ram.per_prime[0], ram, parity_consistency(pairs, ram), pres.generators[0],
        pres.relations[0], pres, cfg.options, cfg,
        SuiteResult(name="suite", cases=1, failures=[]), check_reciprocity(t, t1),
    ]


SAMPLES = _samples()
each_record = pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)


def _fields(record: Record) -> dict:
    return {name: getattr(record, name) for name in record._fields}


def test_every_result_type_is_sampled():
    types = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("qcff.")}
    assert len(types) == len(SAMPLES) == 20
    assert types == {type(r) for r in SAMPLES}


@each_record
def test_equal_to_a_copy_and_hashed_by_fields(record):
    cls = type(record)
    copy = cls(**_fields(record))
    assert copy == record and not copy != record and copy is not record
    first = record._fields[0]
    assert cls(**{**_fields(record), first: object()}) != record
    if cls is SuiteResult:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)


@each_record
def test_unequal_to_another_class_with_the_same_fields(record):
    twin_class = type("Twin", (Record,), {
        "__annotations__": dict.fromkeys(record._fields, "object"),
        "__module__": __name__})
    twin = twin_class(**_fields(record))
    assert twin._fields == record._fields
    assert twin != record and record != twin


@each_record
def test_assigning_a_field_raises(record):
    """Every result type is immutable, SuiteResult included."""
    for name, value in _fields(record).items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


@each_record
def test_repr_names_every_field(record):
    body = ", ".join(f"{name}={value!r}" for name, value in _fields(record).items())
    assert repr(record) == f"{type(record).__name__}({body})"


def test_repr_example():
    assert repr(Relation(left="a", right="b")) == \
        "Relation(left='a', right='b', epsilon_exponent=-1)"


def test_defaults():
    defaults = {type(r): r._field_defaults for r in SAMPLES if r._field_defaults}
    assert defaults == {
        Options: {"validate_primality": True, "emit_a_pq": False, "run_oracles": True,
                  "a_pq_term_cap": 1_000_000},
        Relation: {"epsilon_exponent": -1},
    }
    assert Options() == Options(validate_primality=True, emit_a_pq=False, run_oracles=True,
                                a_pq_term_cap=1_000_000)
    assert Options(emit_a_pq=True).emit_a_pq and Options(emit_a_pq=True).run_oracles
    assert Relation(left="a", right="b").epsilon_exponent == -1
    assert Relation(left="a", right="b", epsilon_exponent=2).epsilon_exponent == 2


@each_record
def test_a_missing_or_unknown_field_raises_type_error(record):
    cls, values = type(record), _fields(record)
    for name in values:
        if name not in cls._field_defaults:
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in values.items() if k != name})
    with pytest.raises(TypeError):
        cls(**values, not_a_field=1)


@each_record
def test_a_positional_call_raises_type_error(record):
    """Records are built by keyword only: a call with every field by
    position, or with one by position and the others by keyword, raises."""
    cls, values = type(record), _fields(record)
    first = record._fields[0]
    with pytest.raises(TypeError):
        cls(*values.values())
    with pytest.raises(TypeError):
        cls(values[first], **{k: v for k, v in values.items() if k != first})


@each_record
def test_json_gives_one_key_per_field_in_order(record):
    assert list(_json(record)) == list(record._fields)


@pytest.fixture(scope="module")
def loaded_by_import() -> set[str]:
    """The modules a fresh interpreter's import qcff loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", "import sys, qcff; print(*sys.modules)"],
                          capture_output=True, text=True, env=env, check=True)
    loaded = set(done.stdout.split())
    assert "qcff.selfcheck" in loaded
    return loaded


@pytest.mark.parametrize("module", ["dataclasses", "inspect", "fractions", "decimal", "signal"])
def test_import_does_not_load(loaded_by_import, module):
    """Records need neither dataclasses nor inspect; every genus path
    computes in ints, so no fractions or decimal; and run_selfcheck imports
    signal only to kill its child on an error."""
    assert module not in loaded_by_import


OTHER_MECHANISMS = {"NamedTuple", "namedtuple", "dataclass", "dataclasses"}


def _record_mechanisms(tree: ast.Module) -> list[str]:
    """Every name, attribute or import in a module that reaches NamedTuple,
    namedtuple or dataclasses, and every class statement that passes a
    keyword next to its bases."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.keywords:
            found.append(f"class {node.name}")
        names = [getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "module", None)]
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.name for alias in node.names]
        found += [name for name in names if name in OTHER_MECHANISMS]
    return found


def test_record_is_the_only_record_mechanism():
    """No module of qcff makes a result type any other way, and no class
    passes Record a keyword: the base has no switches."""
    modules = sorted((SRC / "qcff").rglob("*.py"))
    assert len(modules) > 10
    found = {str(path.relative_to(SRC)): _record_mechanisms(ast.parse(path.read_text()))
             for path in modules}
    assert {path: uses for path, uses in found.items() if uses} == {}


def test_the_scan_sees_each_mechanism():
    for code in ("from typing import NamedTuple", "import typing\nclass A(typing.NamedTuple): pass",
                 "from collections import namedtuple", "import collections\ncollections.namedtuple",
                 "from dataclasses import dataclass", "import dataclasses",
                 "class A(Record, frozen=False): pass"):
        assert _record_mechanisms(ast.parse(code)), code
    assert _record_mechanisms(ast.parse("class A(Record):\n    x: int")) == []


def test_record_takes_no_class_keyword():
    with pytest.raises(TypeError):
        type("Mutable", (Record,), {"__annotations__": {"x": "int"}}, frozen=False)
