"""Job configuration: from JSON to the field and polynomials of one job.

The config is a JSON object; polynomials may be written either as ascending
arrays of encoded coefficients or as strings like "2*T^2+T+1".

    {
      "schema_version": 1,            // optional, must equal 1 when present
      "p": 3,                         // odd prime characteristic, p^e <= MAX_Q
      "e": 1,                         // extension degree, default 1
      "modulus": "T^2+1",             // required iff e > 1
      "rng_seed": 0,                  // integer, default 0; echoed only, no effect
      "conductor": {"poly": "T^2+T"}  // or {"factors": [["T", 1], ["T+1", 1]]}
      "pairs": [["T", "T+1"]],
      "options": {}                   // optional; keys and defaults: Options
    }

parse_config builds the field and every polynomial, and nothing else reads
the config; run_report checks the mathematics of the conductor and pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .algebra import FieldCtx, Poly, field_create, parse_poly
from .errors import ConfigError, ValidationError
from .limits import MAX_DEGREE, MAX_Q

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "p", "e", "modulus", "rng_seed", "conductor",
             "pairs", "options"}


@dataclass(frozen=True)
class Options:
    """The "options" object of a config; every field is a key, echoed in the
    report's inputs.options.

    validate_primality re-runs the irreducibility test on each distinct pair
    prime before the reciprocity oracle. It cannot change a report or an
    exit code: every pair member is a conductor prime, and conductor primes
    are always validated.
    emit_a_pq adds the formal sum of each pair, refused when a pair has more
    than a_pq_term_cap raw terms; run_oracles runs the internal cross-checks.
    """

    validate_primality: bool = True
    emit_a_pq: bool = False
    run_oracles: bool = True
    a_pq_term_cap: int = 1_000_000


@dataclass(frozen=True)
class JobConfig:
    """One job's inputs; conductor is in either form conductor_create takes."""

    field: FieldCtx
    conductor: Poly | tuple[tuple[Poly, int], ...]
    pairs: tuple[tuple[Poly, Poly], ...]
    rng_seed: int
    options: Options


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value: Any) -> bool:
    # bool is a subclass of int, but true/false are not integers in a config
    return isinstance(value, int) and not isinstance(value, bool)


def _poly(ctx: FieldCtx, value: Any, where: str) -> Poly:
    """The polynomial a config value spells: text, or an ascending array of
    encoded coefficients. where names the value in error messages."""
    if isinstance(value, str):
        _expect(bool(value.strip()), f"{where}: empty polynomial string")
        return parse_poly(ctx, value)
    if isinstance(value, list):
        _expect(len(value) <= MAX_DEGREE + 1,
                f"{where}: more than MAX_DEGREE + 1 = {MAX_DEGREE + 1} coefficients")
        _expect(all(_is_int(c) and c >= 0 for c in value),
                f"{where}: coefficient arrays must hold nonnegative integers")
        try:
            return Poly(ctx, value)
        except ValidationError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: expected a polynomial string or coefficient array, "
                      f"got {type(value).__name__}")


def build_field(p: int, e: int, modulus: Any) -> FieldCtx:
    """Field context for F_{p^e}; a given modulus is read over F_p and left
    to field_create to accept or reject, whatever e is. The modulus carries
    its F_p, so field_create builds its tables over that one."""
    if modulus is not None:
        modulus = _poly(field_create(p, 1), modulus, "'modulus'")
    return field_create(p, e, modulus)


def parse_config(raw: Any) -> JobConfig:
    """Validate a decoded JSON object and build the job's inputs. Errors are
    found in this order: (1) the schema checks, which read no polynomial
    (ConfigError, exit 2); (2) the field from p, e and the modulus (exit 2
    for a malformed modulus, a ValidationError, exit 3, for a non-prime or
    even p or a bad modulus); (3) the polynomials, conductor before pairs:
    text, array shape, coefficients in F_q and MAX_DEGREE, which also bounds
    a claimed factorization's product (exit 2)."""
    _expect(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    _expect(not unknown, f"unknown config keys: {sorted(unknown)}")

    if "schema_version" in raw:
        _expect(_is_int(raw["schema_version"]) and raw["schema_version"] == SCHEMA_VERSION,
                f"unsupported schema_version {raw['schema_version']!r}")

    _expect("p" in raw, "config key 'p' is required")
    p = raw["p"]
    _expect(_is_int(p) and p >= 2, "'p' must be an integer >= 2")

    e = raw.get("e", 1)
    _expect(_is_int(e) and e >= 1, "'e' must be an integer >= 1")
    # bound e before taking p ** e: as p >= 2, any e past MAX_Q's bit length exceeds it
    _expect(p <= MAX_Q and e <= MAX_Q.bit_length() and p ** e <= MAX_Q,
            f"q = p^e must be at most MAX_Q = {MAX_Q}")

    rng_seed = raw.get("rng_seed", 0)
    _expect(_is_int(rng_seed), "'rng_seed' must be an integer")

    _expect("conductor" in raw, "config key 'conductor' is required")
    cond = raw["conductor"]
    _expect(isinstance(cond, dict) and set(cond) in ({"poly"}, {"factors"}),
            "'conductor' must be {\"poly\": ...} or {\"factors\": [...]}")
    if "factors" in cond:
        entries = cond["factors"]
        _expect(isinstance(entries, list) and entries,
                "'conductor.factors' must be a nonempty array")
        for i, entry in enumerate(entries):
            _expect(isinstance(entry, list) and len(entry) == 2,
                    f"'conductor.factors[{i}]' must be a [poly, exponent] pair")
            _expect(_is_int(entry[1]) and entry[1] >= 1,
                    f"'conductor.factors[{i}][1]' must be an integer >= 1")

    raw_pairs = raw.get("pairs", [])
    _expect(isinstance(raw_pairs, list), "'pairs' must be an array")
    for i, entry in enumerate(raw_pairs):
        _expect(isinstance(entry, list) and len(entry) == 2,
                f"'pairs[{i}]' must be a [poly, poly] pair")

    opt_raw = raw.get("options", {})
    _expect(isinstance(opt_raw, dict), "'options' must be an object")
    option_fields = fields(Options)
    unknown = set(opt_raw) - {f.name for f in option_fields}
    _expect(not unknown, f"unknown option keys: {sorted(unknown)}")
    for f in option_fields:
        value = opt_raw.get(f.name, f.default)
        if isinstance(f.default, bool):
            _expect(isinstance(value, bool), f"option '{f.name}' must be a boolean")
        else:
            _expect(_is_int(value) and value >= 1, f"option '{f.name}' must be a positive integer")

    ctx = build_field(p, e, raw.get("modulus"))
    if "poly" in cond:
        conductor = _poly(ctx, cond["poly"], "'conductor.poly'")
    else:
        conductor = tuple((_poly(ctx, prime, f"'conductor.factors[{i}]'"), exp)
                          for i, (prime, exp) in enumerate(cond["factors"]))
        # constants and 0 count 0: conductor_create rejects them before the product
        degree = sum(max(prime.degree, 0) * exp for prime, exp in conductor)
        _expect(degree <= MAX_DEGREE, f"'conductor.factors': the product has degree "
                                      f"{degree}, past MAX_DEGREE = {MAX_DEGREE}")
    pairs = tuple((_poly(ctx, a, f"'pairs[{i}][0]'"), _poly(ctx, b, f"'pairs[{i}][1]'"))
                  for i, (a, b) in enumerate(raw_pairs))
    return JobConfig(field=ctx, conductor=conductor, pairs=pairs,
                     rng_seed=rng_seed, options=Options(**opt_raw))


def load_config(path: str | Path) -> JobConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer past Python's limit on int digits
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config file {path} is nested too deeply") from exc
    return parse_config(raw)
