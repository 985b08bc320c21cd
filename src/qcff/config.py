"""Job configuration: schema validation and loading.

The config is a JSON object; polynomials may be written either as ascending
arrays of encoded coefficients or as strings like "2*T^2+T+1".

    {
      "schema_version": 1,            // optional, must equal 1 when present
      "p": 3,                         // odd prime characteristic, p^e <= MAX_Q
      "e": 1,                         // extension degree, default 1
      "modulus": "T^2+1",             // required iff e > 1
      "rng_seed": 0,                  // factorization seed, default 0
      "conductor": {"poly": "T^2+T"}  // or {"factors": [["T", 1], ["T+1", 1]]}
      "pairs": [["T", "T+1"]],
      "options": {}                   // optional; keys and defaults: Options
    }

Only schema-level checks happen here; mathematical validation (primality,
orientation, coprimality) happens when the pipeline ingests the values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Union

from .errors import ConfigError

SCHEMA_VERSION = 1

# Largest field size accepted from input: field_create builds exp/log tables
# of q entries, and `qcff factor` trial-divides q up to its square root.
MAX_Q = 2 ** 16

PolySpec = Union[str, list]

_TOP_KEYS = {"schema_version", "p", "e", "modulus", "rng_seed", "conductor",
             "pairs", "options"}


@dataclass(frozen=True)
class Options:
    """The "options" object of a config; every field is a key, echoed in the
    report's inputs.options.

    validate_primality re-runs the irreducibility test on both members of
    each pair inside the reciprocity oracle. It cannot change a report or an
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
    p: int
    e: int = 1
    modulus: PolySpec | None = None
    rng_seed: int = 0
    conductor_poly: PolySpec | None = None
    conductor_factors: tuple[tuple[PolySpec, int], ...] | None = None
    pairs: tuple[tuple[PolySpec, PolySpec], ...] = ()
    options: Options = field(default_factory=Options)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value: Any) -> bool:
    # bool is a subclass of int, but true/false are not integers in a config
    return isinstance(value, int) and not isinstance(value, bool)


def _check_poly_spec(value: Any, where: str) -> PolySpec:
    if isinstance(value, str):
        _expect(bool(value.strip()), f"{where}: empty polynomial string")
        return value
    if isinstance(value, list):
        _expect(all(_is_int(c) and c >= 0 for c in value),
                f"{where}: coefficient arrays must hold nonnegative integers")
        return value
    raise ConfigError(f"{where}: expected a polynomial string or coefficient array, "
                      f"got {type(value).__name__}")


def parse_config(raw: Any) -> JobConfig:
    """Validate a decoded JSON object against the config schema."""
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

    modulus = raw.get("modulus")
    if modulus is not None:
        modulus = _check_poly_spec(modulus, "'modulus'")

    rng_seed = raw.get("rng_seed", 0)
    _expect(_is_int(rng_seed), "'rng_seed' must be an integer")

    _expect("conductor" in raw, "config key 'conductor' is required")
    cond = raw["conductor"]
    _expect(isinstance(cond, dict) and set(cond) in ({"poly"}, {"factors"}),
            "'conductor' must be {\"poly\": ...} or {\"factors\": [...]}")
    conductor_poly = None
    conductor_factors = None
    if "poly" in cond:
        conductor_poly = _check_poly_spec(cond["poly"], "'conductor.poly'")
    else:
        entries = cond["factors"]
        _expect(isinstance(entries, list) and entries,
                "'conductor.factors' must be a nonempty array")
        checked = []
        for i, entry in enumerate(entries):
            _expect(isinstance(entry, list) and len(entry) == 2,
                    f"'conductor.factors[{i}]' must be a [poly, exponent] pair")
            prime = _check_poly_spec(entry[0], f"'conductor.factors[{i}][0]'")
            exp = entry[1]
            _expect(_is_int(exp) and exp >= 1,
                    f"'conductor.factors[{i}][1]' must be an integer >= 1")
            checked.append((prime, exp))
        conductor_factors = tuple(checked)

    raw_pairs = raw.get("pairs", [])
    _expect(isinstance(raw_pairs, list), "'pairs' must be an array")
    pairs = []
    for i, entry in enumerate(raw_pairs):
        _expect(isinstance(entry, list) and len(entry) == 2,
                f"'pairs[{i}]' must be a [poly, poly] pair")
        pairs.append((_check_poly_spec(entry[0], f"'pairs[{i}][0]'"),
                      _check_poly_spec(entry[1], f"'pairs[{i}][1]'")))

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
    options = Options(**opt_raw)

    return JobConfig(p=p, e=e, modulus=modulus, rng_seed=rng_seed,
                     conductor_poly=conductor_poly,
                     conductor_factors=conductor_factors,
                     pairs=tuple(pairs), options=options)


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
