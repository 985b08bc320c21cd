"""Command line interface.

Verbs:
  report     run the full pipeline on a JSON config and emit the report
  selfcheck  run the exhaustive property suites
  factor     factor one polynomial over F_q
  info       print the version and the loaded kernel backend

Exit codes: 0 ok, 1 selfcheck failure, 2 config error, 3 mathematical
validation error, 4 internal consistency failure. An error's line on
stderr names its class: ``validation error (NotPrimeModulus): ...``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, _kernels
from .algebra import parse_poly, poly_factor
from .algebra.field import prime_divisors_int
from .config import build_field, load_config
from .errors import ConfigError, ConsistencyError, MissingModulus, ValidationError
from .limits import MAX_Q
from .report import _poly_json, render_json, render_text, run_report
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_CONSISTENCY = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcff",
        description="Galois group presentations and genera of "
                    "quasi-cyclotomic function fields over F_q(T)")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="run the pipeline on a JSON config")
    rep.add_argument("--config", required=True, help="path to the JSON config")
    rep.add_argument("--out", help="write the report here instead of stdout")
    rep.add_argument("--cyclotomic-only", action="store_true",
                     help="report only the cyclotomic layer (pairs may be empty)")
    rep.add_argument("--format", choices=("json", "text"), default="json",
                     help="output format (default json)")

    chk = sub.add_parser("selfcheck", help="run the property suites")
    chk.add_argument("--scope", choices=("small", "full"), default="small")
    chk.add_argument("--seed", type=int, default=0)

    fac = sub.add_parser("factor", help="factor a polynomial over F_q")
    fac.add_argument("--q", type=int, required=True, help="field size, an odd prime power")
    fac.add_argument("--poly", required=True, help="polynomial to factor")
    fac.add_argument("--modulus", help="extension modulus over F_p (required for q = p^e, e > 1)")

    sub.add_parser("info", help="print the version and the loaded kernel backend")
    return parser


def _cmd_report(args) -> int:
    cfg = load_config(args.config)
    report = run_report(cfg, cyclotomic_only=args.cyclotomic_only)
    try:
        text = render_json(report) if args.format == "json" else render_text(report)
    except ValueError as exc:  # an int past Python's int-to-str digit limit
        raise ConfigError(f"the report holds an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits, Python's limit "
                          f"for writing an integer as text") from exc
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write report to {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    results = run_selfcheck(args.scope, args.seed)
    ok = True
    for res in results:
        if res.passed:
            print(f"ok   {res.name}  cases={res.cases}")
        else:
            ok = False
            print(f"FAIL {res.name}  cases={res.cases}  "
                  f"failures={len(res.failures)}")
            for failure in res.failures[:10]:
                print(f"     {failure}")
    total = sum(r.cases for r in results)
    good = sum(1 for r in results if r.passed)
    print(f"selfcheck {args.scope}: {good}/{len(results)} suites passed, "
          f"{total} cases")
    return EXIT_OK if ok else EXIT_SELFCHECK


def _split_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p**e; an even q is left to field_create, which
    refuses it as a validation error."""
    if q > MAX_Q:
        raise ConfigError(f"q must be at most MAX_Q = {MAX_Q}")
    primes = prime_divisors_int(q)
    if len(primes) != 1:
        raise ConfigError(f"q = {q} is not a prime power")
    p = primes[0]
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return p, e


def _cmd_factor(args) -> int:
    p, e = _split_prime_power(args.q)
    try:
        ctx = build_field(p, e, args.modulus or None)
    except MissingModulus as exc:
        raise ConfigError(f"q = {args.q} = {p}^{e} needs --modulus") from exc
    f = parse_poly(ctx, args.poly)
    fz = poly_factor(f)
    out = {
        "q": ctx.q,
        "poly": _poly_json(f),
        "lead": fz.lead,
        "factors": [{"prime": _poly_json(pp.prime), "exp": pp.exp,
                     "degree": pp.degree} for pp in fz.factors],
    }
    sys.stdout.write(render_json(out))
    return EXIT_OK


def _cmd_info(args) -> int:
    print(f"qcff {__version__}")
    print(f"backend: {_kernels.backend_name()}")
    if _kernels.IMPORT_ERROR is not None:
        print(f"compiled kernel not loaded: {_kernels.IMPORT_ERROR}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "selfcheck":
            return _cmd_selfcheck(args)
        if args.command == "info":
            return _cmd_info(args)
        return _cmd_factor(args)
    except ConfigError as exc:
        return _fail("config error", exc, EXIT_CONFIG)
    except ConsistencyError as exc:
        return _fail("internal consistency failure", exc, EXIT_CONSISTENCY)
    except ValidationError as exc:
        return _fail("validation error", exc, EXIT_VALIDATION)


def _fail(kind: str, exc: Exception, code: int) -> int:
    # one line on stderr that names the kind of failure and the error's class
    print(f"{kind} ({type(exc).__name__}): {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
