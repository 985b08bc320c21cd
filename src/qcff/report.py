"""Pipeline orchestration: config -> field -> conductor -> pairs -> report.

The structured report is a plain dict rendered as canonical JSON
(sorted keys, fixed indentation, trailing newline), so identical configs
and seeds produce byte-identical output.
"""

from __future__ import annotations

import json
import random
from typing import Any

from . import __version__
from .algebra import FieldCtx, Poly, field_create, format_poly, parse_poly
from .config import SCHEMA_VERSION, JobConfig, PolySpec
from .cyclotomic import (
    Conductor,
    conductor_create,
    different_data,
    galois_structure,
    genus_closed_form,
    genus_riemann_hurwitz,
)
from .errors import ConfigError, ConsistencyError, ValidationError
from .kummer import (
    PairSet,
    genus_hasse_formula,
    genus_riemann_hurwitz as kummer_genus_riemann_hurwitz,
    pair_formal_sum,
    pairset_create,
    parity_consistency,
    presentation,
    ramification_table,
    raw_term_count,
)
from .symbols import check_reciprocity

_ENCODING_NOTE = ("field elements are integers in [0, q): enc = sum digits[i]*p^i "
                  "over the little-endian polynomial basis")
_ORDER_NOTE = ("polynomials ordered by degree, then coefficients from the top "
               "degree down, compared by element encoding")


def _resolve_poly(ctx: FieldCtx, value: PolySpec, where: str) -> Poly:
    if isinstance(value, str):
        return parse_poly(ctx, value)
    try:
        return Poly(ctx, value)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _poly_json(f: Poly) -> dict[str, Any]:
    return {"coeffs": list(f.coeffs), "str": format_poly(f)}


def build_context(cfg: JobConfig) -> FieldCtx:
    """Field context from config; a given modulus is parsed over F_p and left
    to field_create to accept or reject, whatever e is."""
    modulus = None
    if cfg.modulus is not None:
        modulus = _resolve_poly(field_create(cfg.p, 1), cfg.modulus, "'modulus'").coeffs
    return field_create(cfg.p, cfg.e, modulus)


def build_conductor(ctx: FieldCtx, cfg: JobConfig, rng: random.Random) -> Conductor:
    if cfg.conductor_poly is not None:
        return conductor_create(ctx, _resolve_poly(ctx, cfg.conductor_poly,
                                                   "'conductor.poly'"), rng)
    assert cfg.conductor_factors is not None
    pairs = [(_resolve_poly(ctx, spec, f"'conductor.factors[{i}]'"), exp)
             for i, (spec, exp) in enumerate(cfg.conductor_factors)]
    return conductor_create(ctx, pairs, rng)


def build_pairs(ctx: FieldCtx, cond: Conductor, cfg: JobConfig) -> PairSet:
    raw = [(_resolve_poly(ctx, a, f"'pairs[{i}][0]'"),
            _resolve_poly(ctx, b, f"'pairs[{i}][1]'"))
           for i, (a, b) in enumerate(cfg.pairs)]
    return pairset_create(cond, raw)


def run_report(cfg: JobConfig, *, cyclotomic_only: bool = False,
               ignore_term_cap: bool = False) -> dict[str, Any]:
    """Execute the full pipeline and return the structured report."""
    if not cfg.pairs and not cyclotomic_only:
        raise ConfigError("pair set must be nonempty; pass --cyclotomic-only "
                          "for a report on the cyclotomic layer alone")
    ctx = build_context(cfg)
    rng = random.Random(cfg.rng_seed)
    cond = build_conductor(ctx, cfg, rng)

    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "qcff", "version": __version__},
        "conventions": {
            "element_encoding": _ENCODING_NOTE,
            "polynomial_order": _ORDER_NOTE,
            "gamma": {"enc": ctx.gamma, "digits": list(ctx.digits(ctx.gamma))},
            "rng_seed": cfg.rng_seed,
        },
        "field": {
            "p": ctx.p, "e": ctx.e, "q": ctx.q, "w": ctx.w,
            "modulus": list(ctx.modulus) if ctx.modulus is not None else None,
        },
    }

    structure = galois_structure(cond)
    diff = different_data(cond)
    genus_closed = genus_closed_form(cond)
    genus_rh = genus_riemann_hurwitz(cond)

    report["inputs"] = {
        "conductor": {
            "poly": _poly_json(cond.M),
            "factors": [{"prime": _poly_json(pp.prime), "exp": pp.exp,
                         "degree": pp.d, "norm": pp.norm} for pp in cond.factors],
        },
        "options": {
            "validate_primality": cfg.options.validate_primality,
            "emit_a_pq": cfg.options.emit_a_pq,
            "run_oracles": cfg.options.run_oracles,
            "a_pq_term_cap": cfg.options.a_pq_term_cap,
        },
        "cyclotomic_only": cyclotomic_only,
    }
    report["cyclotomic"] = {
        "phi": cond.phi,
        "conductor_degree": cond.degM,
        "galois_structure": {
            "cyclic_orders": list(structure.cyclic_orders),
            "p_part_order": structure.p_part_order,
            "total_order": structure.total_order,
        },
        "different": {
            "per_prime": [{"prime": _poly_json(row.prime), "degree": row.d,
                           "exp": row.r, "s": row.s,
                           "phi_cofactor": row.phi_cofactor}
                          for row in diff.per_prime],
            "infinite_count": diff.infinite_count,
            "infinite_coefficient": diff.infinite_coefficient,
        },
        "genus": {"closed_form": genus_closed, "riemann_hurwitz": genus_rh},
    }

    checks: list[dict[str, Any]] = []
    if cfg.options.run_oracles:
        checks.append({"name": "cyclotomic genus paths agree",
                       "passed": genus_closed == genus_rh})

    if cyclotomic_only:
        report["inputs"]["pairs"] = [
            [_poly_json(_resolve_poly(ctx, a, "'pairs'")),
             _poly_json(_resolve_poly(ctx, b, "'pairs'"))]
            for a, b in cfg.pairs]
    else:
        pairs = build_pairs(ctx, cond, cfg)
        report["inputs"]["pairs"] = [[_poly_json(a), _poly_json(b)]
                                     for a, b in pairs.pairs]
        ram = ramification_table(cond, pairs)
        pres = presentation(cond, pairs, ram)
        g_hasse = genus_hasse_formula(cond, pairs, genus_closed, ram)
        g_rh = kummer_genus_riemann_hurwitz(cond, pairs, genus_closed, ram)

        kummer_block: dict[str, Any] = {
            "ramification": {
                "per_prime": [{"prime": _poly_json(row.prime),
                               "vbar": row.vbar, "e": row.e} for row in ram.rows],
                "pair_parities": [
                    {"pair": [_poly_json(pp.pair[0]), _poly_json(pp.pair[1])],
                     "d_first_mod2": pp.d_first_mod2,
                     "d_second_mod2": pp.d_second_mod2,
                     "radicand": _poly_json(pp.radicand) if pp.radicand is not None else None}
                    for pp in ram.pair_parities],
            },
            "presentation": {
                "epsilon_order": pres.epsilon_order,
                "p_part_order": pres.p_part_order,
                "group_order": pres.group_order,
                "generators": [{"name": g.name, "prime": _poly_json(g.prime),
                                "base_order": g.base_order,
                                "lift_order": g.lift_order,
                                "central": g.central} for g in pres.generators],
                "relations": [{"left": r.left, "right": r.right,
                               "epsilon_exponent": r.epsilon_exponent}
                              for r in pres.relations],
            },
            "genus": {"hasse_formula": g_hasse, "riemann_hurwitz": g_rh},
        }

        if cfg.options.emit_a_pq:
            kummer_block["formal_sums"] = _formal_sums_block(
                pairs, cfg.options.a_pq_term_cap, ignore_term_cap)

        report["kummer"] = kummer_block

        if cfg.options.run_oracles:
            checks.append({"name": "kummer genus paths agree",
                           "passed": g_hasse == g_rh})
            for a, b in pairs.pairs:
                checks.append({
                    "name": f"reciprocity for ({format_poly(a)}, {format_poly(b)})",
                    "passed": check_reciprocity(
                        a, b, validate=cfg.options.validate_primality)})
            if len(pairs.pairs) == 1:
                parity = parity_consistency(pairs, ram)
                if parity.applicable:
                    checks.append({"name": "parity rule (single pair)",
                                   "passed": parity.passed})

    report["oracles"] = {"ran": cfg.options.run_oracles, "checks": checks}
    failed = [c["name"] for c in checks if not c["passed"]]
    if failed:
        raise ConsistencyError(f"internal cross-checks failed: {failed}")
    return report


def _formal_sums_block(pairs: PairSet, cap: int, ignore_cap: bool) -> list[dict]:
    out = []
    for a, b in pairs.pairs:
        expected = raw_term_count(a.ctx, a.degree, b.degree)
        if not ignore_cap and expected > cap:
            raise ConfigError(
                f"formal sum for ({format_poly(a)}, {format_poly(b)}) has "
                f"{expected} raw terms, over the cap {cap}; raise "
                f"options.a_pq_term_cap or pass --force-a-pq")
        fs = pair_formal_sum(a, b)
        out.append({
            "pair": [_poly_json(a), _poly_json(b)],
            "raw_terms": fs.raw_terms,
            "terms": [{"num": _poly_json(c.num), "den": _poly_json(c.den),
                       "coeff": n} for c, n in fs.terms],
        })
    return out


def render_json(report: dict[str, Any]) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def render_text(report: dict[str, Any]) -> str:
    """Human-readable summary of a structured report."""
    lines = []
    fld = report["field"]
    lines.append(f"qcff report (schema {report['schema_version']}, "
                 f"tool {report['tool']['version']})")
    lines.append(f"field: q = {fld['q']} (p = {fld['p']}, e = {fld['e']}), "
                 f"w = {fld['w']}, gamma enc {report['conventions']['gamma']['enc']}")
    cond = report["inputs"]["conductor"]
    factors = " ".join(f"({f['prime']['str']})^{f['exp']}" for f in cond["factors"])
    cyc = report["cyclotomic"]
    lines.append(f"conductor: M = {cond['poly']['str']} = {factors}, "
                 f"deg {cyc['conductor_degree']}, Phi(M) = {cyc['phi']}")
    gs = cyc["galois_structure"]
    lines.append(f"unit group: cyclic orders {gs['cyclic_orders']}, "
                 f"p-part {gs['p_part_order']}, total {gs['total_order']}")
    lines.append(f"cyclotomic genus: {cyc['genus']['closed_form']} (closed form), "
                 f"{cyc['genus']['riemann_hurwitz']} (Riemann-Hurwitz)")
    if "kummer" in report:
        kum = report["kummer"]
        pair_strs = ", ".join(f"({a['str']}, {b['str']})"
                              for a, b in report["inputs"]["pairs"])
        lines.append(f"pairs: {pair_strs}")
        ram = ", ".join(f"e({row['prime']['str']}) = {row['e']} [vbar {row['vbar']}]"
                        for row in kum["ramification"]["per_prime"])
        lines.append(f"ramification: {ram}")
        pres = kum["presentation"]
        lines.append(f"presentation: group order {pres['group_order']}, "
                     f"epsilon order {pres['epsilon_order']}, "
                     f"p-part {pres['p_part_order']}")
        for g in pres["generators"]:
            central = ", central" if g["central"] else ""
            lines.append(f"  {g['name']}: base order {g['base_order']}, "
                         f"lift order {g['lift_order']}{central}")
        for r in pres["relations"]:
            lines.append(f"  relation: {r['left']} {r['right']} = "
                         f"{r['right']} {r['left']} eps^{r['epsilon_exponent']}")
        lines.append(f"kummer genus: {kum['genus']['hasse_formula']} (Hasse formula), "
                     f"{kum['genus']['riemann_hurwitz']} (Riemann-Hurwitz)")
        for block in kum.get("formal_sums", ()):
            terms = " ".join(f"{'+' if t['coeff'] > 0 else ''}{t['coeff']}*"
                             f"[({t['num']['str']})/({t['den']['str']})]"
                             for t in block["terms"])
            lines.append(f"formal sum ({block['pair'][0]['str']}, "
                         f"{block['pair'][1]['str']}): {terms} "
                         f"[{block['raw_terms']} raw terms]")
    oracles = report["oracles"]
    if oracles["ran"]:
        passed = sum(1 for c in oracles["checks"] if c["passed"])
        lines.append(f"oracles: {passed}/{len(oracles['checks'])} passed")
    else:
        lines.append("oracles: skipped")
    return "\n".join(lines) + "\n"
