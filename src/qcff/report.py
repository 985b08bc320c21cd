"""Pipeline orchestration: a parsed config -> Tower -> checks -> report.

The structured report is a dict of plain JSON values, a formal sum's
terms aside (see render_json), rendered as canonical JSON (sorted keys,
fixed indentation, trailing newline), so identical configs produce
byte-identical output.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Callable

from . import __version__
from .algebra import Poly, format_poly
from .algebra.poly import _monomial, _wrap
from .config import SCHEMA_VERSION, JobConfig
from .cyclotomic import Conductor, conductor_create, genus_closed_form, genus_riemann_hurwitz
from .errors import ConfigError, ConsistencyError
from .kummer import (
    FormalSum,
    GroupPresentation,
    PairSet,
    RamTable,
    _num_coeffs,
    genus_hasse_formula,
    genus_riemann_hurwitz as kummer_genus_riemann_hurwitz,
    pair_formal_sum,
    pairset_create,
    parity_consistency,
    presentation,
    ramification_table,
    raw_term_count,
)
from .record import Record
from .symbols import check_reciprocity

_ENCODING_NOTE = ("field elements are integers in [0, q): enc = sum digits[i]*p^i "
                  "over the little-endian polynomial basis")
_ORDER_NOTE = ("polynomials ordered by degree, then coefficients from the top "
               "degree down, compared by element encoding")


class _Texts(dict):
    """A dict that fills a missing key with make(key) and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


class _PolyJson(dict):
    """A polynomial's fragment, which many places of a report may share."""
    __slots__ = ()


def _poly_json(f: Poly) -> dict[str, Any]:
    """The {"coeffs", "str"} fragment of f. run_report makes one per
    distinct polynomial of a report, so one format_poly text per
    polynomial, and every place that holds the polynomial holds that one
    fragment; render_json writes its JSON text once per depth per render."""
    return _PolyJson(coeffs=list(f.coeffs), str=format_poly(f))


def _json(value: Any, polys: dict | None = None) -> Any:
    """The report form of a result: a Record becomes the dict of its
    fields, one key per name in its _fields, in that order; a Poly becomes
    its fragment, polys[coeffs] when polys is given, and a tuple a list,
    recursively. Anything else is returned as it is, for render_json to
    accept or reject."""
    if isinstance(value, Poly):
        return _poly_json(value) if polys is None else polys[value.coeffs]
    if isinstance(value, tuple):
        return [_json(item, polys) for item in value]
    if isinstance(value, Record):
        return {name: _json(getattr(value, name), polys) for name in value._fields}
    return value


class Tower(Record):
    """One job's results, as compute_tower computes them: the conductor,
    the pair set and both cyclotomic genera and, unless the job is
    cyclotomic only, the ramification table, the presentation, both Kummer
    genera and, with options.emit_a_pq, each pair's formal sum in pair
    order. A field the job does not compute is None, so a cyclotomic only
    tower has no ramification table."""

    conductor: Conductor
    pairs: PairSet
    genus_closed_form: int
    genus_riemann_hurwitz: int
    ramification: RamTable | None
    presentation: GroupPresentation | None
    genus_hasse_formula: int | None
    kummer_genus_riemann_hurwitz: int | None
    formal_sums: tuple[FormalSum, ...] | None


def compute_tower(cfg: JobConfig, cyclotomic_only: bool = False) -> Tower:
    """The arithmetic of a job, run_report's first stage; it checks no
    result. conductor_create gets the pair members, which name most of an
    unfactored conductor's primes: it divides them out, proves each by
    Ben-Or and factors the cofactor alone, and the residue symbols read
    the proofs' tables. Each pair's raw term count is checked against
    options.a_pq_term_cap before the first formal sum is computed."""
    if not cfg.pairs and not cyclotomic_only:
        raise ConfigError("pair set must be nonempty; pass --cyclotomic-only "
                          "for a report on the cyclotomic layer alone")
    members = [m for pair in cfg.pairs or () if isinstance(pair, (tuple, list)) for m in pair]
    cond = conductor_create(cfg.field, cfg.conductor, members=members)
    genus_closed = genus_closed_form(cond)
    genus_rh = genus_riemann_hurwitz(cond)
    pairs = pairset_create(cond, cfg.pairs) if cfg.pairs else PairSet(pairs=())
    ram = pres = g_hasse = g_rh = sums = None
    if not cyclotomic_only:
        ram = ramification_table(cond, pairs)
        g_hasse = genus_hasse_formula(cond, genus_closed, ram)
        g_rh = kummer_genus_riemann_hurwitz(cond, genus_closed, ram)
        pres = presentation(cond, pairs, ram)
        if cfg.options.emit_a_pq:
            cap = cfg.options.a_pq_term_cap
            for a, b in pairs.pairs:
                if (expected := raw_term_count(a.ctx, a.degree, b.degree)) > cap:
                    raise ConfigError(f"formal sum for ({format_poly(a)}, {format_poly(b)}) has "
                                      f"{expected} raw terms, over the cap {cap}; raise "
                                      f"options.a_pq_term_cap")
            sums = tuple(pair_formal_sum(a, b) for a, b in pairs.pairs)
    return Tower(conductor=cond, pairs=pairs, genus_closed_form=genus_closed,
                 genus_riemann_hurwitz=genus_rh, ramification=ram, presentation=pres,
                 genus_hasse_formula=g_hasse, kummer_genus_riemann_hurwitz=g_rh, formal_sums=sums)


def check_tower(tower: Tower, name: Callable[[Poly], str] = format_poly) -> list[dict[str, Any]]:
    """The internal cross-checks of a tower, run_report's second stage, as
    the report's {"name", "passed"} entries in order: the two cyclotomic
    genera agree and, unless the tower is cyclotomic only, the two Kummer
    genera agree, each pair's reciprocity law holds on the Frobenius tables
    the field keeps, its members named by name, and a single pair keeps
    the parity rule where it applies. The two symbols of each pair also
    rebuild each prime's vbar, which the ramification table took from
    symbol_dlog; a difference raises ConsistencyError naming the prime,
    and so does a failed check."""
    pairs, ram = tower.pairs, tower.ramification
    checks = [{"name": "cyclotomic genus paths agree",
               "passed": tower.genus_closed_form == tower.genus_riemann_hurwitz}]
    if ram is not None:
        checks.append({"name": "kummer genus paths agree",
                       "passed": tower.genus_hasse_formula == tower.kummer_genus_riemann_hurwitz})
        vbar = {row.prime.coeffs: 0 for row in ram.per_prime}
        for a, b in pairs.pairs:
            law = check_reciprocity(a, b)
            checks.append({"name": f"reciprocity for ({name(a)}, {name(b)})",
                           "passed": law.holds})
            vbar[a.coeffs] += law.first_over_second
            vbar[b.coeffs] -= law.second_over_first
        for row in ram.per_prime:
            v = vbar[row.prime.coeffs] % row.prime.ctx.w
            if v != row.vbar:
                raise ConsistencyError(f"vbar of {name(row.prime)} is {v} by the residue "
                                       f"symbols but {row.vbar} in the ramification table")
        if len(pairs.pairs) == 1 and (parity := parity_consistency(pairs, ram)).applicable:
            checks.append({"name": "parity rule (single pair)", "passed": parity.passed})
    if failed := [c["name"] for c in checks if not c["passed"]]:
        raise ConsistencyError(f"internal cross-checks failed: {failed}")
    return checks


def run_report(cfg: JobConfig, *, cyclotomic_only: bool = False) -> dict[str, Any]:
    """The structured report of a job, in three stages: compute_tower,
    check_tower when options.run_oracles is on, then the report dict.
    Every place that holds a polynomial holds its one {"coeffs", "str"}
    dict, a formal-sum term's denominator included, so a change to that
    dict shows at every such place, and the checks name each polynomial by
    that dict's text. A term's numerator is written from monomial texts
    (see FormalTerms), not from a shared dict."""
    tower = compute_tower(cfg, cyclotomic_only)
    ctx, cond, pairs = cfg.field, tower.conductor, tower.pairs.pairs
    # the report's one fragment of each polynomial, by coefficients
    polys = _Texts(lambda coeffs: _poly_json(_wrap(ctx, coeffs)))
    run_oracles = cfg.options.run_oracles
    checks = check_tower(tower, lambda f: polys[f.coeffs]["str"]) if run_oracles else []

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
        "inputs": {
            "conductor": {"poly": polys[cond.M.coeffs], "factors": _json(cond.factors, polys)},
            "options": _json(cfg.options),
            "cyclotomic_only": cyclotomic_only,
            "pairs": _json(pairs, polys),
        },
        "cyclotomic": {
            "phi": cond.phi,
            "conductor_degree": cond.degM,
            "galois_structure": _json(cond.structure),
            "different": _json(cond.different, polys),
            "genus": {"closed_form": tower.genus_closed_form,
                      "riemann_hurwitz": tower.genus_riemann_hurwitz},
        },
        "oracles": {"ran": run_oracles, "checks": checks},
    }
    if not cyclotomic_only:
        kummer = report["kummer"] = {
            "ramification": _json(tower.ramification, polys),
            "presentation": _json(tower.presentation, polys),
            "genus": {"hasse_formula": tower.genus_hasse_formula,
                      "riemann_hurwitz": tower.kummer_genus_riemann_hurwitz},
        }
        if tower.formal_sums is not None:
            # numerators have degree below the largest deg PQ
            monomials = [[_monomial(k, c) for c in range(ctx.q)]
                         for k in range(max(a.degree + b.degree for a, b in pairs))]
            kummer["formal_sums"] = [
                {"pair": [polys[a.coeffs], polys[b.coeffs]], "raw_terms": fs.raw_terms,
                 "terms": FormalTerms(fs.groups, monomials, polys)}
                for (a, b), fs in zip(pairs, tower.formal_sums)]
    return report


# A numerator's first LOW_BLOCK coefficients are its low block and the rest
# its high block; FormalTerms.write_json makes each block's text once per
# call. Over the benchmark's formal sums (F_3 to F_9) the text took 1.7x as
# long with 1, 1.4x with 3 and 3.6x with 4 (pure Python 3.11, in process).
LOW_BLOCK = 2


class FormalTerms:
    """The terms of one formal sum in a report, held as FormalSum.groups.
    Iterated, it gives the plain {"coeff", "den", "num"} dicts of its
    classes in order; render_json writes it as the JSON text of their list,
    without making them. monomials[k][c] is the text of c*T^k for every c
    and every k below the numerators' largest length, and row 0 also that
    of each coefficient. polys is the report's fragment of each polynomial,
    by coefficients, and each "den" is its denominator's.

    write_json appends one text per term to render_json's list of pieces,
    so the one join there is the only copy of the long text. It makes each
    part once per call, and decodes coefficients only then: per
    denominator and coefficient n, a term's opening; per low block (index
    v % q**LOW_BLOCK, the first LOW_BLOCK coefficients), its "coeffs" lines
    and its close (its nonzero monomials, "+" first unless none, and the
    term's end); per high block (v // q**LOW_BLOCK), its lines, the text up
    to the "str" value and its monomials. As "coeffs" runs up and "str"
    down, a term is: opening, low lines, high piece, low close. A numerator
    with v < q**LOW_BLOCK is one part after its opening."""

    __slots__ = ("groups", "monomials", "polys")

    def __init__(self, groups: tuple, monomials: list[list[str]], polys: dict):
        self.groups = groups
        self.monomials = monomials
        self.polys = polys

    def __iter__(self):
        for den, nums in self.groups:
            for v, n in nums:
                yield {"coeff": n, "den": self.polys[den.coeffs],
                       "num": _poly_json(_wrap(den.ctx, _num_coeffs(v, den.ctx.q)))}

    def write_json(self, depth: int, out: list[str], texts: dict) -> None:
        """Append to out the JSON text of the list of term dicts, nested
        depth levels deep, as json.dumps(sort_keys=True, indent=2) writes
        it: one piece per term, led by its separator, "," and a newline,
        or by "[" and a newline for the first, then one piece closing the
        list; or the one piece "[]". texts is the render's, as in _emit,
        which writes each denominator's fragment."""
        i1, i2, i3, i4 = ("\n" + "  " * (depth + k) for k in range(1, 5))
        monomials, digits = self.monomials, self.monomials[0]
        comma, head, mid = "," + i4, f',{i1}{{{i2}"coeff": ', f'{i3}],{i3}"str": "'
        close = f'"{i2}}}{i1}}}'
        q = self.groups[0][0].ctx.q
        base = q ** LOW_BLOCK

        # the monomials hold only digits, "T", "^" and "*", which JSON
        # writes as they are
        def lines(block):
            return comma.join(map(digits.__getitem__, block))

        def terms(block, k):  # "+"-joined, top first; block[0] is the coefficient of T^k
            return "+".join([row[c] for row, c in zip(monomials[k:], block) if c][::-1])

        def whole(v):
            num = _num_coeffs(v, q)
            return f"{lines(num)}{mid}{terms(num, 0)}{close}"

        def low(v):  # the lines and the close
            block = _num_coeffs(v, q, LOW_BLOCK)
            text = terms(block, 0)
            return lines(block), f"+{text}{close}" if text else close

        def high(v):
            block = _num_coeffs(v, q)
            return f"{comma}{lines(block)}{mid}{terms(block, LOW_BLOCK)}"

        wholes, lows, highs = _Texts(whole), _Texts(low), _Texts(high)
        first = len(out)
        for den, nums in self.groups:
            den_parts: list[str] = []
            _emit(self.polys[den.coeffs], depth + 2, den_parts, texts)
            num_open = f',{i2}"den": {"".join(den_parts)},{i2}"num": {{{i3}"coeffs": [{i4}'
            opens = {n: f"{head}{n}{num_open}" for n in {n for _, n in nums}}
            out += [f"{opens[n]}{wholes[v]}" if v < base else
                    f"{opens[n]}{(lo := lows[v % base])[0]}{highs[v // base]}{lo[1]}"
                    for v, n in nums]
        if len(out) == first:
            out.append("[]")
            return
        out[first] = "[" + out[first][1:]
        out.append("\n" + "  " * depth + "]")


def render_json(report: dict[str, Any]) -> str:
    """Canonical JSON: sorted keys, two-space indent, ASCII escapes,
    trailing newline; the same text as the json module's dumps with
    sort_keys=True, indent=2 and ensure_ascii=True, plus a newline.

    A report holds only dict (with str keys), list, str, int, bool and
    None, and two other types. The "terms" of each entry of
    kummer.formal_sums is a FormalTerms, written as the JSON list of the
    term dicts it iterates as. A polynomial's fragment (_poly_json) is
    shared by every place of the report that holds it: one text per
    polynomial, and one JSON text per depth in each render, made afresh
    by the next render.
    Every value appends its text to one list of pieces, a FormalTerms one
    piece per term, and one join at the end makes the only copy of the
    whole text. Anything else (a float, a tuple, a set, a Poly, a non-str
    key) raises TypeError naming its type. An int longer than Python's
    limit for writing an integer as text (sys.get_int_max_str_digits(),
    4300 digits by default) raises ValueError, as in the json module.
    """
    out: list[str] = []
    _emit(report, 0, out, {})
    out.append("\n")
    return "".join(out)


_INT_LIST = {int}


def _emit(value: Any, depth: int, out: list[str], texts: dict) -> None:
    """Append the JSON text of value, nested depth levels deep, to out.
    texts keeps the text of each fragment written so far, by its id and
    depth; the report holds every fragment, so no id is reused meanwhile.

    A module-level function, not a closure calling itself: that closure
    would be a reference cycle holding out until the cyclic collector runs.
    """
    kind = type(value)
    if kind is str:
        out.append(_json_str(value))
    elif kind is int:
        out.append(repr(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        indent = "\n" + "  " * (depth + 1)
        lead = "{" + indent
        for name in sorted(value):
            if type(name) is not str:
                raise TypeError(f"report keys must be str, not {type(name).__name__}")
            out.append(lead + _json_str(name) + ": ")
            _emit(value[name], depth + 1, out, texts)
            lead = "," + indent
        out.append("\n" + "  " * depth + "}")
    elif kind is list:
        if set(map(type, value)) <= _INT_LIST:
            out.append(_int_list_text(value, depth))
            return
        indent = "\n" + "  " * (depth + 1)
        lead = "[" + indent
        for item in value:
            out.append(lead)
            _emit(item, depth + 1, out, texts)
            lead = "," + indent
        out.append("\n" + "  " * depth + "]")
    elif kind is _PolyJson:
        key = (id(value), depth)
        if key not in texts:
            parts: list[str] = []
            _emit(dict(value), depth, parts, texts)
            texts[key] = "".join(parts)
        out.append(texts[key])
    elif kind is FormalTerms:
        value.write_json(depth, out, texts)
    else:
        raise TypeError(f"a report cannot hold {kind.__name__}")


def _int_list_text(items: list[int], depth: int) -> str:
    """JSON text of a list of ints nested depth levels deep, one item a
    line as json.dumps(indent=2) writes it, or "[]" when it is empty."""
    if not items:
        return "[]"
    indent = "\n" + "  " * (depth + 1)
    return "[" + indent + ("," + indent).join(map(repr, items)) + "\n" + "  " * depth + "]"


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
