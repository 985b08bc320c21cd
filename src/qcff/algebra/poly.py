"""Polynomials over F_q: the ring the whole computation lives in.

A Poly is an immutable ascending coefficient tuple (encoded field elements,
no trailing zeros) bound to its FieldCtx. The zero polynomial has an empty
tuple and degree -1 (the distinguished "degree of zero" marker).
"""

from __future__ import annotations

import re
import sys
from itertools import product
from typing import Iterable, Iterator

from ..errors import (
    ConfigError,
    DivisionByZero,
    GcdOfZeros,
    NonpositiveBound,
    ValidationError,
)
from ..limits import MAX_DEGREE
from .field import FieldCtx


class Poly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable[int]):
        if not isinstance(ctx, FieldCtx):
            raise ValidationError(f"a Poly is built over a FieldCtx, not {ctx!r}")
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int or not 0 <= c < ctx.q:  # a bool is no element
                raise ValidationError(f"coefficient {c!r} is not an encoded element of F_{ctx.q}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- structure -------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ValidationError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic -------------------------------------------------------------

    def _arith(self, other, op: str, reflected: bool = False):
        """self op other, or other op self when reflected, by the kernel's
        binary op named op; pdivrem gives a (quotient, remainder) pair. An
        int other is a constant; any other non-Poly gives NotImplemented, as
        Python's operator protocol asks, and a Poly of another field
        ValidationError. prem and pdivrem refuse a zero divisor."""
        if isinstance(other, int):
            other = Poly(self.ctx, [other] if other else [])
        elif not isinstance(other, Poly):
            return NotImplemented
        ctx = _same_field(self, other)
        a, b = (other.coeffs, self.coeffs) if reflected else (self.coeffs, other.coeffs)
        if not b and op in ("prem", "pdivrem"):
            raise DivisionByZero("polynomial division by zero")
        out = getattr(ctx.kernel, op)(a, b)
        if op == "pdivrem":
            return _wrap(ctx, out[0]), _wrap(ctx, out[1])
        return _wrap(ctx, out)

    def __add__(self, other):
        return self._arith(other, "padd")

    __radd__ = __add__

    def __sub__(self, other):
        return self._arith(other, "psub")

    def __rsub__(self, other):
        return self._arith(other, "psub", True)

    def __neg__(self):
        return _wrap(self.ctx, self.ctx.kernel.pscale(self.coeffs, self.ctx.minus_one))

    def __mul__(self, other):
        return self._arith(other, "pmul")

    __rmul__ = __mul__

    def __mod__(self, other):
        return self._arith(other, "prem")

    def scale(self, c: int) -> "Poly":
        """Product with the encoded field element c."""
        self.ctx._check_elem(c)
        return _wrap(self.ctx, self.ctx.kernel.pscale(self.coeffs, c))

    def __divmod__(self, other):
        return self._arith(other, "pdivrem")

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:  # a bool is no exponent
            raise ValidationError("polynomial powers must be nonnegative integers")
        acc = Poly(self.ctx, [1])
        base = self
        while n > 0:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def to_monic(self) -> "Poly":
        return _wrap(self.ctx, self.ctx.kernel.pmonic(self.coeffs))

    def derivative(self) -> "Poly":
        return _wrap(self.ctx, coeffs_derivative(self.ctx, self.coeffs))

    def eval_at(self, x: int) -> int:
        """Horner evaluation at an encoded field element."""
        ctx = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = ctx.kernel.fadd(ctx.kernel.fmul(acc, x), c)
        return acc

    # -- ordering / identity ----------------------------------------------------

    @property
    def sort_key(self) -> tuple:
        """Key of the canonical order (see poly_cmp) among polynomials of one
        field: coeffs_sort_key of the coefficients."""
        return coeffs_sort_key(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.coeffs == other.coeffs
                and (self.ctx is other.ctx or self.ctx == other.ctx))

    def __hash__(self) -> int:
        return hash((self.ctx, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r}, q={self.ctx.q})"

    def __str__(self) -> str:
        return format_poly(self)


def _wrap(ctx: FieldCtx, coeffs: list[int]) -> Poly:
    out = object.__new__(Poly)
    object.__setattr__(out, "ctx", ctx)
    object.__setattr__(out, "coeffs", tuple(coeffs))
    return out


def coeffs_derivative(ctx: FieldCtx, coeffs) -> list[int]:
    """The formal derivative of a coefficient sequence, stripped. The integer
    i % p is the encoding of i in the prime field, so the coefficient i * c
    of T^(i-1) is one product."""
    fmul, p = ctx.kernel.fmul, ctx.p
    return ctx.kernel.padd([fmul(c, i % p) for i, c in enumerate(coeffs) if i], ())


def coeffs_sort_key(coeffs: tuple) -> tuple:
    """Key of the canonical order on coefficient tuples of one field: degree
    first, then coefficients from the top down, compared by encoding."""
    return (len(coeffs), coeffs[::-1])


def _same_field(*polys) -> FieldCtx:
    """The one check of Poly arguments, run by the public polynomial entries
    of the algebra, the symbols and the pair sets, and by Poly's operators,
    before they read one: ValidationError for an argument that is not a
    Poly or lies over another field than the first; otherwise the FieldCtx
    they share, compared by identity first."""
    ctx = None
    for f in polys:
        if not isinstance(f, Poly):
            raise ValidationError(f"expected a Poly, got {f!r}")
        if ctx is None:
            ctx = f.ctx
        elif f.ctx is not ctx and f.ctx != ctx:
            raise ValidationError("polynomials belong to different fields")
    return ctx


# -- constructors ----------------------------------------------------------------

def zero(ctx: FieldCtx) -> Poly:
    return Poly(ctx, [])


def one(ctx: FieldCtx) -> Poly:
    return Poly(ctx, [1])


def var_T(ctx: FieldCtx) -> Poly:
    """The ring variable T."""
    return Poly(ctx, [0, 1])


# -- the operation suite ------------------------------------------------------

def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is an error."""
    ctx = _same_field(a, b)
    if a.is_zero and b.is_zero:
        raise GcdOfZeros("gcd(0, 0) is undefined")
    return _wrap(ctx, ctx.kernel.pgcd(a.coeffs, b.coeffs))


def poly_powmod(a: Poly, n: int, m: Poly) -> Poly:
    """a**n reduced modulo the nonconstant polynomial m (square and multiply).
    The kernel's ppowmod takes n < 2**63; an n of 2**62 or more is read 62
    bits at a time from the top, acc = acc**(2**62) * a**digit mod m."""
    ctx = _same_field(a, m)
    if type(n) is not int or n < 0:
        raise ValidationError("exponent must be a nonnegative integer")
    if m.is_zero:
        raise DivisionByZero("powmod modulus is zero")
    if m.is_constant:
        raise ValidationError("powmod modulus must be nonconstant")
    kernel, f, mc = ctx.kernel, a.coeffs, m.coeffs
    shift = max(n.bit_length() - 1, 0) // 62 * 62
    acc = kernel.ppowmod(f, n >> shift, mc)
    while shift:
        shift -= 62
        digit = kernel.ppowmod(f, (n >> shift) & ((1 << 62) - 1), mc)
        acc = kernel.prem(kernel.pmul(kernel.ppowmod(acc, 1 << 62, mc), digit), mc)
    return _wrap(ctx, acc)


def poly_cmp(a: Poly, b: Poly) -> int:
    """Canonical strict total order: degree first, then coefficients from the
    top down, compared by their integer encodings. Returns -1, 0 or 1."""
    _same_field(a, b)
    ka, kb = a.sort_key, b.sort_key
    return (ka > kb) - (ka < kb)


def monic_of_degree(ctx: FieldCtx, d: int) -> Iterator[Poly]:
    """All monic polynomials of exact degree d >= 0, in canonical order:
    the d lower coefficients run through F_q^d, degree d-1 slowest."""
    for top_down in product(range(ctx.q), repeat=d):
        yield _wrap(ctx, [*reversed(top_down), 1])


def enumerate_monic_below(ctx: FieldCtx, d: int) -> Iterator[Poly]:
    """All monic polynomials of degree < d, ordered by the canonical total
    order; there are (q**d - 1) // (q - 1) of them."""
    if type(d) is not int or d < 1:  # a bool is no bound
        raise NonpositiveBound(f"degree bound must be an integer >= 1, got {d!r}")
    for k in range(d):
        yield from monic_of_degree(ctx, k)


# -- text syntax ------------------------------------------------------------------
#
# Canonical form, descending degree, terms joined by '+':
#   "2*T^3+T+1", "T^2+2", "T", "0"
# Coefficients are encoded field elements; '*' is optional on input and
# exponents 0 and 1 may be spelled explicitly.

_TERM_RE = re.compile(r"^(?:(\d+)\*?)?T(?:\^(\d+))?$|^(\d+)$", re.ASCII)


def parse_poly(ctx: FieldCtx, text: str) -> Poly:
    """Parse the human polynomial syntax into a canonical Poly.

    Bad syntax, a coefficient outside F_q, an exponent past MAX_DEGREE or a
    numeral too long for int() is a ConfigError; the degree is checked
    before the coefficient list is allocated."""
    if not isinstance(text, str):
        raise ConfigError(f"a polynomial is parsed from a string, not {text!r}")
    compact = text.replace(" ", "").replace("\t", "")
    if not compact:
        raise ConfigError("empty polynomial string")
    coeffs: dict[int, int] = {}
    for term in compact.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ConfigError(f"cannot parse polynomial term {term!r} in {text!r}")
        try:
            if m.group(3) is not None:
                c, k = int(m.group(3)), 0
            else:
                c = int(m.group(1)) if m.group(1) is not None else 1
                k = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError as exc:  # a numeral past Python's int-from-text digit limit
            raise ConfigError(f"a numeral in a polynomial term has more than "
                              f"{sys.get_int_max_str_digits()} digits") from exc
        if c >= ctx.q:
            raise ConfigError(f"coefficient {c} out of range for F_{ctx.q} in {text!r}")
        if k > MAX_DEGREE:
            raise ConfigError(f"exponent {k} is past MAX_DEGREE = {MAX_DEGREE} in {text!r}")
        coeffs[k] = ctx.kernel.fadd(coeffs.get(k, 0), c)
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return Poly(ctx, out)


def format_poly(f: Poly) -> str:
    """Canonical text form; parse_poly(format_poly(f)) == f."""
    _same_field(f)
    if f.is_zero:
        return "0"
    cs = f.coeffs
    return "+".join(_monomial(k, cs[k]) for k in range(f.degree, -1, -1) if cs[k])


def _monomial(k: int, c: int) -> str:
    """The canonical text of the term c*T^k; for k = 0, the text of c."""
    if k == 0:
        return str(c)
    power = "T" if k == 1 else f"T^{k}"
    return power if c == 1 else f"{c}*{power}"
