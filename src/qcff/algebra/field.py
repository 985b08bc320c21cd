"""Field contexts for F_q, q = p^e with p an odd prime.

Elements are encoded as integers in [0, q): the encoding of an element with
little-endian polynomial-basis digits (d_0, ..., d_{e-1}) over F_p is
sum d_i * p^i. This makes the element order deterministic, which pins down
both the canonical generator gamma and the total order on polynomials.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from .._kernels import FieldKernel
from .._kernels.pure import ADD_TABLE_MAX_Q, digit_sums
from ..errors import (
    EvenCharacteristic,
    LogOfZero,
    MissingModulus,
    NonPrimeP,
    ReducibleModulus,
    ValidationError,
)

if TYPE_CHECKING:
    from .poly import Poly

def is_prime_int(n: int) -> bool:
    """Deterministic primality test (desk-scale n)."""
    return n >= 2 and prime_divisors_int(n) == [n]


def prime_divisors_int(n: int) -> list[int]:
    """Distinct prime divisors of n >= 1, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _digits_to_enc(digits: Sequence[int], p: int) -> int:
    enc = 0
    for d in reversed(digits):
        enc = enc * p + d
    return enc


def _digit_vector(x: int, p: int) -> list[int]:
    """Digits of an encoded element without trailing zeros: the element as a
    kernel polynomial over F_p."""
    out = []
    while x:
        x, r = divmod(x, p)
        out.append(r)
    return out


class FieldCtx:
    """Immutable context for one finite field F_q.

    Carries the precomputed exp/log tables for the canonical generator,
    the kernel engine, and cached constants. Construct via field_create().
    """

    __slots__ = ("p", "e", "q", "w", "modulus", "gamma", "exp", "log",
                 "_neg", "_add_table", "kernel", "_key")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...] | None,
                 gamma: int, exp: tuple[int, ...], log: tuple[int, ...],
                 neg: tuple[int, ...], add_table: tuple[int, ...] | None):
        self.p = p
        self.e = e
        self.q = p ** e
        self.w = self.q - 1
        self.modulus = modulus
        self.gamma = gamma
        self.exp = exp
        self.log = log
        self._neg = neg
        self._add_table = add_table
        self.kernel = FieldKernel(p, e, self.q, self.w, exp, log, neg, add_table)
        self._key = (p, e, modulus)

    def __repr__(self) -> str:
        return f"FieldCtx(q={self.q}, p={self.p}, e={self.e}, gamma={self.gamma})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    # -- element helpers ------------------------------------------------------

    def digits(self, x: int) -> tuple[int, ...]:
        """Little-endian base-p digit view of an encoded element."""
        self._check_elem(x)
        return tuple(x // self.p ** i % self.p for i in range(self.e))

    def _check_elem(self, x: int) -> None:
        if not isinstance(x, int) or not 0 <= x < self.q:
            raise ValidationError(f"{x!r} is not an encoded element of F_{self.q}")

    def neg_const(self, x: int) -> int:
        self._check_elem(x)
        return self._neg[x]

    @property
    def minus_one(self) -> int:
        return self._neg[1]

    def dlog(self, x: int) -> int:
        """The unique i in [0, w) with gamma**i = x, for nonzero encoded x."""
        self._check_elem(x)
        if x == 0:
            raise LogOfZero("discrete log of zero")
        return self.log[x]

    def gamma_pow(self, i: int) -> int:
        """gamma**i for any integer i (reduced mod w)."""
        return self.exp[i % self.w]


def field_create(p: int, e: int = 1, modulus: Sequence[int] | Poly | None = None) -> FieldCtx:
    """Build the canonical context for F_{p^e}.

    The generator gamma is the first element in encoding order 2, 3, ...
    whose multiplicative order is exactly q - 1. For e > 1 a monic
    irreducible degree-e modulus over F_p is required: ascending
    coefficients (length e + 1), or a Poly over F_p, whose field is then
    the one the tables are built with instead of a new F_p.

    Negation acts digit by digit: the lowest base-p digit of an encoding
    negates mod p, and the higher digits take the entry already filled for
    x // p. The addition table (q <= 256) is `digit_sums`, by the same rule.
    """
    if not isinstance(p, int) or not is_prime_int(p):
        raise NonPrimeP(f"p = {p!r} is not prime")
    if p == 2:
        raise EvenCharacteristic("characteristic 2 is not supported")
    if not isinstance(e, int) or e < 1:
        raise ValidationError(f"extension degree must be a positive integer, got {e!r}")

    mod_tuple: tuple[int, ...] | None
    if e == 1:
        if modulus is not None:
            raise ValidationError("modulus must be omitted for prime fields (e = 1)")
        mod_tuple = None
        mul, power = (lambda a, b: a * b % p), (lambda x, n: pow(x, n, p))
    else:
        if modulus is None:
            raise MissingModulus(f"F_{p}^{e} needs an explicit degree-{e} modulus")
        # irreducibility test over F_p; imported here because factor.py imports this module
        from .factor import poly_is_irreducible
        from .poly import Poly
        if isinstance(modulus, Poly):
            base = modulus.ctx
            if base.e != 1 or base.p != p:
                raise ValidationError(f"modulus must be a polynomial over F_{p}, not over F_{base.q}")
            mod_tuple = modulus.coeffs
        else:
            base = None
            mod_tuple = tuple(int(c) for c in modulus)
        if len(mod_tuple) != e + 1 or mod_tuple[-1] != 1:
            raise ValidationError(f"modulus must be monic of degree {e} (ascending coefficients)")
        if any(not 0 <= c < p for c in mod_tuple):
            raise ValidationError(f"modulus coefficients must lie in [0, {p})")
        if base is None:
            base = field_create(p, 1)
        if not poly_is_irreducible(Poly(base, mod_tuple)):
            raise ReducibleModulus(f"modulus {list(mod_tuple)} is reducible over F_{p}")
        mul, power = _digit_arithmetic(base, mod_tuple)

    q = p ** e
    w = q - 1
    checks = [w // ell for ell in prime_divisors_int(w)]
    gamma = next(c for c in range(2, q) if all(power(c, n) != 1 for n in checks))

    exp = [1] * w
    for i in range(1, w):
        exp[i] = mul(exp[i - 1], gamma)
    log = [-1] * q
    for i, v in enumerate(exp):
        if log[v] != -1:
            raise ValidationError(f"generator {gamma} does not have order {w}")
        log[v] = i
    if mul(exp[-1], gamma) != 1:
        raise ValidationError(f"generator {gamma} does not have order {w}")

    neg = [0] * q
    for x in range(1, q):
        neg[x] = (p - x % p) % p + p * neg[x // p]

    add_table = tuple(digit_sums(p, e)) if q <= ADD_TABLE_MAX_Q else None
    return FieldCtx(p, e, mod_tuple, gamma, tuple(exp), tuple(log), tuple(neg), add_table)


def _digit_arithmetic(base: FieldCtx, modulus: tuple[int, ...]) -> tuple[Callable, Callable]:
    """Product and power of encoded elements of F_p[x]/(modulus), computed by
    the kernel of F_p = base on digit vectors; used to build the tables."""
    kernel, p = base.kernel, base.p

    def mul(a: int, b: int) -> int:
        prod = kernel.pmul(_digit_vector(a, p), _digit_vector(b, p))
        return _digits_to_enc(kernel.prem(prod, modulus), p)

    def power(x: int, n: int) -> int:
        return _digits_to_enc(kernel.ppowmod(_digit_vector(x, p), n, modulus), p)

    return mul, power
