"""Pure-Python arithmetic kernel.

Reference implementation of the hot operations: element arithmetic in F_q
(elements encoded as ints in [0, q)) and dense polynomial arithmetic over
F_q (coefficient sequences, ascending degree, no trailing zeros, empty =
0; inputs may be lists or tuples, results are lists).

The constructor takes (p, e, exp, log) and builds negation and addition
from p and e alone, since both act digit by digit on encodings. Addition
is one lookup, ``_sums[a * _stride + b]``, in ``fadd`` and in every loop,
built once in one of three ways:
- for q <= 256, the q*q table ``digit_sums(p, e)``, with stride q;
- for a larger prime field, the 2p sums ``0, 1, ..., p - 1`` listed
  twice, with stride 1, since a + b < 2p;
- for a larger extension field, a ``_GroupSums``, which adds the base-p
  digits of a and b a group at a time through one s*s table
  ``digit_sums(p, k)``, s = p**k the largest power of p not above 256 (or
  p itself), with stride q.

The polynomial loops work on discrete logs. Each call turns the fixed
operand (the second factor of a product, the divisor of a division) into
its nonzero (index, log) pairs once, and indexes ``_exp3``, the exp table
repeated three times, with sums of logs, so no step reduces mod w. Each
step then adds one product into one coefficient by the one lookup.

Division has the shape of the compiled kernel's: ``_divisor(g)`` prepares
g once (its nonzero (index, log) pairs below the top and c, the log of
-1/lc(g), with -1 = gamma**(w/2) for odd q, so no ``neg`` lookup), and
``_reduce`` is the one remainder loop. It works in place on a list, adds
t * (-g_j/lc(g)) for the top coefficient t by one lookup of
exp3[log t + c + log g_j], and writes the quotient only when asked.
``pdivrem``, ``prem`` and ``ppowmod`` run it: ``prem`` builds no
quotient, ``ppowmod`` prepares its modulus once, and a dividend shorter
than the divisor is only stripped, with no divisor prepared. ``pgcd``
reduces its two lists in turn without a copy or a quotient per step.
Most Euclid steps drop the degree by one (deg f = deg g + 1): there the
quotient a*T + b is read off f's and g's top coefficients, and both rows
are subtracted in one pass over g that reads each log[g_j] inline, with
no (index, log) list. Every other step runs ``_reduce``. The compiled
``pgcd`` prepares a divisor per step.

The four ops on Frobenius tables, ``ptable``, ``papply``, ``pnorm`` and
``pwalk``, are mixed in from ``pure_tables.TableOps``.

Fields with q <= 16 (q = 3, 5, 7, 9, 11 or 13) have a second, byte path
for long operands. A coefficient vector is packed one coefficient per
byte (``bytes(v)``, little-endian as an int), and a whole row operation
out + c*v is a few C-level calls:

    ((out << 4) | v).to_bytes(n, "little").translate(ma[c])

Each byte of ``(out << 4) | v`` holds the pair (o, b) as o * 16 + b,
which is why q <= 16, and ``ma[c]`` is a 256-byte table with o + c*b at
that index, built by the constructor from ``_sums`` and the exp/log
tables in q*q steps per scalar. Where the path runs, by operand length
(below each threshold the list loop costs about as much or less,
measured per op):
- Frobenius tables, always (``pure_tables``): the rows, the norm chain
  and the walk stay packed from the first step to the last;
- ``pmul``: both operands of length >= 8, one row operation per
  coefficient of the shorter one;
- ``_reduce`` (``prem``, ``pdivrem``, ``ppowmod`` and the Euclid steps
  ``pgcd`` does not fuse): deg g >= 8 and (len r - deg g) * deg g >= 96,
  one row operation per nonzero top coefficient with the packed
  -g/lc(g), read and reduced on the bytes;
- ``pgcd``: both operands of length >= 24; then the whole Euclid runs on
  bytes (``_gcd_bytes``, one loop with no call per step), and ``rstrip``
  gives each remainder's length.
The byte path refuses a coefficient that a byte cannot hold: ``bytes()``
raises ``TypeError`` for a non-int and ``ValueError`` outside [0, 256),
and a coefficient in [q, 256), which would spill into the next byte,
raises ``ValueError`` (one C-level ``translate`` per operand finds it).
On valid input the results, quotients and exceptions are those of the
list loops, which stay for short operands and for every field with
q > 16.

``fneg`` and ``fsub`` raise ``ValueError`` for an element outside [0, q),
as the compiled kernel does, since ``neg[a]`` would wrap a negative a.
So do a divisor (``prem``, ``pdivrem``), a modulus (``ptable``), both
operands of ``pgcd`` and of ``ppowmod`` (the modulus first, before its
degree is tested, as the compiled kernel reads them) and the h of a
table op, checked by ``_check`` as the compiled kernel reads a sequence:
its first coefficient that is not an int raises ``TypeError`` and its
first one outside [0, q) ``ValueError``. A coefficient past the log table
would raise ``IndexError``, a negative one would read it from the end, and
a float equal to an element would pass a set test. The check is a set
test and a sum, about 0.25 us per operand of four coefficients. A
divisor, a modulus and a
gcd operand then lose any zeros on top (``_stripped``), so a zero top
coefficient is read as the compiled kernel reads it, and a divisor with
nothing left raises ``ZeroDivisionError``.
``fadd`` and the other polynomial loops are hot and check nothing.

``ppowmod`` reads n and ``pnorm`` reads d as the compiled kernel reads a
long long (``_int64``): ``TypeError`` for a non-int and ``OverflowError``
outside [-2**63, 2**63), checked after the other operands and before any
work. n <= 0 gives [1]; ``algebra.poly.poly_powmod`` steps through larger
n.

The compiled kernel in ``_core.c`` implements the identical interface;
`qcff._kernels` uses it when it imports and this one otherwise.
"""

from __future__ import annotations

from operator import index

from .pure_tables import TableOps

# Fields up to this size add through a q*q table, and larger extension
# fields through an s*s table, s the largest power of p up to it (or p).
ADD_TABLE_MAX_Q = 256

# Fields up to this size also take the byte path: a coefficient and the
# one it is added to share a byte as two nibbles.
BYTES_MAX_Q = 16
# Where the byte path runs, by operand length: set by measurement.
PMUL_BYTES_MIN_LEN = 8
REDUCE_BYTES_MIN_DEG = 8
REDUCE_BYTES_MIN_WORK = 96  # (len r - deg g) * deg g
PGCD_BYTES_MIN_LEN = 24


def digit_sums(p, n):
    """The flat q*q table of a + b in F_{p^n}, q = p**n, at a * q + b.

    Addition acts digit by digit on encodings: the lowest base-p digits
    add mod p, and the higher ones take the entry already filled for
    (a // p, b // p)."""
    q = p ** n
    sums = list(range(q))  # row a = 0: 0 + b = b
    for a in range(1, q):
        low, high = a % p, a // p * q
        sums += [(low + b % p) % p + p * sums[high + b // p] for b in range(q)]
    return sums


class _GroupSums:
    """a + b in F_{p^e} at index a * q + b, through one s*s table: the
    base-p digits of a and b are added k at a time, s = p**k."""

    __slots__ = ("q", "s", "table")

    def __init__(self, p, e):
        k = 1
        while p ** (k + 1) <= ADD_TABLE_MAX_Q:
            k += 1
        self.q = p ** e
        self.s = p ** k
        self.table = digit_sums(p, k)

    def __getitem__(self, i):
        q, s, table = self.q, self.s, self.table
        a, b = i // q, i % q
        out = table[a % s * s + b % s]
        scale = 1
        while a >= s or b >= s:
            a //= s
            b //= s
            scale *= s
            out += table[a % s * s + b % s] * scale
        return out


class FieldKernel(TableOps):
    """Arithmetic engine for F_q, q = p**e, bound to its exp/log tables.

    ``exp[i]`` is the encoding of gamma**i for i in [0, w), w = q - 1, and
    ``log`` inverts it (log[0] = -1). Negation and addition are built here.
    """

    __slots__ = ("p", "e", "q", "w", "exp", "log", "neg", "_sums", "_stride", "_exp3",
                 "_elements", "_small", "_digits", "_ma")

    def __init__(self, p, e, exp, log):
        self.p = p
        self.e = e
        self.q = q = p ** e
        self.w = q - 1
        self.exp = list(exp)
        self.log = list(log)
        # the lowest base-p digit negates mod p, and the higher digits take
        # the entry already filled for x // p
        self.neg = neg = [0] * q
        for x in range(1, q):
            neg[x] = (p - x % p) % p + p * neg[x // p]
        if q <= ADD_TABLE_MAX_Q:
            self._sums, self._stride = digit_sums(p, e), q
        elif e == 1:
            self._sums, self._stride = list(range(p)) * 2, 1
        else:
            self._sums, self._stride = _GroupSums(p, e), q
        # _exp3[i] == exp[i % w] for 0 <= i < 3w: indexed by a sum of two
        # logs, or of three in a reduction step
        self._exp3 = self.exp * 3
        self._elements = frozenset(range(q))  # what _check accepts
        self._small = q <= BYTES_MAX_Q
        self._digits = bytes(range(q)) if self._small else None
        self._ma = self._mul_add() if self._small else None

    # -- scalar ops ---------------------------------------------------------

    def fadd(self, a, b):
        return self._sums[a * self._stride + b]

    def _element(self, a):
        """a, if it is an int in [0, q), as the compiled kernel's read_int
        reads it: TypeError for a non-int, ValueError for one outside."""
        if not isinstance(a, int):
            raise TypeError(f"expected an int, got {type(a).__name__}")
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is outside [0, {self.q})")
        return a

    def _check(self, v):
        """Refuse v if a coefficient is not an int in [0, q), as the
        compiled kernel's read_poly does: TypeError at the first one that
        is not an int, ValueError at the first one outside. A set test and a
        sum in the common case: the sum is an int only if no coefficient is
        a float, or another number, equal to an element."""
        if not (self._elements.issuperset(v) and type(sum(v)) is int):
            for c in v:
                self._element(c)

    def _stripped(self, v):
        """v checked, without its zeros on top: v itself unless its top
        coefficient is 0."""
        self._check(v)
        if v and not v[-1]:
            v = list(v)
            while v and v[-1] == 0:
                v.pop()
        return v

    @staticmethod
    def _int64(n, name):
        """n as the compiled kernel reads a long long: TypeError for a
        non-int, OverflowError outside [-2**63, 2**63)."""
        n = index(n)
        if not -(1 << 63) <= n < 1 << 63:
            raise OverflowError(f"{name} must lie in [-2**63, 2**63)")
        return n

    def fneg(self, a):
        return self.neg[self._element(a)]

    def fsub(self, a, b):
        return self.fadd(self._element(a), self.neg[self._element(b)])

    def fmul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp3[self.log[a] + self.log[b]]

    def finv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(self.w - self.log[a]) % self.w]

    # -- polynomial ops -------------------------------------------------------

    def padd(self, f, g):
        if len(f) < len(g):
            f, g = g, f
        add, stride = self._sums, self._stride
        out = [add[a * stride + b] for a, b in zip(f, g)]
        out.extend(f[len(g):])
        while out and out[-1] == 0:
            out.pop()
        return out

    def psub(self, f, g):
        neg = self.neg
        return self.padd(f, [neg[c] for c in g])

    def pscale(self, f, c):
        if c == 0:
            return []
        exp3, log = self._exp3, self.log
        lc = log[c]
        return [exp3[lc + log[x]] if x else 0 for x in f]

    def pmul(self, f, g):
        if not f or not g:
            return []
        if self._small and len(f) >= PMUL_BYTES_MIN_LEN and len(g) >= PMUL_BYTES_MIN_LEN:
            return self._pmul_bytes(f, g)
        exp3, log = self._exp3, self.log
        g_logs = [(j, log[b]) for j, b in enumerate(g) if b]
        out = [0] * (len(f) + len(g) - 1)
        add, stride = self._sums, self._stride
        for i, a in enumerate(f):
            if a:
                la = log[a]
                for j, lb in g_logs:
                    k = i + j
                    out[k] = add[out[k] * stride + exp3[la + lb]]
        while out and out[-1] == 0:
            out.pop()
        return out

    # -- division: one divisor preparation, one remainder loop ----------------

    def _divisor(self, g):
        """g's nonzero (index, log) pairs below its top and the log of
        -1/lc(g), where -1 = gamma**(w/2): the data of every step of a
        reduction mod g by the list loop."""
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        log = self.log
        pairs = [(j, log[b]) for j, b in enumerate(g) if b]
        w = self.w
        return pairs[:-1], (w // 2 - pairs[-1][1]) % w

    def _reduce(self, r, g, quot=None, divisor=None):
        """Reduce the list r mod g in place and strip it; write the
        quotient's len(r) - deg g coefficients to quot if given. A dividend
        shorter than g needs no divisor; a long reduction over a small field
        runs on bytes; the list loop takes ``divisor``, g's prepared divisor,
        or prepares one."""
        dg = len(g) - 1
        if len(r) > dg:
            if (self._small and dg >= REDUCE_BYTES_MIN_DEG
                    and (len(r) - dg) * dg >= REDUCE_BYTES_MIN_WORK):
                ng, c = self._packed_divisor(self._packed(g))
                r[:] = self._rem_packed(self._packed(r), ng, dg, c, quot).rstrip(b"\0")
                return
            pairs, c = divisor or self._divisor(g)
            exp3, log, half = self._exp3, self.log, self.w // 2
            add, stride = self._sums, self._stride
            # step i adds t * (-g_j / lc(g)) into r[i + j] below the top,
            # t = r[i + dg]: one exp3 lookup on log t + c + log g_j < 3w
            for i in range(len(r) - dg - 1, -1, -1):
                t = r[i + dg]
                if t:
                    lt = log[t] + c
                    if quot is not None:
                        quot[i] = exp3[lt + half]
                    for j, lg in pairs:
                        k = i + j
                        r[k] = add[r[k] * stride + exp3[lt + lg]]
            del r[dg:]
        while r and r[-1] == 0:
            r.pop()

    def pdivrem(self, f, g):
        g = self._stripped(g)
        rem = list(f)
        quot = [0] * max(len(rem) - len(g) + 1, 0)
        self._reduce(rem, g, quot)
        while quot and quot[-1] == 0:
            quot.pop()
        return quot, rem

    def prem(self, f, g):
        g = self._stripped(g)
        rem = list(f)
        self._reduce(rem, g)
        return rem

    def pmonic(self, f):
        if not f or f[-1] == 1:
            return list(f)
        return self.pscale(f, self.finv(f[-1]))

    def pgcd(self, f, g):
        f, g = self._stripped(f), self._stripped(g)
        if self._small and len(f) >= PGCD_BYTES_MIN_LEN and len(g) >= PGCD_BYTES_MIN_LEN:
            return self.pmonic(list(self._gcd_bytes(bytes(f).rstrip(b"\0"),
                                                    bytes(g).rstrip(b"\0"))))
        f, g = list(f), list(g)
        exp3, log, w = self._exp3, self.log, self.w
        add, stride = self._sums, self._stride
        while g:
            n = len(g) - 1
            if len(f) == n + 2 and n:
                # one degree down: the quotient a*T + b in O(1), then both
                # rows subtracted in one pass over g below its top. With c
                # the log of -1/lc(g), row a adds exp3[la + log g_j] into
                # f[j + 1] and row b adds exp3[lb + log g_j] into f[j]; they
                # would clear f's top two coefficients, which are dropped.
                c = (w // 2 - log[g[n]]) % w
                la = log[f[n + 1]] + c
                b = f[n]
                if g[n - 1]:
                    b = add[b * stride + exp3[la + log[g[n - 1]]]]
                if b:
                    lb = log[b] + c
                    for j, x in zip(range(n), g):
                        if x:
                            lg = log[x]
                            f[j] = add[f[j] * stride + exp3[lb + lg]]
                            f[j + 1] = add[f[j + 1] * stride + exp3[la + lg]]
                else:
                    for j, x in zip(range(n), g):
                        if x:
                            f[j + 1] = add[f[j + 1] * stride + exp3[la + log[x]]]
                del f[n:]
                while f and f[-1] == 0:
                    f.pop()
            else:
                self._reduce(f, g)
            f, g = g, f
        return self.pmonic(f)

    def ppowmod(self, f, n, m):
        m = self._stripped(m)
        if len(m) < 2:
            raise ZeroDivisionError("powmod modulus must be nonconstant")
        self._check(f)
        n = self._int64(n, "powmod exponent")
        divisor = self._divisor(m)
        reduce, pmul = self._reduce, self.pmul
        acc = [1]
        base = list(f)
        reduce(base, m, divisor=divisor)
        while n > 0:
            if n & 1:
                acc = pmul(acc, base)
                reduce(acc, m, divisor=divisor)
            n >>= 1
            if n:
                base = pmul(base, base)
                reduce(base, m, divisor=divisor)
        return acc

    # -- the byte path, q <= 16 ---------------------------------------------

    def _mul_add(self):
        """The translate tables, one per scalar c: ma[c][o * 16 + b] is
        o + c*b for o, b in [0, q)."""
        q, sums, fmul = self.q, self._sums, self.fmul
        ma = []
        for c in range(q):
            prods = [fmul(c, b) for b in range(q)]
            table = bytearray(256)
            for o in range(q):
                table[o * 16:o * 16 + q] = bytes([sums[o * q + x] for x in prods])
            ma.append(bytes(table))
        return ma

    def _packed(self, v):
        """The coefficients of v, one byte each. bytes() refuses a non-int
        (TypeError) or an int outside [0, 256) (ValueError); one in
        [q, 256) would spill into the next byte, so it is refused here."""
        b = bytes(v)
        if b.translate(None, self._digits):  # what is left is outside [0, q)
            raise ValueError(f"coefficient {max(b)} is outside [0, {self.q})")
        return b

    def _pmul_bytes(self, f, g):
        return list(self._mul_packed(self._packed(f), self._packed(g)).rstrip(b"\0"))

    def _mul_packed(self, a, b):
        """a*b for packed a and b, as len(a) + len(b) - 1 bytes: one row
        operation per nonzero byte of the shorter one."""
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return b""
        ma, from_bytes = self._ma, int.from_bytes
        bi = from_bytes(b, "little")
        n = len(a) + len(b) - 1
        out = 0
        for i, c in enumerate(a):
            if c:
                out = from_bytes(((out << 4) | (bi << 8 * i)).to_bytes(n, "little")
                                 .translate(ma[c]), "little")
        return out.to_bytes(n, "little")

    def _packed_divisor(self, gb):
        """(ng, c) for the packed, stripped, nonconstant g: ng is -g/lc(g)
        below its top as an int, one coefficient per byte, and c the log
        of -1/lc(g)."""
        dg = len(gb) - 1
        c = (self.w // 2 - self.log[gb[dg]]) % self.w
        return int.from_bytes(gb[:dg].translate(self._ma[self._exp3[c]]), "little"), c

    def _rem_packed(self, rb, ng, dg, c=0, quot=None):
        """The packed rb mod g of degree dg, given g's ng and c from
        ``_packed_divisor``: rb's low dg bytes, not stripped. Step i adds t
        times ng at byte i, t = rb[i + dg], and writes the quotient's
        coefficient to quot[i] if quot is given."""
        ma, from_bytes = self._ma, int.from_bytes
        exp3, log, half = self._exp3, self.log, self.w // 2
        n = len(rb)
        for i in range(n - dg - 1, -1, -1):
            t = rb[i + dg]
            if t:
                if quot is not None:
                    quot[i] = exp3[log[t] + c + half]
                rb = (((from_bytes(rb, "little") << 4) | (ng << 8 * i))
                      .to_bytes(n, "little").translate(ma[t]))
        return rb[:dg]

    def _gcd_bytes(self, fb, gb):
        """Euclid on the packed, stripped fb and gb, each step reduced as
        ``_rem_packed`` does, without a call per step: gcd(f, g) up to a
        scalar, packed."""
        ma, from_bytes = self._ma, int.from_bytes
        exp3, log, w = self._exp3, self.log, self.w
        half = w // 2
        while gb:
            dg = len(gb) - 1
            ng = from_bytes(gb[:dg].translate(ma[exp3[(half - log[gb[dg]]) % w]]), "little")
            n = len(fb)
            for i in range(n - dg - 1, -1, -1):
                t = fb[i + dg]
                if t:
                    fb = (((from_bytes(fb, "little") << 4) | (ng << 8 * i))
                          .to_bytes(n, "little").translate(ma[t]))
            fb, gb = gb, fb[:dg].rstrip(b"\0")
        return fb
