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
quotient, and ``ppowmod`` prepares its modulus once. ``pgcd`` reduces
its two lists in turn without a copy or a quotient per step. Most
Euclid steps drop the degree by one (deg f = deg g + 1): there the
quotient a*T + b is read off f's and g's top coefficients, and both rows
are subtracted in one pass over g that reads each log[g_j] inline, with
no (index, log) list. Every other step runs ``_divisor`` and
``_reduce``. The compiled ``pgcd`` prepares a divisor per step.

``papply(rows, h)`` is the one op that is not ring arithmetic on two
polynomials: it returns the sum of h_i * rows[i]. On a Frobenius table
(rows[i] = T**(q*i) mod f) that is h**q mod f, so one application of the
q-th power map is one call. Its n rows, like h, hold at most n
coefficients each; a longer one raises ``ValueError``.

``fneg`` and ``fsub`` raise ``ValueError`` for an element outside [0, q),
as the compiled kernel does, since ``neg[a]`` would wrap a negative a.
``fadd`` and the polynomial loops are hot and check nothing.

The compiled kernel in ``_core.c`` implements the identical interface;
`qcff._kernels` uses it when it imports and this one otherwise.
"""

from __future__ import annotations

# Fields up to this size add through a q*q table, and larger extension
# fields through an s*s table, s the largest power of p up to it (or p).
ADD_TABLE_MAX_Q = 256


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


class FieldKernel:
    """Arithmetic engine for F_q, q = p**e, bound to its exp/log tables.

    ``exp[i]`` is the encoding of gamma**i for i in [0, w), w = q - 1, and
    ``log`` inverts it (log[0] = -1). Negation and addition are built here.
    """

    __slots__ = ("p", "e", "q", "w", "exp", "log", "neg", "_sums", "_stride", "_exp3")

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

    # -- scalar ops ---------------------------------------------------------

    def fadd(self, a, b):
        return self._sums[a * self._stride + b]

    def _element(self, a):
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is outside [0, {self.q})")
        return a

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

    def papply(self, rows, h):
        n = len(rows)
        if len(h) > n or max(map(len, rows), default=0) > n:
            raise ValueError(f"papply: h and each row need at most {n} coefficients")
        exp3, log = self._exp3, self.log
        out = [0] * n
        add, stride = self._sums, self._stride
        for c, row in zip(h, rows):
            if c:
                lc = log[c]
                for j, b in enumerate(row):
                    if b:
                        out[j] = add[out[j] * stride + exp3[lc + log[b]]]
        while out and out[-1] == 0:
            out.pop()
        return out

    # -- division: one divisor preparation, one remainder loop ----------------

    def _divisor(self, g):
        """g's nonzero (index, log) pairs below its top and the log of
        -1/lc(g), where -1 = gamma**(w/2): the data of every step of a
        reduction mod g."""
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        log = self.log
        pairs = [(j, log[b]) for j, b in enumerate(g) if b]
        w = self.w
        return pairs[:-1], (w // 2 - pairs[-1][1]) % w, len(g) - 1

    def _reduce(self, r, divisor, quot=None):
        """Reduce the list r mod the prepared divisor in place and strip it;
        write the quotient's len(r) - deg g coefficients to quot if given."""
        pairs, c, dg = divisor
        if len(r) > dg:
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
        divisor = self._divisor(g)
        rem = list(f)
        quot = [0] * max(len(rem) - len(g) + 1, 0)
        self._reduce(rem, divisor, quot)
        while quot and quot[-1] == 0:
            quot.pop()
        return quot, rem

    def prem(self, f, g):
        divisor = self._divisor(g)
        rem = list(f)
        self._reduce(rem, divisor)
        return rem

    def pmonic(self, f):
        if not f or f[-1] == 1:
            return list(f)
        return self.pscale(f, self.finv(f[-1]))

    def pgcd(self, f, g):
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
                self._reduce(f, self._divisor(g))
            f, g = g, f
        return self.pmonic(f)

    def ppowmod(self, f, n, m):
        if len(m) < 2:
            raise ZeroDivisionError("powmod modulus must be nonconstant")
        divisor = self._divisor(m)
        reduce, pmul = self._reduce, self.pmul
        acc = [1]
        base = list(f)
        reduce(base, divisor)
        while n > 0:
            if n & 1:
                acc = pmul(acc, base)
                reduce(acc, divisor)
            n >>= 1
            if n:
                base = pmul(base, base)
                reduce(base, divisor)
        return acc
