"""Pure-Python arithmetic kernel.

Reference implementation of the hot operations: element arithmetic in F_q
(elements encoded as ints in [0, q)) and dense polynomial arithmetic over
F_q (coefficient sequences, ascending degree, no trailing zeros, empty =
0; inputs may be lists or tuples, results are lists).

The polynomial loops work on discrete logs. Each call turns the fixed
operand (the second factor of a product, the divisor of a division) into
its nonzero (index, log) pairs once, and indexes ``_exp3``, the exp table
repeated three times, with sums of logs, so no step reduces mod w. Each
step then adds one product into one coefficient: where the field has an
addition table (q <= 256) that is one lookup, ``add_table[x * q + y]``;
where it has none, it is one ``fadd`` call. The branch is taken once per
call (once per quotient term in a division), outside the inner loops.

Division has the shape of the compiled kernel's: ``_divisor(g)`` prepares
g once (its nonzero (index, log) pairs below the top and c, the log of
-1/lc(g), with -1 = gamma**(w/2) for odd q, so no ``neg`` lookup), and
``_reduce`` is the one remainder loop. It works in place on a list, adds
t * (-g_j/lc(g)) for the top coefficient t by one lookup of
exp3[log t + c + log g_j], and writes the quotient only when asked.
``pdivrem``, ``prem``, ``pgcd`` and ``ppowmod`` all run it: ``prem``
builds no quotient, ``pgcd`` reduces its two lists in turn without a
copy or a quotient per step, and ``ppowmod`` prepares its modulus once.

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


class FieldKernel:
    """Arithmetic engine bound to one field's precomputed tables.

    Parameters mirror what FieldCtx assembles at construction time:
    ``exp[i]`` is the encoding of gamma**i for i in [0, w); ``log`` inverts
    it (log[0] = -1); ``neg`` is the additive-inverse table; ``add_table``,
    when not None, is a flat q*q lookup for addition (built for small q).
    """

    __slots__ = ("p", "e", "q", "w", "exp", "log", "neg", "add_table", "_exp3")

    def __init__(self, p, e, q, w, exp, log, neg, add_table=None):
        self.p = p
        self.e = e
        self.q = q
        self.w = w
        self.exp = list(exp)
        self.log = list(log)
        self.neg = list(neg)
        self.add_table = list(add_table) if add_table is not None else None
        # _exp3[i] == exp[i % w] for 0 <= i < 3w: indexed by a sum of two
        # logs, or of three in a reduction step
        self._exp3 = self.exp * 3

    # -- scalar ops ---------------------------------------------------------

    def fadd(self, a, b):
        t = self.add_table
        if t is not None:
            return t[a * self.q + b]
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        scale = 1
        while a or b:
            out += ((a + b) % p) * scale
            a //= p
            b //= p
            scale *= p
        return out

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
        add = self.add_table
        if add is not None:
            q = self.q
            out = [add[a * q + b] for a, b in zip(f, g)]
        else:
            fadd = self.fadd
            out = [fadd(a, b) for a, b in zip(f, g)]
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
        add = self.add_table
        if add is not None:
            q = self.q
            for i, a in enumerate(f):
                if a:
                    la = log[a]
                    for j, lb in g_logs:
                        k = i + j
                        out[k] = add[out[k] * q + exp3[la + lb]]
        else:
            fadd = self.fadd
            for i, a in enumerate(f):
                if a:
                    la = log[a]
                    for j, lb in g_logs:
                        k = i + j
                        out[k] = fadd(out[k], exp3[la + lb])
        while out and out[-1] == 0:
            out.pop()
        return out

    def papply(self, rows, h):
        n = len(rows)
        if len(h) > n or max(map(len, rows), default=0) > n:
            raise ValueError(f"papply: h and each row need at most {n} coefficients")
        exp3, log = self._exp3, self.log
        out = [0] * n
        add = self.add_table
        if add is not None:
            q = self.q
            for c, row in zip(h, rows):
                if c:
                    lc = log[c]
                    for j, b in enumerate(row):
                        if b:
                            out[j] = add[out[j] * q + exp3[lc + log[b]]]
        else:
            fadd = self.fadd
            for c, row in zip(h, rows):
                if c:
                    lc = log[c]
                    for j, b in enumerate(row):
                        if b:
                            out[j] = fadd(out[j], exp3[lc + log[b]])
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
            add = self.add_table
            fadd = self.fadd if add is None else None
            q = self.q
            # step i adds t * (-g_j / lc(g)) into r[i + j] below the top,
            # t = r[i + dg]: one exp3 lookup on log t + c + log g_j < 3w
            for i in range(len(r) - dg - 1, -1, -1):
                t = r[i + dg]
                if t:
                    lt = log[t] + c
                    if quot is not None:
                        quot[i] = exp3[lt + half]
                    if fadd is None:
                        for j, lg in pairs:
                            k = i + j
                            r[k] = add[r[k] * q + exp3[lt + lg]]
                    else:
                        for j, lg in pairs:
                            k = i + j
                            r[k] = fadd(r[k], exp3[lt + lg])
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
        while g:
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
