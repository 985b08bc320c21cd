"""Pure-Python arithmetic kernel.

Reference implementation of the hot operations: element arithmetic in F_q
(elements encoded as ints in [0, q)) and dense polynomial arithmetic over
F_q (coefficient sequences, ascending degree, no trailing zeros, empty =
0; inputs may be lists or tuples, results are lists).

The compiled kernel in ``_core.pyx`` implements the identical interface;
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

    __slots__ = ("p", "e", "q", "w", "exp", "log", "neg", "add_table")

    def __init__(self, p, e, q, w, exp, log, neg, add_table=None):
        self.p = p
        self.e = e
        self.q = q
        self.w = w
        self.exp = list(exp)
        self.log = list(log)
        self.neg = list(neg)
        self.add_table = list(add_table) if add_table is not None else None

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

    def fneg(self, a):
        return self.neg[a]

    def fsub(self, a, b):
        return self.fadd(a, self.neg[b])

    def fmul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.w]

    def finv(self, a):
        return self.exp[(self.w - self.log[a]) % self.w]

    # -- polynomial ops -------------------------------------------------------

    def padd(self, f, g):
        if len(f) < len(g):
            f, g = g, f
        out = list(f)
        for i, c in enumerate(g):
            out[i] = self.fadd(out[i], c)
        while out and out[-1] == 0:
            out.pop()
        return out

    def psub(self, f, g):
        neg = self.neg
        return self.padd(f, [neg[c] for c in g])

    def pscale(self, f, c):
        if c == 0:
            return []
        fmul = self.fmul
        return [fmul(x, c) for x in f]

    def pmul(self, f, g):
        if not f or not g:
            return []
        exp, log, w = self.exp, self.log, self.w
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a == 0:
                continue
            la = log[a]
            for j, b in enumerate(g):
                if b:
                    out[i + j] = self.fadd(out[i + j], exp[(la + log[b]) % w])
        while out and out[-1] == 0:
            out.pop()
        return out

    def pdivrem(self, f, g):
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(f)
        dg = len(g) - 1
        if len(rem) - 1 < dg:
            return [], rem
        inv_lc = self.finv(g[-1])
        quot = [0] * (len(rem) - dg)
        fmul, fsub = self.fmul, self.fsub
        for i in range(len(rem) - dg - 1, -1, -1):
            c = fmul(rem[i + dg], inv_lc)
            quot[i] = c
            if c:
                for j in range(dg + 1):
                    rem[i + j] = fsub(rem[i + j], fmul(c, g[j]))
        while rem and rem[-1] == 0:
            rem.pop()
        while quot and quot[-1] == 0:
            quot.pop()
        return quot, rem

    def prem(self, f, g):
        return self.pdivrem(f, g)[1]

    def pmonic(self, f):
        if not f or f[-1] == 1:
            return list(f)
        return self.pscale(f, self.finv(f[-1]))

    def pgcd(self, f, g):
        f, g = list(f), list(g)
        while g:
            f, g = g, self.prem(f, g)
        return self.pmonic(f)

    def ppowmod(self, f, n, m):
        if len(m) < 2:
            raise ZeroDivisionError("powmod modulus must be nonconstant")
        acc = [1]
        base = self.prem(f, m)
        while n > 0:
            if n & 1:
                acc = self.prem(self.pmul(acc, base), m)
            n >>= 1
            if n:
                base = self.prem(self.pmul(base, base), m)
        return acc
