"""Pure-Python arithmetic kernel.

Reference implementation of the hot operations: element arithmetic in F_q
(elements encoded as ints in [0, q)) and dense polynomial arithmetic over
F_q (coefficient sequences, ascending degree, no trailing zeros, empty =
0; inputs may be lists or tuples, results are lists).

The polynomial loops work on discrete logs. Each call turns the fixed
operand (the second factor of a product, the divisor of a division) into
its nonzero (index, log) pairs once, and indexes ``_exp2``, the exp table
repeated twice, with sums of two logs, so no step reduces mod w. Each
step then adds one product into one coefficient: where the field has an
addition table (q <= 256) that is one lookup, ``add_table[x * q + y]``;
where it has none, it is one ``fadd`` call. The branch is taken once per
call, outside the loops.

``papply(rows, h)`` is the one op that is not ring arithmetic on two
polynomials: it returns the sum of h_i * rows[i]. On a Frobenius table
(rows[i] = T**(q*i) mod f) that is h**q mod f, so one application of the
q-th power map is one call. Its n rows, like h, hold at most n
coefficients each; a longer one raises ``ValueError``.

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

    __slots__ = ("p", "e", "q", "w", "exp", "log", "neg", "add_table", "_exp2")

    def __init__(self, p, e, q, w, exp, log, neg, add_table=None):
        self.p = p
        self.e = e
        self.q = q
        self.w = w
        self.exp = list(exp)
        self.log = list(log)
        self.neg = list(neg)
        self.add_table = list(add_table) if add_table is not None else None
        # _exp2[i] == exp[i % w] for 0 <= i < 2w: indexed by a sum of two logs
        self._exp2 = self.exp * 2

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
        return self._exp2[self.log[a] + self.log[b]]

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
        exp2, log = self._exp2, self.log
        lc = log[c]
        return [exp2[lc + log[x]] if x else 0 for x in f]

    def pmul(self, f, g):
        if not f or not g:
            return []
        exp2, log = self._exp2, self.log
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
                        out[k] = add[out[k] * q + exp2[la + lb]]
        else:
            fadd = self.fadd
            for i, a in enumerate(f):
                if a:
                    la = log[a]
                    for j, lb in g_logs:
                        k = i + j
                        out[k] = fadd(out[k], exp2[la + lb])
        while out and out[-1] == 0:
            out.pop()
        return out

    def papply(self, rows, h):
        n = len(rows)
        if len(h) > n or max(map(len, rows), default=0) > n:
            raise ValueError(f"papply: h and each row need at most {n} coefficients")
        exp2, log = self._exp2, self.log
        out = [0] * n
        add = self.add_table
        if add is not None:
            q = self.q
            for c, row in zip(h, rows):
                if c:
                    lc = log[c]
                    for j, b in enumerate(row):
                        if b:
                            out[j] = add[out[j] * q + exp2[lc + log[b]]]
        else:
            fadd = self.fadd
            for c, row in zip(h, rows):
                if c:
                    lc = log[c]
                    for j, b in enumerate(row):
                        if b:
                            out[j] = fadd(out[j], exp2[lc + log[b]])
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
        exp2, log, neg, w = self._exp2, self.log, self.neg, self.w
        l_inv = (w - log[g[-1]]) % w
        # step i subtracts t * g / lc(g), where t = rem[i + dg]: below the
        # top it adds t * h_j with h_j = -g_j / lc(g), and the top becomes 0
        h_logs = [(j, (log[neg[b]] + l_inv) % w) for j, b in enumerate(g[:dg]) if b]
        quot = [0] * (len(rem) - dg)
        add = self.add_table
        if add is not None:
            q = self.q
            for i in range(len(rem) - dg - 1, -1, -1):
                t = rem[i + dg]
                if t:
                    lt = log[t]
                    quot[i] = exp2[lt + l_inv]
                    for j, lh in h_logs:
                        k = i + j
                        rem[k] = add[rem[k] * q + exp2[lt + lh]]
        else:
            fadd = self.fadd
            for i in range(len(rem) - dg - 1, -1, -1):
                t = rem[i + dg]
                if t:
                    lt = log[t]
                    quot[i] = exp2[lt + l_inv]
                    for j, lh in h_logs:
                        k = i + j
                        rem[k] = fadd(rem[k], exp2[lt + lh])
        del rem[dg:]
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
