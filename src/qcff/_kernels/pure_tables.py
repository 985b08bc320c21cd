"""Frobenius tables for the pure-Python kernel.

``TableOps`` holds the four ops of ``pure.FieldKernel`` that work on
Frobenius tables; the kernel mixes it in, and its methods use the
kernel's own loops and byte path. ``ptable(m)`` builds the table of a
nonconstant m, a ``FrobeniusTable``: the rows T**(q*i) mod m for i < n =
deg m, row i being row i - 1 times T**q mod m, with m's divisor prepared
once (von zur Gathen and Shoup, Comput. Complexity 2, 1992); each form
below reaches T**q one way. Only the kernel that built a table reads it,
and no call re-packs or re-checks its rows. ``papply(table, h)`` is h**q
mod m, the sum of h_i * row i, one application of the q-th power map;
``pnorm(table, h, d)`` is h**(1 + q + ... + q**(d-1)) mod m by an
Itoh-Tsujii chain (Inform. Comput. 78, 1988); ``pwalk(table, first)`` is
the distinct-degree split of m made monic, its (part, degree) pairs in
the order found (only the first with ``first``). h has at most n
coefficients; a longer one raises ``ValueError``.

Over a field with q <= 16 every table takes the kernel's byte path: each
row is one int, one coefficient per byte, and for every n it is the row
before shifted up q places with its top q bytes reduced by m's packed
-m/lc(m), prepared once, so row 1 is T**q mod m by construction. The
chain and the walk keep their operands packed from the first step to the
last, the walk's gcds included. Measured per op on tables of degree 2-32,
the byte form was as fast as lists or faster, so there is no threshold.
Over a larger field each row is its nonzero (index, log) pairs and the
list loops run: while q < n each row is the one before shifted up q
places and reduced, otherwise row 1 is ``ppowmod([0, 1], q, m)`` and each
later row a product mod m, since a shift costs about q * n steps and q
can be 2**16.
"""

from __future__ import annotations


class FrobeniusTable:
    """The Frobenius table of a nonconstant m, built by ``FieldKernel.ptable``
    and read only by the kernel that built it: the rows T**(q*i) mod m for
    i < deg m, and m's divisor, each prepared once. On the byte path each
    row is an int, one coefficient per byte, the row before shifted up q
    places and reduced, and the divisor is m's ng (``_packed_divisor``);
    otherwise each row is its nonzero (index, log) pairs, shifted while q <
    deg m and a product with the powmod T**q otherwise, and the divisor is
    ``_divisor(m)``."""

    __slots__ = ("kernel", "modulus", "rows", "divisor")

    def __init__(self, kernel, modulus, rows, divisor):
        self.kernel = kernel
        self.modulus = modulus
        self.rows = rows
        self.divisor = divisor

    def __len__(self):
        return len(self.modulus) - 1


class TableOps:
    """The Frobenius-table ops of ``pure.FieldKernel``, which mixes them in."""

    __slots__ = ()

    def ptable(self, m):
        m = list(self._stripped(m))
        if len(m) < 2:
            raise ZeroDivisionError("table modulus must be nonconstant")
        n, q = len(m) - 1, self.q
        if self._small:
            ng = self._packed_divisor(bytes(m))[0]
            from_bytes, rem = int.from_bytes, self._rem_packed
            rows = [1]
            # row i: row i - 1 shifted up q places, its top q bytes reduced
            for _ in range(1, n):
                rows.append(from_bytes(rem((rows[-1] << 8 * q).to_bytes(n + q, "little"),
                                           ng, n), "little"))
            return FrobeniusTable(self, m, rows, ng)
        divisor = self._divisor(m)
        rows = [[1]]
        if q < n:
            for _ in range(1, n):
                row = [0] * q + rows[-1] if rows[-1] else []
                self._reduce(row, m, divisor=divisor)
                rows.append(row)
        elif n > 1:
            x = self.ppowmod([0, 1], q, m)
            rows.append(x)
            for _ in range(2, n):
                row = self.pmul(rows[-1], x)
                self._reduce(row, m, divisor=divisor)
                rows.append(row)
        log = self.log
        rows = [[(j, log[b]) for j, b in enumerate(row) if b] for row in rows]
        return FrobeniusTable(self, m, rows, divisor)

    def papply(self, table, h):
        apply, _, start = self._frobenius(table, h)
        return list(apply(start))

    def pnorm(self, table, h, d):
        apply, mulmod, acc = self._frobenius(table, h)
        d = self._int64(d, "pnorm's d")
        if d < 1:
            raise ValueError(f"pnorm needs d >= 1, got {d}")
        # N_k = h**(1 + q + ... + q**(k-1)) along the bits of d from the top:
        # N_2k = N_k**(q**k) * N_k and N_(k+1) = N_k**q * h
        base, k = acc, 1
        for bit in bin(d)[3:]:
            shifted = acc
            for _ in range(k):
                shifted = apply(shifted)
            acc, k = mulmod(shifted, acc), 2 * k
            if bit == "1":
                acc, k = mulmod(apply(acc), base), k + 1
        return list(acc)

    def pwalk(self, table, first):
        apply, _, h = self._frobenius(table, [0, 1] if len(table) > 1 else [])
        if self._small:
            minus_one = self._ma[self.neg[1]]  # minus_one[x * 16 + 1] is x - 1
            rem_packed, gcd_bytes = self._rem_packed, self._gcd_bytes

            def minus_t(v):
                v = v.ljust(2, b"\0")
                return (v[:1] + bytes((minus_one[v[1] * 16 + 1],)) + v[2:]).rstrip(b"\0")

            def gcd(f, v):
                return self.pmonic(list(gcd_bytes(bytes(f), v)))

            def rem(v, f, fdiv):
                return rem_packed(v, fdiv, len(f) - 1).rstrip(b"\0")

            def divisor(f):
                return self._packed_divisor(bytes(f))[0]
        else:
            gcd, divisor = self.pgcd, self._divisor

            def minus_t(v):
                return self.psub(v, [0, 1])

            def rem(v, f, fdiv):
                self._reduce(v, f, divisor=fdiv)
                return v

        f = self.pmonic(table.modulus)
        parts = []
        fdiv = None  # f's divisor once f has shrunk below the table's modulus
        d = 0
        while len(f) > 2 * d + 2:  # deg f >= 2 * (d + 1)
            d += 1
            h = apply(h)
            if fdiv is not None:
                h = rem(h, f, fdiv)
            g = gcd(f, minus_t(h))
            if len(g) > 1:
                parts.append((g, d))
                if first:
                    return parts
                f = self.pdivrem(f, g)[0]
                if len(f) > 2 * d + 2:
                    fdiv = divisor(f)
        if len(f) > 1:
            parts.append((f, len(f) - 1))
        return parts

    def _frobenius(self, table, h):
        """(apply, mulmod, h) for a table this kernel built and an h of at
        most deg m coefficients: apply(v) is v**q mod m and mulmod(a, b) is
        a*b mod m, both on the table's form (stripped bytes or lists), and h
        is checked and put in that form."""
        if type(table) is not FrobeniusTable or table.kernel is not self:
            raise TypeError("expected a FrobeniusTable built by this kernel")
        self._check(h)
        rows, m, divisor = table.rows, table.modulus, table.divisor
        n = len(m) - 1
        if len(h) > n:
            raise ValueError(f"h needs at most {n} coefficients for a table of {n} rows")
        if self._small:
            ma, from_bytes, rem, mul = self._ma, int.from_bytes, self._rem_packed, self._mul_packed

            def apply(v):
                out = 0
                for c, row in zip(v, rows):
                    if c:
                        out = from_bytes(((out << 4) | row).to_bytes(n, "little")
                                         .translate(ma[c]), "little")
                return out.to_bytes((out.bit_length() + 7) // 8, "little")

            def mulmod(a, b):
                return rem(mul(a, b), divisor, n).rstrip(b"\0")

            return apply, mulmod, bytes(h).rstrip(b"\0")

        exp3, log, add, stride = self._exp3, self.log, self._sums, self._stride
        reduce, pmul = self._reduce, self.pmul

        def apply(v):
            out = [0] * n
            for c, row in zip(v, rows):
                if c:
                    lc = log[c]
                    for j, lb in row:
                        out[j] = add[out[j] * stride + exp3[lc + lb]]
            while out and out[-1] == 0:
                out.pop()
            return out

        def mulmod(a, b):
            out = pmul(a, b)
            reduce(out, m, divisor=divisor)
            return out

        h = list(h)
        while h and h[-1] == 0:
            h.pop()
        return apply, mulmod, h
