"""Backend equivalence: the compiled kernel must agree with the pure one."""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from qcff._kernels import CompiledFieldKernel, PureFieldKernel
from qcff.algebra import field_create

FIELDS = [(3, 1, None), (5, 1, None), (7, 1, None), (3, 2, [1, 0, 1]),
          (5, 2, [2, 0, 1])]

needs_compiled = pytest.mark.skipif(
    CompiledFieldKernel is None, reason="compiled kernel not built")


def _kernels(p, e, mod):
    ctx = field_create(p, e, mod)
    pure = PureFieldKernel(ctx.p, ctx.e, ctx.q, ctx.w, ctx.exp, ctx.log,
                           ctx._neg, ctx._add_table)
    comp = CompiledFieldKernel(ctx.p, ctx.e, ctx.q, ctx.w, ctx.exp, ctx.log,
                               ctx._neg, ctx._add_table)
    return ctx, pure, comp


def _rand_poly(rng, q, max_len):
    """Random stripped coefficient sequence, a list or a tuple (Poly passes
    its tuples straight to the kernel)."""
    coeffs = [rng.randrange(q) for _ in range(rng.randrange(max_len))]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs) if rng.random() < 0.5 else coeffs


@needs_compiled
@pytest.mark.parametrize("p,e,mod", FIELDS)
def test_backends_agree_on_random_inputs(p, e, mod):
    ctx, pure, comp = _kernels(p, e, mod)
    rng = random.Random(99)
    for _ in range(400):
        f = _rand_poly(rng, ctx.q, 10)
        g = _rand_poly(rng, ctx.q, 10)
        assert pure.padd(f, g) == comp.padd(f, g)
        assert pure.psub(f, g) == comp.psub(f, g)
        assert pure.pmul(f, g) == comp.pmul(f, g)
        assert pure.pmonic(f) == comp.pmonic(f)
        if g:
            assert pure.pdivrem(f, g) == comp.pdivrem(f, g)
            assert pure.prem(f, g) == comp.prem(f, g)
        if f or g:
            assert pure.pgcd(f, g) == comp.pgcd(f, g)
        if len(g) >= 2:
            n = rng.randrange(10 ** 9)
            assert pure.ppowmod(f, n, g) == comp.ppowmod(f, n, g)


@needs_compiled
@pytest.mark.parametrize("p,e,mod", FIELDS)
def test_backends_agree_on_scalars(p, e, mod):
    ctx, pure, comp = _kernels(p, e, mod)
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert pure.fadd(a, b) == comp.fadd(a, b)
            assert pure.fsub(a, b) == comp.fsub(a, b)
            assert pure.fmul(a, b) == comp.fmul(a, b)
        assert pure.fneg(a) == comp.fneg(a)
        if a:
            assert pure.finv(a) == comp.finv(a)


@needs_compiled
def test_powmod_with_huge_exponent():
    ctx, pure, comp = _kernels(3, 2, [1, 0, 1])
    f = [4, 7, 1]
    m = [1, 0, 0, 0, 1]
    n = (ctx.q ** 40 - 1) // ctx.w
    assert pure.ppowmod(f, n, m) == comp.ppowmod(f, n, m)


# Cython copies the .pyx source into comments of the C file it generates:
#   /* "qcff/_kernels/_core.pyx":<line>
#    * <lines around it, the one at <line> marked with _CURRENT>
#    */
_SOURCE_REF = re.compile(r'^\s*/\* "(?:[\w/]*/)?_core\.pyx":(\d+)$')
_CURRENT = "# <<<<<<<<<<<<<<"
# .pyx lines Cython generates no code for, so never copies
_NOT_COPIED = re.compile(r"^\s*(#|from \S+ cimport |cdef [\w*]+ \w+$)")


def _copied_pyx_lines(c_lines):
    """{.pyx line number: set of texts} of the copies in the generated C."""
    copied = {}
    i = 0
    while i < len(c_lines):
        m = _SOURCE_REF.match(c_lines[i])
        i += 1
        if not m:
            continue
        block = []
        while not c_lines[i].lstrip().startswith("*/"):
            block.append(c_lines[i][3:])
            i += 1
        current = next(k for k, text in enumerate(block) if text.endswith(_CURRENT))
        first = int(m.group(1)) - current
        for k, text in enumerate(block):
            copied.setdefault(first + k, set()).add(text.removesuffix(_CURRENT).rstrip())
    return copied


def test_shipped_c_kernel_matches_pyx():
    kernels = Path(__file__).resolve().parent.parent / "src" / "qcff" / "_kernels"
    pyx = (kernels / "_core.pyx").read_text(encoding="utf-8").splitlines()
    c_lines = (kernels / "_core.c").read_text(encoding="utf-8").splitlines()
    copied = _copied_pyx_lines(c_lines)
    stale = "_core.c is stale: regenerate it from _core.pyx (see setup.py)"
    for n, texts in sorted(copied.items()):
        expected = pyx[n - 1].rstrip() if 0 < n <= len(pyx) else None
        assert texts == {expected}, f"{stale}; _core.pyx:{n} differs"
    uncopied = [n for n, line in enumerate(pyx, 1)
                if line.strip() and n not in copied and not _NOT_COPIED.match(line)]
    assert not uncopied, f"{stale}; _core.pyx lines {uncopied} are not in it"


def test_divrem_by_zero_raises(ctx3):
    with pytest.raises(ZeroDivisionError):
        ctx3.kernel.pdivrem([1, 2], [])
