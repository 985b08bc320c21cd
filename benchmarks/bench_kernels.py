"""Benchmark the compiled kernel against the pure-Python fallback.

Times the hot operations (dense multiplication, division with and
without the quotient, modular exponentiation, gcd, one application of a
Frobenius table) and two composite workloads (residue-symbol style powmod
chains, and building a Frobenius table: shifts mod f on F_7 and F_9,
where q < deg f, one powmod and products mod f on the other two), on the
same inputs for both backends, over a prime field
(F_7), an extension field (F_9) and two fields without an addition table
(F_257 and F_3^6). It is the only per-operation, per-backend comparison;
perfbench/ times whole jobs with whichever kernel is loaded.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import random
import time

from qcff._kernels import CompiledFieldKernel, PureFieldKernel
from qcff.algebra import FieldCtx, Poly, field_create
from qcff.algebra.factor import frobenius_table


def _rand_poly(rng: random.Random, q: int, degree: int) -> list[int]:
    coeffs = [rng.randrange(q) for _ in range(degree)]
    coeffs.append(rng.randrange(1, q))
    return coeffs


def _time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# (label, p, e, modulus): the pure kernel adds through the q*q table on F_7
# and F_9, through the 2p sums on F_257, and by digit groups on F_3^6
FIELDS = [("F_7", 7, 1, None), ("F_9", 3, 2, [1, 0, 1]), ("F_257", 257, 1, None),
          ("F_3^6", 3, 6, [2, 1, 0, 0, 0, 0, 1])]


def bench_field(p: int, e: int, modulus, repeat: int) -> dict[str, dict[str, float]]:
    ctx = field_create(p, e, modulus)
    tables = (ctx.p, ctx.e, ctx.exp, ctx.log)
    kernels = {"pure": PureFieldKernel(*tables)}
    if CompiledFieldKernel is not None:
        kernels["compiled"] = CompiledFieldKernel(*tables)

    rng = random.Random(7)
    f64 = _rand_poly(rng, ctx.q, 64)
    g64 = _rand_poly(rng, ctx.q, 64)
    f128 = _rand_poly(rng, ctx.q, 128)
    g32 = _rand_poly(rng, ctx.q, 32)
    m8 = _rand_poly(rng, ctx.q, 8)
    base = _rand_poly(rng, ctx.q, 7)
    exponent = (ctx.q ** 8 - 1) // ctx.w
    rows = frobenius_table(Poly(ctx, _rand_poly(rng, ctx.q, 16)))
    h16 = _rand_poly(rng, ctx.q, 15)
    # frobenius_table computes with the kernel of f's field: one field per backend
    table_poly = {}
    for kern in kernels.values():
        kctx = FieldCtx(ctx.p, ctx.e, ctx.modulus, ctx.gamma, ctx.exp, ctx.log)
        kctx.kernel = kern
        table_poly[kern] = Poly(kctx, f64)

    workloads = {
        "pmul deg 64 x 64 (x200)":
            lambda k: [k.pmul(f64, g64) for _ in range(200)],
        "pdivrem deg 128 / 32 (x200)":
            lambda k: [k.pdivrem(f128, g32) for _ in range(200)],
        "prem deg 128 / 32 (x200)":
            lambda k: [k.prem(f128, g32) for _ in range(200)],
        "pgcd deg 64, 64 (x100)":
            lambda k: [k.pgcd(f64, g64) for _ in range(100)],
        "ppowmod symbol-style (x100)":
            lambda k: [k.ppowmod(base, exponent, m8) for _ in range(100)],
        "papply table deg 16 (x200)":
            lambda k: [k.papply(rows, h16) for _ in range(200)],
        "frobenius_table deg 64 (x1)":
            lambda k: frobenius_table(table_poly[k]),
    }
    return {wname: {kname: _time(lambda k=kern: load(k), repeat)
                    for kname, kern in kernels.items()}
            for wname, load in workloads.items()}


def bench(repeat: int) -> None:
    if CompiledFieldKernel is None:
        print("compiled kernel not built; timing the pure backend only")
    rows = [(label, wname, per)
            for label, p, e, modulus in FIELDS
            for wname, per in bench_field(p, e, modulus, repeat).items()]

    width = max(len(wname) for _, wname, _ in rows)
    print(f"{'field':<6}  {'workload'.ljust(width)}  {'pure':>10}  {'compiled':>10}  {'speedup':>8}")
    for label, wname, per in rows:
        pure_t = per["pure"]
        if "compiled" in per:
            comp_t = per["compiled"]
            print(f"{label:<6}  {wname.ljust(width)}  {pure_t * 1e3:>8.2f}ms  "
                  f"{comp_t * 1e3:>8.2f}ms  {pure_t / comp_t:>7.1f}x")
        else:
            print(f"{label:<6}  {wname.ljust(width)}  {pure_t * 1e3:>8.2f}ms  {'-':>10}  {'-':>8}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5,
                        help="repetitions per workload; best time wins")
    args = parser.parse_args()
    bench(args.repeat)


if __name__ == "__main__":
    main()
