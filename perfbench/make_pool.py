"""Generate the benchmark's job pool and pin the outputs of the current code.

    python3 perfbench/make_pool.py

Writes ``perfbench/pool.json``. For ``formal_sum`` and ``tower_report`` it
holds, per job class, a list of configs and, next to each config, the
sha256 of the canonical report that the code in ``src/`` produces for it.
For ``selfcheck`` it holds the suite names and case counts of
``run_selfcheck("full", seed)``, which do not depend on the seed.

The configs are made here with a small F_q[T] implementation of its own
(Rabin's irreducibility test on coefficient lists), so the inputs do not
depend on the code under test. A run of the benchmark picks its jobs from
this pool by its ``--seed``, so every job of every seed has a pinned digest.
Run this script only on a commit whose reports are known to be right.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "pool.json"
PER_CLASS = {"formal_sum": 16, "tower_report": 40}  # even: configs pair up

# formal_sum: one prime pair (deg P, deg Q) per job, formal sums emitted.
# Nine light classes of 570-1,400 raw terms (about 0.1 s) and three heavy
# ones of 9,680-12,740 (about 1 s). Job times then form two clusters that
# hold the median and the tail well inside them, so neither statistic sits
# on the edge between two classes.
FORMAL_SUM_CLASSES = [
    {"p": 3, "e": 1, "degrees": [3, 4]},
    {"p": 3, "e": 1, "degrees": [2, 5]},
    {"p": 3, "e": 1, "degrees": [1, 6]},
    {"p": 5, "e": 1, "degrees": [2, 3]},
    {"p": 5, "e": 1, "degrees": [1, 4]},
    {"p": 7, "e": 1, "degrees": [2, 2]},
    {"p": 7, "e": 1, "degrees": [1, 3]},
    {"p": 3, "e": 2, "degrees": [2, 2]},
    {"p": 3, "e": 2, "degrees": [1, 3]},
    {"p": 3, "e": 1, "degrees": [4, 5]},
    {"p": 3, "e": 2, "degrees": [1, 4]},
    {"p": 3, "e": 2, "degrees": [2, 3]},
]

# tower_report: an unfactored conductor of n random primes (degree <= 16,
# exponents 1-2) and 2-6 random oriented pairs; no formal sums.
TOWER_CLASSES = [
    {"p": 3, "e": 1, "primes": 4}, {"p": 3, "e": 1, "primes": 7},
    {"p": 5, "e": 1, "primes": 5}, {"p": 5, "e": 1, "primes": 8},
    {"p": 7, "e": 1, "primes": 4}, {"p": 7, "e": 1, "primes": 6},
    {"p": 3, "e": 2, "primes": 5}, {"p": 3, "e": 2, "primes": 8},
]
TOWER_MAX_DEGREE = 16
MODULUS_F9 = "T^2+1"


# -- a small F_q and F_q[T], independent of the code under test -----------------

class Field:
    """F_q with q = p^e, elements encoded as sum digit_i * p^i (the encoding
    qcff's configs use), multiplication modulo a monic degree-e modulus."""

    def __init__(self, p: int, e: int = 1, modulus: tuple[int, ...] = (1, 0, 1)):
        self.p, self.e, self.q = p, e, p ** e
        digits = [[(x // p ** i) % p for i in range(e)] for x in range(self.q)]

        def enc(ds):
            return sum(d * p ** i for i, d in enumerate(ds))

        self.add = [[enc([(x + y) % p for x, y in zip(digits[a], digits[b])])
                     for b in range(self.q)] for a in range(self.q)]
        self.neg = [enc([-x % p for x in digits[a]]) for a in range(self.q)]
        self.mul = [[0] * self.q for _ in range(self.q)]
        for a in range(self.q):
            for b in range(self.q):
                conv = [0] * (2 * e - 1)
                for i, x in enumerate(digits[a]):
                    for j, y in enumerate(digits[b]):
                        conv[i + j] += x * y
                for k in range(len(conv) - 1, e - 1, -1):
                    c = conv[k]
                    conv[k] = 0
                    for j in range(e):
                        conv[k - e + j] -= c * modulus[j]
                self.mul[a][b] = enc([c % p for c in conv[:e]])
        self.inv = [0] + [next(b for b in range(1, self.q) if self.mul[a][b] == 1)
                          for a in range(1, self.q)]


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mul(F: Field, f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            row = F.mul[a]
            for j, b in enumerate(g):
                out[i + j] = F.add[out[i + j]][row[b]]
    return _trim(out)


def poly_rem(F: Field, f: list[int], m: list[int]) -> list[int]:
    r = list(f)
    inv_lc = F.inv[m[-1]]
    dm = len(m) - 1
    for i in range(len(r) - 1, dm - 1, -1):
        c = F.mul[r[i]][inv_lc]
        if c:
            nc = F.neg[c]
            for j in range(dm + 1):
                r[i - dm + j] = F.add[r[i - dm + j]][F.mul[nc][m[j]]]
    return _trim(r[:dm] if len(r) > dm else r)


def poly_sub(F: Field, f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    f = f + [0] * (n - len(f))
    g = g + [0] * (n - len(g))
    return _trim([F.add[a][F.neg[b]] for a, b in zip(f, g)])


def poly_gcd(F: Field, f: list[int], g: list[int]) -> list[int]:
    while g:
        f, g = g, poly_rem(F, f, g)
    return f


def poly_powmod(F: Field, f: list[int], n: int, m: list[int]) -> list[int]:
    acc, base = [1], poly_rem(F, f, m)
    while n:
        if n & 1:
            acc = poly_rem(F, poly_mul(F, acc, base), m)
        base = poly_rem(F, poly_mul(F, base, base), m)
        n >>= 1
    return acc


def _prime_divisors(n: int) -> list[int]:
    return [d for d in range(2, n + 1)
            if n % d == 0 and all(d % k for k in range(2, d))]


def is_irreducible(F: Field, f: list[int]) -> bool:
    """Rabin's test for a monic f of degree >= 1."""
    d = len(f) - 1
    T = [0, 1]
    frob = {}
    h = poly_rem(F, T, f)
    for k in range(1, d + 1):
        h = poly_powmod(F, h, F.q, f)
        frob[k] = h
    if frob[d] != poly_rem(F, T, f):
        return False
    return all(len(poly_gcd(F, f, poly_sub(F, frob[d // ell], T))) == 1
               for ell in _prime_divisors(d))


def random_prime(F: Field, d: int, rng: random.Random) -> list[int]:
    while True:
        f = [rng.randrange(F.q) for _ in range(d)] + [1]
        if is_irreducible(F, f):
            return f


def canonical_key(f: list[int]) -> tuple:
    """qcff's polynomial order: degree, then coefficients from the top down."""
    return (len(f), f[::-1])


def format_poly(f: list[int]) -> str:
    parts = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            mono = "T" if k == 1 else f"T^{k}"
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(parts) if parts else "0"


# -- configs ----------------------------------------------------------------------

def _field_keys(spec: dict) -> dict:
    keys = {"schema_version": 1, "p": spec["p"], "e": spec["e"]}
    if spec["e"] > 1:
        keys["modulus"] = MODULUS_F9
    return keys


def formal_sum_config(spec: dict, rng: random.Random) -> dict:
    F = Field(spec["p"], spec["e"])
    d1, d2 = spec["degrees"]
    first = random_prime(F, d1, rng)
    second = first
    while second == first:
        second = random_prime(F, d2, rng)
    first, second = sorted([first, second], key=canonical_key)
    return {**_field_keys(spec), "rng_seed": rng.randrange(1000),
            "conductor": {"poly": format_poly(poly_mul(F, first, second))},
            "pairs": [[format_poly(first), format_poly(second)]],
            "options": {"emit_a_pq": True, "run_oracles": True}}


def count_primes(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q (Gauss's formula)."""
    def mobius(n: int) -> int:
        ps = _prime_divisors(n)
        m = 1
        for ell in ps:
            m *= ell
        return 0 if m != n else (-1) ** len(ps)
    return sum(mobius(k) * q ** (d // k) for k in range(1, d + 1) if d % k == 0) // d


def tower_config(spec: dict, shape: random.Random, rng: random.Random) -> dict:
    """Prime degrees, exponents and the chosen pairs come from ``shape``, the
    primes themselves from ``rng``: two configs made with one shape cost
    about the same while their polynomials differ."""
    F = Field(spec["p"], spec["e"])
    while True:
        degrees = sorted(shape.randint(1, TOWER_MAX_DEGREE) for _ in range(spec["primes"]))
        if all(degrees.count(d) <= count_primes(F.q, d) for d in degrees):
            break
    exponents = [shape.randint(1, 2) for _ in degrees]
    all_pairs = [(i, j) for i in range(len(degrees)) for j in range(i + 1, len(degrees))]
    chosen = sorted(shape.sample(all_pairs, shape.randint(2, min(6, len(all_pairs)))))
    primes: list[list[int]] = []
    for d in degrees:
        f = random_prime(F, d, rng)
        while f in primes:
            f = random_prime(F, d, rng)
        primes.append(f)
    primes.sort(key=canonical_key)
    conductor = [1]
    for f, exp in zip(primes, exponents):
        for _ in range(exp):
            conductor = poly_mul(F, conductor, f)
    return {**_field_keys(spec), "rng_seed": rng.randrange(1000),
            "conductor": {"poly": conductor},
            "pairs": [[format_poly(primes[i]), format_poly(primes[j])] for i, j in chosen],
            "options": {"emit_a_pq": False, "run_oracles": True}}


def make_config(workload: str, c: int, i: int) -> dict:
    """Config number i of class c. Configs come in pairs (2k, 2k + 1); a run
    takes one of each pair it uses, chosen by its seed. Tower configs of a
    pair share their shape, so the seed changes the polynomials but hardly
    the cost of a run."""
    rng = random.Random(f"{workload}/{c}/{i}")
    if workload == "formal_sum":
        return formal_sum_config(FORMAL_SUM_CLASSES[c], rng)
    shape = random.Random(f"{workload}/{c}/shape/{i // 2}")
    return tower_config(TOWER_CLASSES[c], shape, rng)


def make_configs() -> dict[str, list[dict]]:
    out = {}
    for workload, classes in (("formal_sum", FORMAL_SUM_CLASSES),
                              ("tower_report", TOWER_CLASSES)):
        out[workload] = [
            {"class": spec, "configs": [make_config(workload, c, i)
                                        for i in range(PER_CLASS[workload])]}
            for c, spec in enumerate(classes)]
    return out


# The fresh-process check: a one-pair report over F_3.
CLI_CONFIG = {"schema_version": 1, "p": 3, "e": 1,
              "conductor": {"factors": [["T", 1], ["T+1", 1]]}, "pairs": [["T", "T+1"]]}


# -- pinning ----------------------------------------------------------------------

def pin(configs: dict[str, list[dict]]) -> dict:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import qcff

    def digest(cfg: dict) -> str:
        text = qcff.render_json(qcff.run_report(qcff.parse_config(cfg)))
        return hashlib.sha256(text.encode()).hexdigest()

    pool: dict = {"backend": qcff.backend_name(),
                  "cli": {"config": CLI_CONFIG, "sha256": digest(CLI_CONFIG)}}
    for workload, classes in configs.items():
        pool[workload] = []
        for entry in classes:
            t0 = time.perf_counter()
            jobs = [{"config": cfg, "sha256": digest(cfg)} for cfg in entry["configs"]]
            pool[workload].append({"class": entry["class"], "jobs": jobs})
            print(f"{workload} {entry['class']}: {len(jobs)} jobs, "
                  f"{(time.perf_counter() - t0) / len(jobs):.3f} s/job", file=sys.stderr)
    results = qcff.run_selfcheck("full", 0)
    if not all(r.passed for r in results):
        raise SystemExit("selfcheck fails on this commit; refusing to pin it")
    pool["selfcheck"] = [[r.name, r.cases] for r in results]
    return pool


def main() -> None:
    pool = pin(make_configs())
    POOL_PATH.write_text(json.dumps(pool, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {POOL_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
