"""Tracing from outside the program: spans and counters around qcff's layers.

``Tracer.install()`` wraps the public functions of each layer where other
modules look them up (every ``qcff.*`` module attribute bound to the
function), wraps the arithmetic methods of ``Poly`` on the class, and swaps
``qcff.algebra.field.FieldKernel`` for a factory that puts a counting proxy
around the real kernel, whichever backend that is. ``uninstall()`` puts
everything back.

Coarse calls (factorization, symbols, pipeline stages, selfcheck suites)
are recorded as spans: name, start, end, parent span, job id. Fine-grained
calls (kernel ops, ``Poly`` ops, ``poly_cmp``, ``reduce_fraction``) are
too many to keep one by one, so they only add to counters. Either kind
charges its duration to its caller, which gives every layer a self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Kernel methods, grouped as the per-layer metrics report them.
KERNEL_GROUPS = {
    "pmul": "pmul", "pdivrem": "pdivrem", "prem": "prem", "pgcd": "pgcd",
    "ppowmod": "ppowmod", "padd": "other", "psub": "other", "pscale": "other",
    "pmonic": "other", "fadd": "scalar", "fneg": "scalar", "fsub": "scalar",
    "fmul": "scalar", "finv": "scalar",
}

POLY_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                "__rmul__", "scale", "__divmod__", "__floordiv__", "__mod__",
                "__pow__", "to_monic", "derivative", "eval_at")

# (module, function, traced name, kept as a span); the layer is the part of
# the name before the first dot.
FUNCTIONS = [
    ("qcff.algebra.poly", "poly_gcd", "poly.poly_gcd", False),
    ("qcff.algebra.poly", "poly_powmod", "poly.poly_powmod", False),
    ("qcff.algebra.factor", "poly_factor", "factor.poly_factor", True),
    ("qcff.algebra.factor", "poly_is_irreducible", "factor.poly_is_irreducible", True),
    ("qcff.symbols", "residue_symbol", "symbols.residue_symbol", True),
    ("qcff.symbols", "jacobi_symbol", "symbols.jacobi_symbol", True),
    ("qcff.symbols", "check_reciprocity", "symbols.check_reciprocity", True),
    ("qcff.cyclotomic", "conductor_create", "cyclotomic.conductor_create", True),
    ("qcff.cyclotomic", "genus_closed_form", "cyclotomic.genus", True),
    ("qcff.cyclotomic", "genus_riemann_hurwitz", "cyclotomic.genus", True),
    ("qcff.kummer", "pair_formal_sum", "kummer.pair_formal_sum", True),
    ("qcff.kummer", "reduce_fraction", "kummer.reduce_fraction", False),
    ("qcff.kummer", "ramification_table", "kummer.ramification_table", True),
    ("qcff.kummer", "presentation", "kummer.presentation", True),
    ("qcff.kummer", "genus_hasse_formula", "kummer.genus", True),
    ("qcff.kummer", "genus_riemann_hurwitz", "kummer.genus", True),
    ("qcff.config", "parse_config", "config.parse_config", True),
    ("qcff.report", "run_report", "report.run_report", True),
    ("qcff.report", "render_json", "report.render_json", True),
] + [("qcff.selfcheck", suite, f"selfcheck.{suite[len('suite_'):]}", True)
     for suite in ("suite_reciprocity", "suite_phi_bruteforce", "suite_symbol_character",
                   "suite_parity", "suite_genus_paths", "suite_factor_roundtrip")]

# Time inside either of these layers, counted once where they nest.
GROUPS = {"factor": ("factor+symbols",), "symbols": ("factor+symbols",)}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)    # outermost calls only
        self.self_s: dict[str, float] = defaultdict(float)  # per name and per layer
        self.depth: dict[str, int] = defaultdict(int)
        self.stack: list[list] = []                          # [child time, span index]
        self.spans: list[tuple] = []                         # name, start, end, parent, job
        self.job: int | None = None
        self.raw_terms = 0
        self.kept_terms = 0
        self.irreducible_seen: set = set()  # (job, polynomial) pairs tested
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, fn, name: str, span: bool):
        layer = name.split(".", 1)[0]
        keys = (name, layer) + GROUPS.get(layer, ())
        calls, busy, self_s, depth = self.calls, self.busy, self.self_s, self.depth
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            for k in keys:
                depth[k] += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(spans) if span else parent]
            if span:
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                own = dt - frame[0]
                self_s[name] += own
                self_s[layer] += own
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                for k in keys:
                    depth[k] -= 1
                    if not depth[k]:
                        busy[k] += dt
                if span:
                    spans[frame[1]] = (name, t0, t1, parent, self.job)

        return traced

    def leaf(self, fn, name: str):
        """Wrapper for a call that reaches no other traced code."""
        layer = name.split(".", 1)[0]
        calls, busy, self_s = self.calls, self.busy, self.self_s
        stack, clock = self.stack, time.perf_counter

        def traced(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                calls[name] += 1
                busy[name] += dt
                self_s[layer] += dt
                if stack:
                    stack[-1][0] += dt

        return traced

    def job_span(self, job: int):
        """Root span of one job; everything the job calls nests under it."""
        self.job = job
        return self.wrap(lambda fn, *args: fn(*args), "bench.job", True)

    # -- install / uninstall ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname == "qcff" or modname.startswith("qcff."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def install(self) -> None:
        import qcff.algebra.field as field
        from qcff.algebra.poly import Poly

        for modname, func, name, span in FUNCTIONS:
            original = getattr(sys.modules[modname], func)
            wrapper = self.wrap(self._hook(func, original), name, span)
            self._rebind(original, wrapper)
        self._rebind(sys.modules["qcff.algebra.poly"].poly_cmp,
                     self.leaf(sys.modules["qcff.algebra.poly"].poly_cmp,
                               "poly.poly_cmp"))
        for method in POLY_METHODS:
            self._set(Poly, method, self.wrap(vars(Poly)[method], f"poly.{method}", False))

        real_kernel = field.FieldKernel

        def counting_kernel(*args):
            return _CountingKernel(real_kernel(*args), self)

        self._set(field, "FieldKernel", counting_kernel)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _hook(self, func: str, fn):
        """Add the counts that need a look at arguments or results."""
        if func == "poly_is_irreducible":
            def irreducible(f):
                self.irreducible_seen.add((self.job, f))
                return fn(f)
            return irreducible
        if func == "pair_formal_sum":
            def formal_sum(p_first, p_second):
                fs = fn(p_first, p_second)
                self.raw_terms += fs.raw_terms
                self.kept_terms += len(fs.terms)
                return fs
            return formal_sum
        return fn


class _CountingKernel:
    """Proxy around one field kernel that counts and times every call made
    through it. Calls the kernel makes to itself are not seen."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        for method, group in KERNEL_GROUPS.items():
            setattr(self, method, tracer.leaf(getattr(real, method), f"kernel.{group}"))

    def __getattr__(self, attr):
        return getattr(self._real, attr)
