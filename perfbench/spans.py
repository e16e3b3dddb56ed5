"""Span tracing around the program's public functions, from outside.

Each traced function is replaced by a wrapper at every module attribute of
``entropygames`` that is bound to it, because modules bind names at import
(``decide.lp_max``, ``games.mat_mul``, ``linalg.power_enclosure``, ...) and
patching only the defining module would miss those calls.  References held
in other containers (such as the query table in ``cli``) are not reached;
no workload calls through them.

While recording, every call appends one span (name, start, end, parent span,
operation id) to an in-memory list and runs the function's observer, which
updates work counts.  Observer time is charged to no span.  Nothing is
written until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter


def _max(tracer, key, value):
    if value > tracer.maxes.get(key, 0):
        tracer.maxes[key] = value


def _rational_bits(values) -> int:
    """Largest numerator or denominator bit length among Fractions."""
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in values),
        default=0,
    )


def _observe_lp(tracer, args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    tracer.counts["lp.rows_x_vars.total"] += len(system.constraints) * system.variables
    if result.status == "infeasible":
        tracer.counts["lp.infeasible"] += 1
    if result.solution is not None:
        _max(tracer, "lp.solution_bits_max", _rational_bits(result.solution))


def _observe_probe(tracer, args, kwargs, result):
    tracer.counts["decide.probes"] += 1
    if result[0]:
        tracer.counts["decide.hits"] += 1


def _observe_bisection(tracer, args, kwargs, result):
    tracer.counts["decide.value_bisection.steps"] += result.bisections


def _observe_entries(tracer, args, kwargs, result):
    rows = result.data if hasattr(result, "data") else (result,)
    _max(tracer, "linalg.entry_bits_max", max(_rational_bits(r) for r in rows))


def _observe_radius(tracer, args, kwargs, result):
    if not result.converged:
        tracer.counts["linalg.spectral_radius.unconverged"] += 1
    witness = (
        result.witness_lower.entries
        + result.witness_upper.entries
        + (result.lower, result.upper)
    )
    _max(tracer, "linalg.witness_bits_max", _rational_bits(witness))


def _observe_kernel(tracer, args, kwargs, result):
    n = args[1]
    iterations = result[2]
    tracer.counts["kernels.power_enclosure.iterations"] += iterations
    tracer.counts["kernels.flops_computed"] += iterations * 2 * n * n


# (span name, defining module, attribute, observer).  Span names are
# "<layer>.<function>", the layer being the package module.
TARGETS = (
    ("cli.main", "entropygames.cli", "main", None),
    ("io.load_document", "entropygames.io", "load_document", None),
    ("games.solve", "entropygames.games", "solve", None),
    ("games.arena_to_iru", "entropygames.games", "arena_to_iru", None),
    ("games.find_saddle", "entropygames.games", "find_saddle", None),
    ("games.verify_saddle", "entropygames.games", "verify_saddle", None),
    ("decide.value_bisection", "entropygames.decide", "value_bisection", _observe_bisection),
    ("decide.decide_mm_lt", "entropygames.decide", "decide_mm_lt", None),
    ("decide.decide_mm_ge", "entropygames.decide", "decide_mm_ge", None),
    ("decide.decide_jsr_lt", "entropygames.decide", "decide_jsr_lt", _observe_probe),
    ("decide.decide_jssr_ge", "entropygames.decide", "decide_jssr_ge", _observe_probe),
    ("iru.right_product", "entropygames.iru", "right_product", None),
    ("lp.lp_max", "entropygames.lp", "lp_max", _observe_lp),
    ("linalg.mat_mul", "entropygames.linalg", "mat_mul", _observe_entries),
    ("linalg.vec_mat", "entropygames.linalg", "vec_mat", _observe_entries),
    ("linalg.spectral_radius", "entropygames.linalg", "spectral_radius", _observe_radius),
    ("kernels.power_enclosure", "entropygames.kernels", "power_enclosure", _observe_kernel),
    ("realroots.compare_radii", "entropygames.realroots", "compare_radii", None),
    ("realroots.charpoly", "entropygames.realroots", "charpoly", None),
    (
        "realroots.compare_radius_with_rational",
        "entropygames.realroots",
        "compare_radius_with_rational",
        None,
    ),
    ("reductions.run_scripted_play", "entropygames.reductions", "run_scripted_play", None),
    (
        "reductions.check_nonneg_punishment",
        "entropygames.reductions",
        "check_nonneg_punishment",
        None,
    ),
)

# Member enumeration is a generator consumed by its caller, so it is
# counted (members yielded) rather than timed.
ENUMERATE = ("entropygames.iru", "enumerate_members")


class Tracer:
    """Owns the span list, the counts and the installed wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, excluded]
        self.counts: Counter = Counter()
        self.maxes: dict[str, int] = {}
        self.recording = False
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.bindings: dict[str, int] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every entropygames binding of it."""
        for name, module, attr, observer in TARGETS:
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                self.bindings[name] = 0
                continue
            self._patch_everywhere(name, original, self._span_wrapper(name, original, observer))
        module, attr = ENUMERATE
        original = getattr(importlib.import_module(module), attr, None)
        if original is not None:
            self._patch_everywhere("iru.enumerate_members", original, self._count_wrapper(original))

    def _patch_everywhere(self, name, original, wrapper) -> None:
        count = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != "entropygames":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
                    count += 1
        self.bindings[name] = count

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _span_wrapper(self, name, fn, observer):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            span = [name, clock(), None, stack[-1] if stack else None, tracer.op, 0.0]
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observer is not None:
                observer(tracer, args, kwargs, result)
                if stack:
                    tracer.spans[stack[-1]][5] += clock() - span[2]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.recording:
                    tracer.counts["iru.members_yielded"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def op_span(self, name: str, op_id: int):
        """Record one benchmark operation as the root span that every
        program span of the operation descends from."""
        self.op = op_id
        span = [name, time.perf_counter(), None, None, op_id, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            span[2] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by direct
        child spans and by observers."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _, _, excluded) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k] - excluded
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": k, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )

