"""Run the cliffstruct CLI with a span around each layer's public functions.

    PYTHONPATH=src python3 perfbench/tracer.py repr 6 5 --json

Stdout is the CLI's own output, byte for byte.  After the CLI returns, one
line ``PERFBENCH_TRACE <json>`` on stderr gives, per span, the call count,
the busy time (inclusive) and the self time (busy time minus the spans
nested inside it), plus the multivector term-pair count, the useful share
of ``ExactSpan.add`` calls and the time covered by outermost spans.

The wrappers are installed from outside the package: a function imported by
name into several modules is replaced in every module that binds it, and
methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

MARKER = "PERFBENCH_TRACE "
# The package's modules; a traced function is rebound wherever one of them
# holds it.
LAYERS = (
    "cli",
    "classify",
    "core",
    "linalg",
    "idempotents",
    "division",
    "representation",
    "verify",
)

# span name -> (module, function) for module-level functions
FUNCTION_SPANS = {
    "cli.main": ("cli", "main"),
    "idempotents.find_frame": ("idempotents", "find_frame"),
    "idempotents.is_primitive": ("idempotents", "is_primitive"),
    "division.division_ring_basis": ("division", "division_ring_basis"),
    "representation.spinor_basis": ("representation", "spinor_basis"),
    "representation.build_representation": ("representation", "build_representation"),
    "representation.representation_to_json_dict": (
        "representation",
        "representation_to_json_dict",
    ),
    "verify.verify_signature": ("verify", "verify_signature"),
    "verify.verify_representation": ("verify", "verify_representation"),
    "verify.brute_force_minimal_ideal_dim": ("verify", "brute_force_minimal_ideal_dim"),
}
# Multivector.__mul__, and ExactSpan.add, .contains and .coordinates
METHOD_SPANS = ("core.mul", "linalg.span")
SPAN_NAMES = tuple(FUNCTION_SPANS) + METHOD_SPANS


class Tracer:
    """Per-span call counts and busy/self time, kept in memory."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.busy = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        self.covered_s = 0.0  # time inside outermost spans
        self.term_pairs = 0
        self.adds = 0
        self.useful_adds = 0
        # one entry per open span: time spent in spans nested inside it
        self._nested: list[float] = []

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        nested = self._nested

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = nested.pop()
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_time[name] += dt - inner
                if nested:
                    nested[-1] += dt
                else:
                    self.covered_s += dt

        return traced

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "busy_s": self.busy,
            "self_s": self.self_time,
            "covered_s": self.covered_s,
            "term_pairs": self.term_pairs,
            "adds": self.adds,
            "useful_adds": self.useful_adds,
        }


def install(tracer: Tracer) -> None:
    """Replace every binding of each traced function with its wrapper."""
    package = importlib.import_module("cliffstruct")
    modules = {m: importlib.import_module(f"cliffstruct.{m}") for m in LAYERS}
    core, linalg = modules["core"], modules["linalg"]
    bindings = [package, *modules.values()]
    for name, (mod, attr) in FUNCTION_SPANS.items():
        original = getattr(modules[mod], attr)
        wrapper = tracer.wrap(name, original)
        for module in bindings:
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapper)

    mul = core.Multivector.__mul__

    def counted_mul(a, b):
        if isinstance(b, core.Multivector):
            tracer.term_pairs += len(a.terms) * len(b.terms)
        return mul(a, b)

    add = linalg.ExactSpan.add

    def counted_add(span, vec, label):
        grew = add(span, vec, label)
        tracer.adds += 1
        tracer.useful_adds += bool(grew)
        return grew

    core.Multivector.__mul__ = tracer.wrap("core.mul", counted_mul)
    linalg.ExactSpan.add = tracer.wrap("linalg.span", counted_add)
    for method in ("contains", "coordinates"):
        original = getattr(linalg.ExactSpan, method)
        setattr(linalg.ExactSpan, method, tracer.wrap("linalg.span", original))


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from cliffstruct import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        print(MARKER + json.dumps(tracer.summary()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
