"""Outside-in spans around flatcheck's public functions and its sympy entry points.

Each public function of a layer module is replaced, in every flatcheck
module namespace that holds it, by a wrapper that records a span: name,
start, end and parent.  Replacing every binding matters because modules
import each other's functions by name (analysis calls validate_system
without going through flatcheck.model).  The sympy functions flatcheck
reaches through module attributes (sp.cancel, ...) are wrapped on the
sympy module.  Spans stay in memory and are written as JSONL at the end.
"""

import functools
import importlib
import inspect
import json
import sys
import time

import sympy

LAYERS = (
    "modelfile",
    "model",
    "geometry",
    "symbolic",
    "analysis",
    "construction",
    "verification",
    "document",
    "cli",
)
SYMPY_ENTRY_POINTS = ("cancel", "together", "solve", "simplify")

# Tiny helpers called tens of thousands of times per flat4 run; wrapping
# them would cost more than the work they do.
UNWRAPPED = frozenset(
    {
        "verification.parse_jet_symbol",
        "verification.jet_symbol",
        "verification.input_shift_symbol",
        "geometry.shifted_state_symbols",
        "symbolic.free_variables",
        "symbolic.sympify_rational",
        "symbolic.to_infix",
    }
)


def _cells(args, kwargs):
    """rows x cols of the matrix handed to function_field_rref."""
    M = args[0] if args else kwargs["M"]
    if hasattr(M, "shape"):
        rows, cols = M.shape
        return rows * cols
    return sum(len(row) for row in M)


# Per-function attribute computed from the arguments before the call.
CALL_ATTRIBUTES = {"symbolic.function_field_rref": ("cells", _cells)}
# Functions whose calls count as a hit when they return a non-empty result.
HIT_FUNCTIONS = frozenset({"symbolic.solve_algebraic", "construction.polynomial_invariants"})


class Tracer:
    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []  # [name, start, end, parent index, attributes]
        self.stack = []
        self.overhead = 0.0

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        attribute = CALL_ATTRIBUTES.get(name)
        counts_hits = name in HIT_FUNCTIONS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            if attribute is not None:
                span[4] = {attribute[0]: attribute[1](args, kwargs)}
            stack.append(len(spans))
            spans.append(span)
            span[1] = start = clock()
            hit = False
            try:
                result = fn(*args, **kwargs)
                hit = bool(result)
                return result
            finally:
                end = clock()
                stack.pop()
                span[2] = end
                if counts_hits:
                    span[4] = {"hit": hit}
                tracer.overhead += (start - entered) + (clock() - end)

        return traced

    def install(self):
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "flatcheck"]
        for layer in LAYERS:
            module = importlib.import_module("flatcheck." + layer)
            for attr, fn in list(vars(module).items()):
                name = "%s.%s" % (layer, attr)
                if attr.startswith("_") or name in UNWRAPPED:
                    continue
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self.wrap(name, fn)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, key, wrapped)
        for attr in SYMPY_ENTRY_POINTS:
            setattr(sympy, attr, self.wrap("sympy." + attr, getattr(sympy, attr)))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, attrs) in enumerate(self.spans):
                record = {
                    "op": self.op_id,
                    "index": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                if attrs:
                    record.update(attrs)
                fh.write(json.dumps(record) + "\n")
