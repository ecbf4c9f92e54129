"""Span recorder for the traced benchmark run.

Spans are taken around calls into each layer's public functions, from the
benchmark's side: while :meth:`Recorder.tracing` is active, every listed
function is rebound, in every ``bimod.*`` module that holds the same function
object, to a wrapper that records a span.  Nothing under ``src/`` is edited.
Spans stay in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass

LAYERS = {
    "multimatrix": ("decompose_star_algebra", "functional_calculus"),
    "bimodule": ("validate", "tight_frame", "left_tight_frame", "contragredient", "tensor"),
    "index": ("commutant_of", "relative_commutant", "module_operator_algebra", "right_index",
              "best_constants", "basic_construction", "fiber_decomposition"),
    "conjugation": ("build_conjugate", "verify_conjugate", "min_dimension", "morita_check",
                    "cp_characterization"),
    "constructors": ("from_weight_graph", "from_expectation", "quasi_basis",
                     "expectation_cp_gap", "minimal_cp_multiplier"),
    "serde": ("decode_bimodule", "encode_vector", "decode_vector"),
    "cli": ("parse_spec", "main"),
}
TRACED = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# Work counts computed from the arguments or results of a traced call.  They
# are arithmetic on shapes, not measurements.
COMPLEX_BYTES = 16


def _commutant_elems(a, result):
    return {"index.commutant_of.system_elems": len(a["mats"]) * a["dim"] ** 4}


def _tensor_counts(a, result):
    X, Y = a["X"], a["Y"]
    D = X.dim * Y.dim
    na, nc = X.A.rep_dim, Y.B.rep_dim
    # pre-quotient right Gram (D, D, nc, nc), left Gram (D, D, na, na) and
    # the two action tensors (na, na, D, D) and (nc, nc, D, D)
    return {"bimodule.tensor.product_dim": D,
            "bimodule.tensor.dense_bytes": COMPLEX_BYTES * D * D * 2 * (na * na + nc * nc)}


def _input_bytes(a, result):
    return {"serde.input_bytes": os.path.getsize(a["path"])}


def _evaluations(a, result):
    return {"conjugation.min_dimension.evaluations": result.evaluations}


COUNTERS = {
    "index.commutant_of": _commutant_elems,
    "bimodule.tensor": _tensor_counts,
    "cli.parse_spec": _input_bytes,
    "conjugation.min_dimension": _evaluations,
}
COUNT_NAMES = ("index.commutant_of.system_elems", "bimodule.tensor.product_dim",
               "bimodule.tensor.dense_bytes", "serde.input_bytes",
               "conjugation.min_dimension.evaluations")


@dataclass
class Span:
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0


class Recorder:
    """In-memory spans of one traced run.  ``request`` is the id shared by
    the spans of the request being served.  Building a recorder finds every
    binding of the traced functions; :meth:`tracing` swaps the wrappers in."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.request = 0
        self._stack: list[int] = []
        self._bindings = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bimod" or name.startswith("bimod."))]
        for layer, fns in LAYERS.items():
            for fn_name in fns:
                original = getattr(sys.modules[f"bimod.{layer}"], fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                self._bindings += [(mod, attr, original, wrapper) for mod in modules
                                   for attr, value in vars(mod).items() if value is original]

    @contextlib.contextmanager
    def tracing(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self._bindings:
                setattr(mod, attr, original)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.request, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in count(bound, result).items():
                    self.counts[key] += value
            return result

        return traced

    def self_times(self) -> dict:
        """Per function: number of calls and total self time, which is the
        span's duration minus the durations of its direct child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = {name: [0, 0.0] for name in TRACED}
        for i, s in enumerate(self.spans):
            out[s.name][0] += 1
            out[s.name][1] += (s.end - s.start) - child[i]
        return out

    def dump(self, path, header):
        with open(path, "w") as fh:
            json.dump({"header": header,
                       "span_fields": ["name", "request", "parent", "start", "end"],
                       "spans": [[s.name, s.request, s.parent, s.start, s.end]
                                 for s in self.spans]}, fh)
