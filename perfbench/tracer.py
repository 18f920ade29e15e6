"""Outside-in tracer: times the public functions of each msrr module.

The program is not edited.  Each target function is wrapped once, and the
wrapper is bound at every place the original is looked up: its defining
module, every msrr module that imported it by name, and its class for
methods.  Wrapping both a definition and an importer's binding separately
would count nested calls twice.  A target that no longer exists is listed in
`missing` and is otherwise ignored, so the benchmark outlives refactors.

Spans (target, start, end, parent span, op id) are kept in memory; self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path, layer name used in metric names).  Constructors
# are traced through __init__ and named after their class.
TARGETS = [
    ("msrr.cli", "main", "cli.main"),
    ("msrr.field", "FieldCtx.create", "field.FieldCtx.create"),
    ("msrr.construction", "build_constants", "construction.build_constants"),
    ("msrr.construction", "build_parity_check",
     "construction.build_parity_check"),
    ("msrr.construction", "ParityCheckMatrix.__init__",
     "construction.ParityCheckMatrix"),
    ("msrr.construction", "ParityCheckMatrix.apply_node",
     "construction.apply_node"),
    ("msrr.construction", "ParityCheckMatrix.dense_node",
     "construction.dense_node"),
    ("msrr.linalg", "solve", "linalg.solve"),
    ("msrr.linalg", "inverse", "linalg.inverse"),
    ("msrr.linalg", "rank", "linalg.rank"),
    ("msrr.linalg", "vandermonde_solve", "linalg.vandermonde_solve"),
    ("msrr.codec", "Codec.__init__", "codec.Codec"),
    ("msrr.codec", "Codec.encode_batch", "codec.encode_batch"),
    ("msrr.codec", "Codec.decode_batch", "codec.decode_batch"),
    ("msrr.codec", "Codec.dense_nodes", "codec.dense_nodes"),
    ("msrr.codec", "Codec._parity_inverse", "codec._parity_inverse"),
    ("msrr.codec", "Codec.verify_mds", "codec.verify_mds"),
    ("msrr.repair", "helper_message", "repair.helper_message"),
    ("msrr.repair", "repair_node", "repair.repair_node"),
    ("msrr.stripe_io", "encode_file", "stripe_io.encode_file"),
    ("msrr.stripe_io", "decode_file", "stripe_io.decode_file"),
    ("msrr.stripe_io", "repair_shard", "stripe_io.repair_shard"),
    ("msrr.stripe_io", "read_shards", "stripe_io.read_shards"),
    ("msrr.stripe_io", "write_shards", "stripe_io.write_shards"),
    ("msrr.stripe_io", "write_one_shard", "stripe_io.write_one_shard"),
    ("msrr.stripe_io", "bytes_to_symbols", "stripe_io.bytes_to_symbols"),
    ("msrr.stripe_io", "symbols_to_bytes", "stripe_io.symbols_to_bytes"),
]

# Counters taken from a traced function's return value.  helper_message
# returns the (beta, stripes) symbols one helper rack sends across racks.
COUNTERS = {"repair.helper_message": ("repair.cross_rack_symbols",
                                      lambda result: int(result.size))}


def _msrr_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "msrr" or name.startswith("msrr."))]


class Tracer:
    """Installs wrappers on demand and aggregates spans per operation."""

    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent index, op id]
        self.counters = defaultdict(int)   # (op id, counter) -> amount
        self.missing = []
        self.op = None
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    def _wrap(self, func, name):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, tracer.op])
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index][1:3] = start, time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                tracer.counters[tracer.op, counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    @property
    def installed(self):
        return bool(self._patches)

    def install(self):
        if self._patches:
            return
        self.missing = []
        modules = _msrr_modules()
        for module_name, path, name in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name))
            else:
                replacement = self._wrap(original, name)
            # Rebind every lookup site of a module-level function: msrr
            # modules import helpers by name.  Methods live on their class.
            owners = [owner] if owner_name else [
                mod for mod in modules
                if any(value is original for value in vars(mod).values())]
            for site in owners:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, key, original))
                        setattr(site, key, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def per_op(self):
        """{op id: {"<layer>.self_ms": ms, "<layer>.calls": n, counters}}."""
        child_ns = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, op) in enumerate(self.spans):
            out[op][name + ".self_ms"] += (end - start - child_ns[index]) / 1e6
            out[op][name + ".calls"] += 1
        for (op, counter), amount in self.counters.items():
            out[op][counter] += amount
        return out

    def root_ms(self, op):
        """Milliseconds of op covered by its outermost spans."""
        return sum(end - start for _, start, end, parent, span_op in self.spans
                   if span_op == op and parent < 0) / 1e6

    def dump(self):
        return {"missing": self.missing,
                "spans": [list(span) for span in self.spans]}
