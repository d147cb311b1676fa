"""Span tracing of hilb from outside the program.

Tracer.install wraps every public module-level function of the hilb
layers and rebinds each wrapped name in every hilb module that holds it,
so calls between modules (and within one) record child spans. Methods of
value classes are left alone. Spans stay in memory as
(function id, start ns, end ns, parent index, task id, count) and are
written out once, by the owner of the tracer, when its run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter_ns

LAYERS = (
    "partitions", "monomial", "equivariant", "incidence",
    "lattice", "heisenberg", "verify", "cli",
)

_LATTICE_BUILDERS = ("blow_up", "p2_lattice", "rank_zero_lattice")

# (layer, function) -> (counter name, work done as read off the result).
COUNTERS = {
    ("partitions", "enumerate_partitions"): ("partitions.yielded", len),
    ("equivariant", "cell_dimension"): ("equivariant.fixed_points", lambda r: 1),
    ("equivariant", "tangent_weights"): ("equivariant.weights", len),
    ("incidence", "nested_pairs"): ("incidence.nested_pairs", len),
    ("heisenberg", "goettsche_series"): ("heisenberg.series_terms", lambda s: len(s.coeffs)),
    ("heisenberg", "fock_character"): ("heisenberg.series_terms", lambda s: len(s.coeffs)),
    ("heisenberg", "commutator_check"): ("heisenberg.probes", lambda r: r.probes_checked),
    ("verify", "run_checks"): ("verify.checks", len),
    **{("lattice", f): ("lattice.gram_entries", lambda L: L.rank ** 2) for f in _LATTICE_BUILDERS},
}


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counters: list = []
        self.spans: list = []
        self.task = 0
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._bound: list = []

    def install(self, package) -> None:
        """Wrap the layers of an imported hilb package until uninstall()."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        originals = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, obj in vars(mod).items():
                if not name.startswith("_") and _is_function(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = obj
                    if obj not in self._wrappers:
                        self._wrappers[obj] = self._wrap(layer, name, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if originals.get(id(obj)) is obj:
                    setattr(mod, name, self._wrappers[obj])
                    self._bound.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in self._bound:
            setattr(mod, name, obj)
        self._bound.clear()

    def _wrap(self, layer: str, name: str, fn):
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        counter = COUNTERS.get((layer, name))
        self.counters.append(counter[0] if counter else None)
        count_of = counter[1] if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self.task, 0)
            if count_of is not None:
                spans[idx] = (fid, t0, t1, parent, self.task, count_of(result))
            return result

        return traced

    def dump(self) -> dict:
        return {"names": self.names, "counters": self.counters, "spans": self.spans}


def write(path, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, separators=(",", ":"))


def summarize(record: dict) -> dict:
    """Per-layer self time (ns), call counts and work counters of a span dump.

    A span's self time is its duration minus the durations of its children.
    """
    names, counters, spans = record["names"], record["counters"], record["spans"]
    child_ns = [0] * len(spans)
    for fid, t0, t1, parent, _task, _count in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out: dict = {}
    for idx, (fid, t0, t1, _parent, _task, count) in enumerate(spans):
        layer = names[fid].split(".", 1)[0]
        out[f"{layer}.self_ns"] = out.get(f"{layer}.self_ns", 0) + (t1 - t0) - child_ns[idx]
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
        if counters[fid]:
            out[counters[fid]] = out.get(counters[fid], 0) + count
    return out
