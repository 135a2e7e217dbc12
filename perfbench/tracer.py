"""Spans around the package's public functions, from outside the package.

``Tracer.install`` replaces each traced function in every package module
namespace that binds it (``classify.py``, ``cli.py`` and the others import
these functions by name), and ``ProblemInstance.__init__`` on its class.
Spans (name, start, end, parent) are kept in memory; ``summary`` turns
them into per-function call counts and inclusive times, and per-layer self
time: a span's duration minus that of its direct children, summed over the
layer's spans, which is the layer's time minus the time of the other
layers it called.
"""

from __future__ import annotations

import functools
import json
import time

# layer -> functions whose calls are spans; a layer is a module
TRACED = {
    "linalg": ("char_poly", "det", "krylov", "rank", "inverse", "hnf_unimodular", "is_expanding"),
    "conjugation": ("companion_conjugate", "block_decompose", "map_spectrum"),
    "hadamard": ("construct_dual_digits", "verify_hadamard", "phase_matrix", "candidate_spectrum"),
    "fourier": ("construct_witness", "verify_witness", "mu_hat", "certify_orthogonal"),
    "evidence": ("completeness_defect", "max_orthogonal_clique", "chaos_game"),
    "classify": ("classify",),
    "cli": ("load_instance", "main"),
}

# sizes read off results at the same boundary: span name -> (counter, reader)
COUNTERS = {
    "fourier.construct_witness": ("fourier.witness_ell", lambda w: w.ell),
    "fourier.mu_hat": ("fourier.mu_hat.factors", lambda v: v.factors),
    "evidence.chaos_game": ("evidence.chaos_game.points", lambda s: len(s.points)),
}


class Tracer:
    def __init__(self, package, modules):
        self.package = package
        self.modules = modules  # every module of the package, by name
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counters = {}
        self._stack = []
        self._patches = []

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if counter is not None:
                key, read = counter
                counters[key] = counters.get(key, 0) + read(result)
            return result

        return traced

    def install(self):
        for layer, names in TRACED.items():
            home = self.modules[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in [self.package, *self.modules.values()]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        cls = self.modules["classify"].ProblemInstance
        init = cls.__init__
        self._patches.append((cls, "__init__", init))
        cls.__init__ = self._wrap("classify.ProblemInstance", init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def summary(spans):
    """Per-function calls and inclusive ms, per-layer self ms."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        key = f"{layer}.self_ms"
        out[key] = out.get(key, 0.0) + (end - start - child_ns[idx]) / 1e6
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        # recursion would count a nested span twice in the inclusive time
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[f"{name}.ms"] = out.get(f"{name}.ms", 0.0) + (end - start) / 1e6
    return out


def write_spans(path, rounds):
    """One JSON line per span: round, name, start and end (ns), parent."""
    with open(path, "w") as fh:
        for number, spans in rounds:
            for name, start, end, parent in spans:
                fh.write(json.dumps({"round": number, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
