"""Spans taken from outside the library, for the traced benchmark pass.

The benchmark opens a span around each of its own calls into a rotspec
module.  Calls one module makes into another are caught by replacing the
public name in the caller's namespace (where the caller looks it up) with a
timing shim for the length of the pass; the originals are put back after.

Totals are kept per span name as the pass runs: call count, total time and
self time, where self time is the span's time minus the time of the spans
opened inside it.  A name that cannot be found (renamed or removed from the
library) is reported as absent, so its metrics do not read as zero.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter


# (owner, attribute, span name): owner is a module or "module.Class" path,
# named as the calling code sees it.
PATCHES = [
    ("rotspec.cli", "build_lattice", "lattice.build"),
    ("rotspec.cli", "random_gevrey", "fields.random_gevrey"),
    ("rotspec.cli", "integrate", "solver.integrate"),
    ("rotspec.cli", "trajectory_to_jsonl", "solver.traj_write"),
    ("rotspec.cli", "trajectory_from_jsonl", "solver.traj_read"),
    ("rotspec.cli", "transform_trajectory", "solver.transform"),
    ("rotspec.cli", "expand", "expansion.expand"),
    ("rotspec.cli", "remainder_rate", "expansion.remainder_rate"),
    ("rotspec.cli", "verify_expansion_system", "expansion.verify"),
    ("rotspec.cli", "spoly_to_json", "spoly.to_json"),
    ("rotspec.solver", "build_lattice", "lattice.build"),
    ("rotspec.solver", "convolve_advect", "fields.convolve"),
    ("rotspec.solver.Trajectory", "norms", "solver.norms"),
    ("rotspec.expansion", "convolve_advect", "fields.convolve"),
    ("rotspec.expansion", "semigroup_table", "lattice.semigroup"),
    ("rotspec.expansion", "SemigroupTable", "lattice.semigroup"),
    ("rotspec.expansion", "bilinear_spoly", "spoly.bilinear"),
    ("rotspec.expansion", "ode_solve", "spoly.ode_solve"),
    ("rotspec.spoly.SPoly", "evaluate_many", "spoly.evaluate_many"),
]


def _resolve(owner: str):
    """The module or class named by a dotted path, or None if it is gone."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "t0")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._stack.append(0.0)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.t0)
        return False


class Tracer:
    """Per-name call counts, total and self times of the spans of one pass.

    A disabled tracer hands out a shared no-op span, so the benchmark's own
    spans cost nothing in untraced runs.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.hooks = {}  # span name -> f(args, kwargs, result), run after the span
        self.absent = []  # "owner.attribute" targets not found
        self._stack = []  # time of closed child spans, per open span
        self._saved = []  # (owner object, attribute, original __dict__ entry)
        self._found = set()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span, with the span's hook applied."""
        if not self.enabled:
            return fn(*args, **kwargs)
        return self._shim(name, fn)(*args, **kwargs)

    def _close(self, name: str, t0: float):
        dur = perf_counter() - t0
        child = self._stack.pop()
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1] += dur

    def _shim(self, name, fn):
        stack = self._stack
        close = self._close
        hooks = self.hooks

        def shim(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(name, t0)
            hook = hooks.get(name)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return shim

    def install(self):
        """Replace each reachable target with a shim; record the rest as absent."""
        for owner_path, attr, name in PATCHES:
            owner = _resolve(owner_path)
            original = None if owner is None else vars(owner).get(attr)
            if original is None or not callable(original):
                self.absent.append(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            self._found.add(name)
            setattr(owner, attr, self._shim(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def is_absent(self, name: str) -> bool:
        """True when no patch for this span name found its target and no
        span of that name was recorded another way."""
        patched = {n for _, _, n in PATCHES}
        return name in patched and name not in self._found and not self.calls[name]

    def layer_self(self, layer: str) -> float:
        return sum(t for n, t in self.self_time.items() if n.split(".")[0] == layer)
