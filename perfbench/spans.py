"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps every public function that each nablalg module
defines and rebinds the wrapper wherever the original is bound in a
nablalg namespace, so calls between modules are caught too.  Spans are
aggregated in memory: calls and self time (span time minus the time of child
spans).  Generator functions are timed per ``next()``.
``errors.ensure`` is only counted, since it runs tens of thousands of times
per request.  ``Tracer.uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("lattice", "algebra", "congruence", "completion", "kripke", "gallery",
          "serialize", "cli")

# functions whose repeat_ratio is reported: calls per distinct input tables
KEYED = {
    "algebra.classify": lambda alg: _algebra_key(alg),
    "kripke.prime_frame": lambda alg: _algebra_key(alg),
    "kripke.upset_algebra": lambda frame: hash((frame.leq.tobytes(), frame.r.tobytes())),
}


def _algebra_key(alg):
    return hash((alg.lat.leq.tobytes(), alg.nabla.tobytes(), alg.arrow.tobytes()))


class Stat:
    __slots__ = ("calls", "self", "yields", "hits", "distinct")

    def __init__(self):
        self.calls = self.yields = self.hits = self.distinct = 0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.ensure_calls = 0
        self._stack = []            # [name, start, child_time]
        self._active = defaultdict(int)
        self._seen = defaultdict(set)
        self._enum_tries = 0
        self._bindings = []          # (namespace, attribute, original)
        self.wrapped = []            # span names, "<layer>.<function>"

    # --- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._active[name] += 1
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        dur = perf_counter() - start
        st = self.stats[name]
        st.self += dur - child
        self._active[name] -= 1
        if self._stack:
            self._stack[-1][2] += dur

    def end_request(self):
        """Close the distinct-input window used by repeat_ratio."""
        for name, keys in self._seen.items():
            self.stats[name].distinct += len(keys)
        self._seen.clear()

    def _wrap(self, name, fn):
        tracer = self
        key = KEYED.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.stats[name].calls += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        tracer._enter(name)
                        try:
                            value = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit()
                        tracer.stats[name].yields += 1
                        yield value
                finally:
                    inner.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer.stats[name]
            st.calls += 1
            if key is not None:
                tracer._seen[name].add(key(args[0]))
            if name == "algebra.derive_arrow" and tracer._active["gallery.enumerate_algebras"]:
                tracer._enum_tries += 1
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if name == "algebra.derive_arrow" and out is not None:
                st.hits += 1
            return out
        return wrapper

    # --- installation --------------------------------------------------------

    def install(self, package):
        """Wrap the public functions of every layer module of ``package``."""
        import importlib

        replace = {}
        self.wrapped = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    self.wrapped.append(f"{layer}.{attr}")
                    replace[obj] = self._wrap(f"{layer}.{attr}", obj)
        errors = importlib.import_module(f"{package.__name__}.errors")
        original_ensure = errors.ensure

        @functools.wraps(original_ensure)
        def ensure(cond, message):
            self.ensure_calls += 1
            return original_ensure(cond, message)

        replace[original_ensure] = ensure
        prefix = package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapped = replace.get(obj)
                except TypeError:       # unhashable attribute
                    continue
                if wrapped is not None:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, obj in reversed(self._bindings):
            setattr(mod, attr, obj)
        self._bindings.clear()

    # --- metrics -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Flat counters, for differencing the state before and after a pass."""
        out = {"errors.ensure.calls": self.ensure_calls,
               "gallery.enumerate_algebras.tries": self._enum_tries}
        for name, st in self.stats.items():
            for field in Stat.__slots__:
                out[f"{name}.{field}"] = getattr(st, field)
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(delta: dict, wrapped) -> dict:
    """Per-layer metrics of one pass from the difference of two snapshots.

    Every wrapped function gets ``calls`` and ``self_s``, zero when it did
    not run; each layer gets the sums over its functions.
    """

    def get(key):
        return delta.get(key, 0)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for name in wrapped:
        layer = name.split(".", 1)[0]
        out[f"{name}.calls"] = get(f"{name}.calls")
        out[f"{name}.self_s"] = float(get(f"{name}.self"))
        out[f"{layer}.calls"] += out[f"{name}.calls"]
        out[f"{layer}.self_s"] += out[f"{name}.self_s"]
    for name in KEYED:
        out[f"{name}.repeat_ratio"] = _ratio(get(f"{name}.calls"), get(f"{name}.distinct"))
    out["algebra.derive_arrow.hit_ratio"] = _ratio(get("algebra.derive_arrow.hits"),
                                                   get("algebra.derive_arrow.calls"))
    out["gallery.enumerate_algebras.yield_ratio"] = _ratio(
        get("gallery.enumerate_algebras.yields"), get("gallery.enumerate_algebras.tries"))
    out["errors.ensure.calls"] = get("errors.ensure.calls")
    return out
