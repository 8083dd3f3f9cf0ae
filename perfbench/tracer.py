"""Exclusive per-layer host-time accounting for the benchmark's traced run.

A :class:`LayerTracer` wraps every function and method defined in the
``repro`` modules that make up a layer (see :data:`LAYERS`) with a timer
that keeps a stack of active layers.  Time is charged to the layer on
top of the stack and the charge point moves on every layer switch, so
the per-layer self times partition the traced interval exactly: the
layers plus ``other`` (the benchmark itself and unmapped modules) sum to
the traced wall.  Calls that stay inside one layer take a fast path and
switch nothing.

The wrappers are installed from outside the program:

* functions are rebound in *every* ``repro`` module that holds them,
  because ``from X import f`` copies the name, and in module-level
  dictionaries (primitive registries hand out the functions they hold);
* methods are replaced on their classes, so bound methods created after
  installation — engine callbacks included — are timed;
* generator functions (simulated processes) are timed per resumption.

The tracer only reads the clock; it never changes what the simulation
computes.  The benchmark checks that by comparing every model value and
output of a traced run with an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.runtime.memcpy import Span


class Layer(NamedTuple):
    """One layer of the program, and the prediction changes to it are
    judged against."""

    name: str
    #: ``repro`` module prefixes; a module belongs to the layer with the
    #: longest matching prefix, and modules matching none to ``other``.
    modules: Tuple[str, ...]
    #: ``(end-to-end metric, workload)`` pairs a faster or slower layer
    #: should move; workload ``*`` means every workload.
    moves: Tuple[Tuple[str, str], ...]
    #: Why, and what should stay unchanged.
    note: str


HIER = ("hier-fattree-16", "hier-nodedown-16")

LAYERS: Tuple[Layer, ...] = (
    Layer("sim.solver", ("repro.sim.solver",),
          tuple(("wall_s", w) for w in HIER),
          "~80% of wall on the hier workloads; no change on p2p-dgx-2b "
          "and no rise on service-dgx-2x, whose fills are small"),
    Layer("sim.engine", ("repro.sim.engine",),
          tuple(("wall_s", w) for w in HIER + ("service-dgx-2x",)),
          "bulk-discarded calendar churn on the hier workloads; dispatch "
          "of many short processes on the service"),
    Layer("sim.flows", ("repro.sim.flows", "repro.sim.resources"),
          tuple(("wall_s", w) for w in HIER),
          "flow advance and reallocation"),
    Layer("hw.topology", ("repro.hw.topology",),
          (("wall_s", "hier-nodedown-16"), ("setup_s", "*")),
          "route flushes after the node loss; setup_s everywhere if "
          "routes are precomputed"),
    Layer("hw", ("repro.hw",), (("setup_s", "*"),),
          "platform and cluster construction"),
    Layer("runtime.kernels", ("repro.runtime.kernels",),
          (("wall_s", "p2p-dgx-2b"), ("peak_rss_mb", "p2p-dgx-2b")),
          "little effect on the hier workloads, which use fast_functional"),
    Layer("runtime.memcpy", ("repro.runtime.memcpy",),
          (("wall_s", "hier-nodedown-16"), ("sim_gbps", "hier-nodedown-16")),
          "retries and reroutes around the lost node"),
    Layer("runtime", ("repro.runtime",), (("wall_s", "service-dgx-2x"),),
          "buffers, streams and device bookkeeping of many small jobs"),
    Layer("gpuprims", ("repro.gpuprims",),
          (("wall_s", "p2p-dgx-2b"), ("peak_rss_mb", "p2p-dgx-2b")),
          ">=50% of traced wall on p2p-dgx-2b, <5% on hier-fattree-16"),
    Layer("cpuprims", ("repro.cpuprims",), (),
          "no workload runs the CPU primitives (the service's HET jobs "
          "use one GPU, with no host merge): a change here moves nothing"),
    Layer("sort", ("repro.sort",),
          (("wall_s", "hier-nodedown-16"), ("wall_s", "service-dgx-2x")),
          "phase orchestration, elastic replans"),
    Layer("recovery", ("repro.recovery",),
          (("wall_s", "hier-nodedown-16"), ("wall_s", "service-dgx-2x")),
          "checkpoints, replans and replayed waves"),
    Layer("faults", ("repro.faults",), (("wall_s", "hier-nodedown-16"),),
          "the injector; idle on healthy workloads"),
    Layer("serve", ("repro.serve",),
          (("sim_p99_s", "service-dgx-2x"),
           ("goodput_jobs_per_s", "service-dgx-2x")),
          "admission, queueing and gang scheduling"),
    Layer("data", ("repro.data",), (("setup_s", "*"),),
          "input generation"),
    Layer("obs", ("repro.obs", "repro.sim.trace"), (("wall_s", "*"),),
          "span recording"),
)

#: Layers whose ``keys`` counter totals the elements of the arrays (and
#: buffer spans) handed to them across their boundary.
KEY_LAYERS = ("runtime.kernels", "gpuprims", "cpuprims")

OTHER = "other"

#: Dunder methods worth timing; the rest (comparisons, ``__repr__``,
#: ``__len__`` ...) are charged to their caller.
_TIMED_DUNDERS = frozenset({"__init__", "__call__"})


def layer_of(module: str) -> str:
    """The layer a ``repro`` module is charged to (``other`` if none)."""
    best, best_len = OTHER, -1
    for layer in LAYERS:
        for prefix in layer.modules:
            if ((module == prefix or module.startswith(prefix + "."))
                    and len(prefix) > best_len):
                best, best_len = layer.name, len(prefix)
    return best


def _count_keys(args, kwargs) -> int:
    """Elements in the arrays and buffer spans among a call's arguments."""
    total = 0
    for arg in (*args, *kwargs.values()):
        if isinstance(arg, np.ndarray):
            total += arg.size
        elif isinstance(arg, Span):
            total += len(arg)
    return total


def _solver_fill(n_flows: int, small: bool) -> Dict[str, int]:
    return {"sim.solver.fills": 1, "sim.solver.flows": n_flows,
            "sim.solver.small_fills": int(small)}


#: Per-function counters, evaluated on every call of the function
#: (``module.qualname`` -> ``f(args, kwargs) -> {counter: increment}``).
PROBES: Dict[str, Callable[[tuple, dict], Dict[str, int]]] = {
    "repro.sim.solver.water_fill_arrays":
        lambda args, kwargs: _solver_fill(len(args[2]), small=False),
    "repro.sim.solver.water_fill_reference":
        lambda args, kwargs: _solver_fill(len(args[0]), small=True),
    "repro.runtime.memcpy.copy_async":
        lambda args, kwargs: {"runtime.memcpy.copies": 1},
}


class LayerTracer:
    """Installable exclusive timer stack over the ``repro`` layers."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self._stack: List[str] = [OTHER]
        self._mark = 0.0
        self._patches: List[Tuple[object, object, object]] = []
        self._started: Optional[float] = None
        self.wall_s = 0.0

    # -- timer stack ------------------------------------------------------
    def _enter(self, layer: str) -> None:
        now = perf_counter()
        stack = self._stack
        top = stack[-1]
        self.self_s[top] = self.self_s.get(top, 0.0) + (now - self._mark)
        stack.append(layer)
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self._mark = now

    def _leave(self) -> None:
        now = perf_counter()
        top = self._stack.pop()
        self.self_s[top] = self.self_s.get(top, 0.0) + (now - self._mark)
        self._mark = now

    def _bump(self, increments: Dict[str, int]) -> None:
        counters = self.counters
        for name, value in increments.items():
            counters[name] = counters.get(name, 0) + value

    def start(self) -> None:
        """Begin a traced interval; everything until :meth:`stop` is
        charged to some layer."""
        if len(self._stack) != 1:
            raise RuntimeError("tracer started with an unbalanced stack")
        self.self_s, self.calls, self.counters = {}, {}, {}
        self._started = self._mark = perf_counter()

    def stop(self) -> None:
        """End the traced interval (the stack must be back at ``other``)."""
        if self._started is None:
            raise RuntimeError("tracer stopped before it was started")
        if len(self._stack) != 1:
            raise RuntimeError(
                f"layer stack unbalanced at stop: {self._stack}")
        now = perf_counter()
        self.self_s[OTHER] = self.self_s.get(OTHER, 0.0) + (now - self._mark)
        self.wall_s = now - self._started
        self._started = None

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, probe=None) -> Callable:
        stack, enter, leave, bump = (self._stack, self._enter, self._leave,
                                     self._bump)
        count_keys = layer in KEY_LAYERS
        counter = layer + ".keys"

        def on_entry(args, kwargs) -> None:
            enter(layer)
            if count_keys:
                bump({counter: _count_keys(args, kwargs)})

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if probe is not None:
                    bump(probe(args, kwargs))
                inner = fn(*args, **kwargs)
                value, error = None, None
                first = True
                while True:
                    switched = stack[-1] != layer
                    if switched:
                        if first:
                            on_entry(args, kwargs)
                        else:
                            enter(layer)
                    first = False
                    try:
                        if error is None:
                            yielded = inner.send(value)
                        else:
                            yielded = inner.throw(error)
                    except StopIteration as stop:
                        if switched:
                            leave()
                        return stop.value
                    except BaseException:
                        if switched:
                            leave()
                        raise
                    if switched:
                        leave()
                    try:
                        value, error = (yield yielded), None
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as exc:  # thrown in: forward it
                        value, error = None, exc
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                bump(probe(args, kwargs))
            if stack[-1] == layer:
                return fn(*args, **kwargs)
            on_entry(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return traced

    def _set(self, owner, key, new) -> None:
        """Replace ``owner[key]`` (dict) or ``owner.key``; remember the
        original for :meth:`uninstall`."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, new)

    def install(self) -> None:
        """Wrap every function and method of the loaded ``repro`` layers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [module for name, module in sorted(sys.modules.items())
                   if (name == "repro" or name.startswith("repro."))
                   and module is not None]
        wrapped: Dict[int, Callable] = {}
        classes = set()
        for module in modules:
            layer = layer_of(module.__name__)
            if layer == OTHER:
                continue
            for name, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__
                        and id(value) not in wrapped):
                    wrapped[id(value)] = self._wrap(
                        value, layer, PROBES.get(f"{module.__name__}.{name}"))
                elif (isinstance(value, type)
                      and value.__module__ == module.__name__
                      and not issubclass(value, BaseException)
                      and value not in classes):
                    classes.add(value)
                    self._wrap_class(value, layer)
        # Rebind every reference a module (or a module-level table) holds.
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._set(module, name, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._set(value, key, wrapped[id(item)])

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in _TIMED_DUNDERS:
                continue
            if isinstance(attr, types.FunctionType):
                self._set(cls, name, self._wrap(attr, layer))
            elif isinstance(attr, (staticmethod, classmethod)):
                self._set(cls, name,
                          type(attr)(self._wrap(attr.__func__, layer)))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
