"""Wall-clock layer attribution, measured from outside the program.

The traced pass installs timing wrappers on the *public* callables (names
not starting with ``_``) of every module that belongs to a layer. The
modules are found by introspection of ``repro.<layer>``, so there is no
function list to keep in step with the source: a layer is a module or a
package, and a module that disappears leaves its layer at zero.

Attribution rule: ``perf_counter_ns`` deltas are charged to the innermost
open layer. A span opens only when a call crosses from one layer into
another; a call that stays inside its layer is counted and nothing else.
Self times therefore sum to the traced total by construction, with
``workload`` as the root. Private helpers and modules outside every layer
(``core.cluster``, ``plasma.table``, ``chaos`` ...) are charged to whichever
layer called them.

Two rules make the async core attributable:

* a public *generator function* gets a wrapper that re-opens its layer on
  every resume, because the body of a task runs long after the call that
  created it returned;
* a generator handed to the event-loop layer (``loop.spawn(task)``) runs on
  behalf of the layer that handed it over, and carries that layer's current
  op with it across suspensions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import types
from time import perf_counter_ns

#: Layer names are module names under ``repro``.
LAYERS = (
    "workload",
    "core.client",
    "core.store",
    "core.lookup_cache",
    "core.service",
    "plasma.client",
    "plasma.store",
    "plasma.buffer",
    "allocator",
    "memory.host",
    "memory.cache",
    "rpc.codec",
    "rpc.channel",
    "rpc.server",
    "rpc.overload",
    "rpc.aio",
    "network",
    "thymesisflow",
    "tier",
    "placement",
    "obs.metrics",
    "obs.spans",
    "common.checksum",
    "common.other",
)
ROOT_LAYER = "workload"
#: The layer of every ``repro.common`` module that is not a layer of its own.
CATCH_ALL_LAYER, CATCH_ALL_PACKAGE = "common.other", "repro.common"
#: Layers whose boundary calls also record the bytes they materialise
#: (bytes-like arguments, ``bytes``/``bytearray`` results; a returned
#: ``memoryview`` is zero-copy and does not count).
BYTE_LAYERS = ("memory.host", "plasma.buffer")
#: The layer that drives coroutines on behalf of others.
DRIVER_LAYER = "rpc.aio"
#: Name of the public call that opens every op: it carries the op kind.
OP_MARKER = ("repro.workload.admission", "AdmissionController.admit")

_BYTES_LIKE = (bytes, bytearray, memoryview)


def layer_modules() -> dict[str, list[str]]:
    """layer -> the importable module names that belong to it."""
    out = {
        layer: _module_tree(f"repro.{layer}")
        for layer in LAYERS
        if layer != CATCH_ALL_LAYER
    }
    claimed = {name for names in out.values() for name in names}
    out[CATCH_ALL_LAYER] = [
        name for name in _module_tree(CATCH_ALL_PACKAGE) if name not in claimed
    ]
    return out


def _module_tree(name: str) -> list[str]:
    try:
        module = importlib.import_module(name)
    except ModuleNotFoundError:
        return []
    names = [name]
    for info in pkgutil.iter_modules(getattr(module, "__path__", []), name + "."):
        names.extend(_module_tree(info.name))
    return names


class LayerTracer:
    """Charges host time to layers; see the module docstring for the rule."""

    def __init__(self, keep_ops: int = 200):
        self.keep_ops = keep_ops
        self._index = {name: i for i, name in enumerate(LAYERS)}
        self._stack = [self._index[ROOT_LAYER]]
        self._span_stack: list[int] = []
        # [last clock reading, current per-kind accumulator, op id, recording]
        self._state = [perf_counter_ns(), None, 0, False]
        self.self_ns_by_kind: dict[str, list[int]] = {}
        self.calls = [0] * len(LAYERS)
        self.bytes = [0] * len(LAYERS)
        self.spans: list[list] = []
        #: "layer:name" -> calls that crossed into the layer through it.
        self.boundary_calls: dict[str, int] = {}
        self.wrapped: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.reset()

    # -- accumulation ------------------------------------------------------

    def reset(self) -> None:
        """Start a measurement window now (the op loop begins here)."""
        n = len(LAYERS)
        self.self_ns_by_kind.clear()
        self.self_ns_by_kind["-"] = [0] * n
        self.calls[:] = [0] * n
        self.bytes[:] = [0] * n
        del self.spans[:]
        self.boundary_calls.clear()
        self._span_stack[:] = [-1] * len(self._span_stack)
        state = self._state
        state[0] = self.started_ns = perf_counter_ns()
        state[1] = self.self_ns_by_kind["-"]
        state[2] = self.ops_begun = 0
        state[3] = False

    def stop(self) -> dict:
        """Close the window and return what it measured. The tail since the
        last boundary is the innermost open layer's; the result is a copy,
        because wrapped calls made after the window keep charging."""
        state = self._state
        now = perf_counter_ns()
        state[1][self._stack[-1]] += now - state[0]
        state[0] = now
        state[3] = False
        return {
            "total_ns": now - self.started_ns,
            "self_ns_by_kind": {
                kind: dict(zip(LAYERS, row))
                for kind, row in self.self_ns_by_kind.items()
            },
            "calls": dict(zip(LAYERS, self.calls)),
            "bytes": dict(zip(LAYERS, self.bytes)),
            "boundary_calls": dict(self.boundary_calls),
        }

    def _begin_op(self, kind: str) -> None:
        state = self._state
        state[1] = self.self_ns_by_kind.setdefault(kind, [0] * len(LAYERS))
        self.ops_begun += 1  # ids are global: state[2] travels with tasks
        state[2] = self.ops_begun
        state[3] = state[2] <= self.keep_ops

    # -- wrappers ----------------------------------------------------------

    def _enter(self, layer: int, name: str) -> None:
        state = self._state
        stack = self._stack
        now = perf_counter_ns()
        state[1][stack[-1]] += now - state[0]
        state[0] = now
        stack.append(layer)
        boundary_calls = self.boundary_calls
        boundary_calls[name] = boundary_calls.get(name, 0) + 1
        if state[3]:
            parent = next((i for i in reversed(self._span_stack) if i >= 0), -1)
            self._span_stack.append(len(self.spans))
            self.spans.append([layer, name, now, now, parent, state[2]])
        else:
            self._span_stack.append(-1)

    def _exit(self) -> None:
        state = self._state
        now = perf_counter_ns()
        state[1][self._stack.pop()] += now - state[0]
        state[0] = now
        span = self._span_stack.pop()
        if span >= 0:
            self.spans[span][3] = now

    def _drive(self, gen, layer: int, name: str, context: list | None):
        """Run *gen*, opening *layer* around every resume. With *context*
        (a task's ``[accumulator, op id]`` cell) the op it works for is
        installed on resume and saved back on suspend."""
        state = self._state
        stack = self._stack
        value = exc = None
        while True:
            if context is not None:
                outer = (state[1], state[2], state[3])
                state[1], state[2] = context
                state[3] = 0 < state[2] <= self.keep_ops
            crossing = stack[-1] != layer
            if crossing:
                self._enter(layer, name)
            try:
                if exc is None:
                    item = gen.send(value)
                else:
                    pending, exc = exc, None
                    item = gen.throw(pending)
            except StopIteration as stop:
                return stop.value
            finally:
                if crossing:
                    self._exit()
                if context is not None:
                    context[0], context[1] = state[1], state[2]
                    state[1], state[2], state[3] = outer
            try:
                value = yield item
            except BaseException as thrown:  # forwarded into gen, never dropped
                value, exc = None, thrown

    def _wrap(self, fn, layer_name: str, name: str, marker: bool):
        layer = self._index[layer_name]
        name = f"{layer_name}:{name}"
        stack = self._stack
        calls = self.calls
        moved_bytes = self.bytes
        enter, leave = self._enter, self._exit
        counts_bytes = layer_name in BYTE_LAYERS
        drives = layer_name == DRIVER_LAYER

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                calls[layer] += 1
                gen = fn(*args, **kwargs)
                if stack[-1] == layer:
                    return gen
                return self._drive(gen, layer, name, None)

            return generator_wrapper

        if drives:

            @functools.wraps(fn)
            def driver_wrapper(*args, **kwargs):
                calls[layer] += 1
                state = self._state
                args = tuple(
                    self._drive(a, stack[-1], "task", [state[1], state[2]])
                    if type(a) is types.GeneratorType
                    else a
                    for a in args
                )
                if stack[-1] == layer:
                    return fn(*args, **kwargs)
                enter(layer, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()

            return driver_wrapper

        if counts_bytes:

            @functools.wraps(fn)
            def byte_wrapper(*args, **kwargs):
                calls[layer] += 1
                if stack[-1] == layer:
                    return fn(*args, **kwargs)
                enter(layer, name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
                moved = len(result) if type(result) in (bytes, bytearray) else 0
                for arg in (*args, *kwargs.values()):
                    if type(arg) in _BYTES_LIKE:
                        moved = max(moved, memoryview(arg).nbytes)
                moved_bytes[layer] += moved
                return result

            return byte_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if stack[-1] == layer:
                return fn(*args, **kwargs)
            enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        if not marker:
            return wrapper

        @functools.wraps(fn)
        def marker_wrapper(*args, **kwargs):
            self._begin_op(args[2] if len(args) > 2 else kwargs.get("kind", "-"))
            return wrapper(*args, **kwargs)

        return marker_wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public callable of every layer module, in place."""
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, modules in layer_modules().items():
            for module_name in modules:
                module = sys.modules[module_name]
                for name, member in list(vars(module).items()):
                    if name.startswith("_"):
                        continue
                    if getattr(member, "__module__", None) != module_name:
                        continue
                    if isinstance(member, types.FunctionType):
                        wrapped = self._wrap(member, layer, name, False)
                        replaced[id(member)] = (member, wrapped)
                        self.wrapped[layer] += 1
                    elif isinstance(member, type):
                        self._wrap_class(member, layer, module_name)
        # ``from module import function`` copies made before installation.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, member in list(vars(module).items()):
                hit = replaced.get(id(member))
                if hit is not None:
                    setattr(module, name, hit[1])

    def _wrap_class(self, cls: type, layer: str, module_name: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{name}"
            marker = (module_name, qualname) == OP_MARKER
            if isinstance(member, types.FunctionType):
                wrapped = self._wrap(member, layer, qualname, marker)
            elif isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(
                    self._wrap(member.__func__, layer, qualname, False)
                )
            else:
                continue  # properties, constants, nested classes
            try:
                setattr(cls, name, wrapped)
            except (AttributeError, TypeError):
                continue  # a class that refuses assignment stays unwrapped
            self.wrapped[layer] += 1

    # -- export ------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace events, one track per layer."""
        events = []
        for index, (layer, name, start, end, parent, op) in enumerate(self.spans):
            events.append(
                {
                    "name": name.partition(":")[2],
                    "cat": LAYERS[layer],
                    "ph": "X",
                    "pid": 1,
                    "tid": layer,
                    "ts": (start - self.started_ns) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "args": {"span": index, "parent": parent, "op": op},
                }
            )
        names = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": i,
                "args": {"name": layer},
            }
            for i, layer in enumerate(LAYERS)
        ]
        return {"traceEvents": names + events, "displayTimeUnit": "ns"}
