"""Spans around the package's public functions, recorded from outside it.

Tracer.install replaces every public function of the traced modules with a
wrapper, in every place a caller looks it up: each module's globals (its own
definitions and the names it imported), and the lists and dicts held in
module globals (verify.SMALL_CHECKS, moments._STATISTIC_FN, ...).  The two
RandomStream methods are wrapped on the class.  Each wrapped call records one
span: name, start, end, parent span and op id.  A generator function gets one
span per item it produces.

Self time.  Every span enter and exit takes a lock and reads the clock, so
events are totally ordered; the interval since the previous event is added
to the innermost open span of the thread that records the new event.  Only
the thread holding the interpreter lock can record an event, so that thread
was the one running during the interval.  On one thread this is exactly span
time minus the time covered by child spans; with the trial worker threads it
still splits the wall time without counting any of it twice, so the self
times of all spans add up to the traced wall time.  A worker thread with no
open span of its own charges its time to the innermost open span of the main
thread (run_trials, which is waiting for it).
"""

import functools
import inspect
import json
import threading
from array import array
from time import perf_counter_ns

_COLUMNS = (
    ("name", "i"),
    ("parent", "i"),
    ("op", "i"),
    ("thread", "i"),
    ("start_ns", "q"),
    ("end_ns", "q"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans = {column: array(code) for column, code in _COLUMNS}
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._threads: dict[int, int] = {}
        self._last = 0
        self.reset_totals()

    def reset_totals(self):
        """Zero the per-name totals; recorded spans are kept."""
        with self._lock:
            size = len(self.names)
            self.self_ns = [0] * size
            self.incl_ns = [0] * size
            self.calls = [0] * size
            self.counters: dict[str, int] = {}

    def totals(self) -> dict:
        with self._lock:
            return {
                name: {
                    "calls": self.calls[k],
                    "self_ns": self.self_ns[k],
                    "incl_ns": self.incl_ns[k],
                }
                for k, name in enumerate(self.names)
            } | {"counters": dict(self.counters)}

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.incl_ns.append(0)
            self.calls.append(0)
        return self._index[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int = 1):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def _enter(self, k: int, is_call: bool) -> int:
        stack = self._stack()
        with self._lock:
            now = perf_counter_ns()
            if stack:
                current = stack[-1]
            else:
                current = self._main_stack[-1] if self._main_stack else -1
            if current >= 0:
                self.self_ns[self.spans["name"][current]] += now - self._last
            self._last = now
            if is_call:
                self.calls[k] += 1
            idx = len(self.spans["start_ns"])
            thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
            self.spans["name"].append(k)
            self.spans["parent"].append(current)
            self.spans["op"].append(self.op)
            self.spans["thread"].append(thread)
            self.spans["start_ns"].append(now)
            self.spans["end_ns"].append(0)
        stack.append(idx)
        return idx

    def _exit(self, idx: int):
        stack = self._stack()
        with self._lock:
            now = perf_counter_ns()
            k = self.spans["name"][idx]
            self.self_ns[k] += now - self._last
            self.incl_ns[k] += now - self.spans["start_ns"][idx]
            self._last = now
            self.spans["end_ns"][idx] = now
        stack.pop()

    def wrap(self, fn, name: str, on_call=None, on_result=None):
        k = self._name_index(name)
        if inspect.isgeneratorfunction(fn):
            items = name + ".items"

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                first = True
                while True:
                    idx = self._enter(k, first)
                    first = False
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(idx)
                    self.count(items)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = self._enter(k, True)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, modules: dict, hooks: dict):
        """Wrap the public functions of `modules` ({layer name: module}).

        hooks maps a span name to (on_call, on_result) callbacks that feed
        counters; both run outside the span.
        """
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(obj, name, *hooks.get(name, (None, None)))

        def swap(value):
            return wrapped.get(value, value) if inspect.isfunction(value) else value

        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj):
                    setattr(module, attr, swap(obj))
                elif isinstance(obj, list):
                    obj[:] = [swap(item) for item in obj]
                elif isinstance(obj, dict):
                    for key, item in obj.items():
                        obj[key] = swap(item)

        stream = modules["streams"].RandomStream
        for attr, name in (("__init__", "streams.init"), ("randbelow", "streams.randbelow")):
            setattr(stream, attr, self.wrap(getattr(stream, attr), name, *hooks.get(name, (None, None))))

    def write(self, path: str):
        """One JSON header line (names, columns, span count), then each column
        as raw native-endian array bytes, in header order."""
        header = {
            "names": self.names,
            "columns": [[column, code] for column, code in _COLUMNS],
            "spans": len(self.spans["start_ns"]),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column, _ in _COLUMNS:
                self.spans[column].tofile(handle)

