"""In-memory span recorder for the traced run.

`install` wraps every public function of the given program modules and
puts the wrapper at each module attribute that refers to the original, so
a call through any module's namespace (``intertwine.jack_coeffs``,
``symfunc.monomial_eval``, ``equilibrium.potential``...) is recorded.
`uninstall` puts the originals back.  The program's source is untouched.

A span is [name, parent, start, end, cpu_start, cpu_end, outermost, attrs]:
`parent` is the index of the span that was open when it began, and
`outermost` is false for a call nested inside a call of the same name
(recursion), so inclusive times can be summed without double counting.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.enabled = False
        self._local = threading.local()
        self._patched = []

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = defaultdict(int)
        return local.stack, local.active

    def wrap(self, name, fn, attrs=None):
        """Return fn recording one span per call while the recorder is enabled.

        attrs(args, kwargs, result) may add counters to the span; it runs
        after the span has closed.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack, active = rec._thread_state()
            sid = len(rec.spans)
            rec.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            active[name] += 1
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time()
                active[name] -= 1
                stack.pop()
                rec.spans[sid] = [name, parent, t0, t1, c0, c1, active[name] == 0, None]
            if attrs is not None:
                try:
                    rec.spans[sid][7] = attrs(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    pass  # the program changed its return shape; keep the timing
            return result

        return traced

    def install(self, modules, hooks=None):
        """Wrap the public functions defined in `modules` (layer name ->
        module) wherever any of the modules refers to them."""
        hooks = hooks or {}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, self.wrap(name, fn, hooks.get(name)))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path, origin):
        """Write the spans as JSON lines: a header naming the fields, then
        one array per span, times in seconds from `origin`."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start", "end", "cpu",
                                            "outermost", "attrs"]}) + "\n")
            for sid, (name, parent, t0, t1, c0, c1, outer, attrs) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, round(t0 - origin, 7),
                                     round(t1 - origin, 7), round(c1 - c0, 7), outer, attrs])
                         + "\n")


def summarize(spans, first=0, last=None):
    """Per-name totals and per-layer self times of spans[first:last].

    Returns a dict of defaultdicts: "calls" {name: n}; "time" and "cpu"
    {name: inclusive wall / cpu s of outermost calls}; "direct" {name:
    inclusive s of calls made straight from a benchmark operation};
    "attrs" {name: {key: summed attr of outermost calls}}; "self" {layer:
    s}.  The layer is the part of the name before the first dot.
    """
    last = len(spans) if last is None else last
    calls = defaultdict(int)
    incl = defaultdict(float)
    cpu = defaultdict(float)
    direct = defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(float))
    child = defaultdict(float)
    for name, parent, t0, t1, c0, c1, outer, extra in spans[first:last]:
        if parent is not None:
            child[parent] += t1 - t0
    self_time = defaultdict(float)
    for sid in range(first, last):
        name, parent, t0, t1, c0, c1, outer, extra = spans[sid]
        calls[name] += 1
        self_time[name.split(".", 1)[0]] += (t1 - t0) - child[sid]
        if parent is not None and spans[parent][0].startswith("bench."):
            direct[name] += t1 - t0
        if outer:
            incl[name] += t1 - t0
            cpu[name] += c1 - c0
            for key, value in (extra or {}).items():
                attrs[name][key] += value
    return {"calls": calls, "time": incl, "cpu": cpu, "direct": direct, "attrs": attrs,
            "self": self_time}
