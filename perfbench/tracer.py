"""Outside-in tracer: wraps the package's public functions and records spans.

Each public function of the traced modules is replaced, under every name it
is bound to (module attributes, `from .x import y` aliases, the package
re-exports and `verify.CRITERIA`), by a wrapper that records a span (name,
start, end, parent span, job id, raised) and per-call counts taken from the
arguments or the return value.  Spans stay in memory; `summary()` turns them
into self times (a span's duration minus the part its child spans cover).

Only calls on the main thread are recorded.  Every workload runs at
`--threads 1`; the one exception is criterion 13, whose worker threads call
`tail_terms_needed` inside a `symbols_up_to` span that already covers them.
"""

import functools
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("curve", "cosets", "modsym", "series", "petersson", "stats", "verify", "cli")

# Counter work runs in a span of its own, so it lands in no layer's self time.
COUNTER_SPAN = "trace.counters"


def _fft_len(n_max):
    m = 1
    while m < 2 * int(n_max):
        m *= 2
    return m


def _symbols_counts(tracer, a, batch):
    cs = np.unique(batch.cs).tolist()
    terms_needed = tracer.originals["modsym.tail_terms_needed"]
    tail = a["table"].tail_constant
    return {
        "symbols": len(batch.cs),
        "c_groups": len(cs),
        "terms": sum(terms_needed(1.0 / c, tail, a["tol"]) for c in cs),
    }


def _pairing_counts(tracer, a, sample):
    c = abs(a["m"].c)
    if c == 0:
        return {"terms": 0}
    terms_needed = tracer.originals["modsym.tail_terms_needed"]
    return {"terms": terms_needed(1.0 / c, a["table"].tail_constant, a["tol"])}


# name -> f(tracer, bound arguments, result) -> {quantity: increment}.
# `coset_arrays` is a generator: its counter sees each yielded item instead.
COUNTERS = {
    "curve.coefficient_table": lambda t, a, r: {"terms": int(a["n_max"])},
    "curve.eta_deep_table_level11": lambda t, a, r: {"fft_len": _fft_len(a["n_max"])},
    "cosets.coset_arrays": lambda t, a, item: {"cosets": len(item[1])},
    "modsym.symbols_up_to": _symbols_counts,
    "modsym.pairing": _pairing_counts,
    "series.cfsum": lambda t, a, r: {"values": len(a["values"])},
    "stats.moments_from_arrays": lambda t, a, r: {
        "values": len(a["x"]) * (int(a["n_max"]) + 1) * (int(a["m_max"]) + 1)
    },
}


class Tracer:
    """Installs wrappers on a loaded `modsymdist` package and collects spans."""

    def __init__(self, package):
        self.package = package
        self.job = None
        self.spans = []  # [name, start, end, parent index or -1, job, raised]
        self.counts = defaultdict(int)  # "<module>.<function>.<quantity>" -> total
        self.originals = {}  # "<module>.<function>" -> unwrapped function
        self._stack = []
        self._main = threading.main_thread().ident
        self._restore = []  # (object, attribute, original value)

    # -- installation -----------------------------------------------------

    def _public_functions(self):
        for mod_name in MODULES:
            mod = getattr(self.package, mod_name)
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                # `cli.main` alone is wrapped in `cli`: its self time is argument
                # parsing plus CSV/JSON formatting, which no other layer covers
                if attr.startswith("_") or (mod_name == "cli" and attr != "main"):
                    continue
                yield f"{mod_name}.{attr}", fn

    def install(self):
        wrappers = {}
        for name, fn in self._public_functions():
            self.originals[name] = fn
            wrappers[id(fn)] = self._wrap(name, fn)
        for mod in [self.package] + [getattr(self.package, m) for m in MODULES]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        verify = self.package.verify
        self._restore.append((verify, "CRITERIA", verify.CRITERIA))
        verify.CRITERIA = [
            (key, name, wrappers.get(id(fn), fn), defect)
            for key, name, fn, defect in verify.CRITERIA
        ]

    def uninstall(self):
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore = []

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, False])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index, raised):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = raised
        if self._stack[-1] == index:
            self._stack.pop()
        else:  # a generator span closed out of order
            self._stack.remove(index)

    def _add(self, name, increments):
        for quantity, value in increments.items():
            self.counts[f"{name}.{quantity}"] += value

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        def bind(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if threading.get_ident() != tracer._main:
                    yield from fn(*args, **kwargs)
                    return
                index = tracer._open(name)
                raised = False
                try:
                    for item in fn(*args, **kwargs):
                        if counter is not None:
                            tracer._add(name, counter(tracer, None, item))
                        yield item
                except GeneratorExit:
                    raise
                except BaseException:
                    raised = True
                    raise
                finally:
                    tracer._close(index, raised)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                tracer._close(index, raised)
            if counter is not None:
                index = tracer._open(COUNTER_SPAN)
                try:
                    tracer._add(name, counter(tracer, bind(args, kwargs), result))
                finally:
                    tracer._close(index, False)
            return result

        return wrapper

    def span_cost(self, calls=20000):
        """Seconds one recorded span adds, from timing a wrapped no-op function."""

        def noop():
            return None

        wrapped = Tracer(self.package)._wrap("probe.noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        return max(0.0, (time.perf_counter() - start - plain) / calls)

    # -- aggregation ------------------------------------------------------

    def summary(self):
        """Per-function self time and calls, per-module errors, and the root total.

        Returns (self_s, calls, errors, root_s): self_s and calls keyed by
        "<module>.<function>", errors keyed by module, and root_s the summed
        duration of spans without a parent, which the self times partition.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        errors = defaultdict(int)
        root_s = 0.0
        for k, (name, start, end, parent, _, raised) in enumerate(self.spans):
            self_s[name] += (end - start) - child[k]
            calls[name] += 1
            if raised:
                errors[name.split(".")[0]] += 1
            if parent < 0:
                root_s += end - start
        return self_s, calls, errors, root_s
