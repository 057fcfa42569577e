"""Span recorder that times the public functions of each qkaczmarz module.

The program is not modified.  `Tracer.install` replaces a module attribute
with a timing wrapper; every caller inside the package reaches the function
through that attribute (`quantiles.q_quantile`, `solvers.run`, ...), so the
wrapper sees every call.  Spans are kept in memory and written out when the
run ends.
"""

import functools
import json
import os
import time

# module -> function -> the per-layer statistics reported for it
LAYERS = {
    "matrices": {
        "mm_write": ("calls", "us", "bytes"),
        "mm_read": ("calls", "us", "bytes"),
        "normalize_rows": ("calls", "us"),
    },
    "instances": {
        "generate_gaussian": ("calls", "us", "self_us"),
        "save_bundle": ("calls", "us"),
        "load_bundle": ("calls", "us", "self_us"),
    },
    "quantiles": {
        "q_quantile": ("calls", "us"),
        "acceptable_set": ("calls", "us", "kept_frac"),
    },
    "bregman": {
        "exact_step": ("calls", "us", "self_us"),
        "soft_shrink": ("calls", "us"),
        "bregman_distance": ("calls", "us"),
    },
    "solvers": {
        "sample_index": ("calls", "us"),
        "step_single": ("calls", "self_us", "bytes_computed", "flops_computed"),
        "step_averaged_block": ("calls", "self_us", "bytes_computed", "flops_computed"),
        "run": ("calls", "self_us_per_iter"),
        "median_of_trials": ("calls", "us"),
    },
    "theory": {
        "spectral_constants": ("calls", "us", "us_per_draw"),
    },
    "cli": {
        "cmd_generate": ("calls", "us"),
        "cmd_spectral": ("calls", "us"),
        "cmd_solve": ("calls", "self_us"),
        "cmd_experiment": ("calls", "self_us"),
        "write_trace_csv": ("calls", "us", "bytes"),
    },
}

UNITS = {
    "calls": "calls/trial",
    "us": "us",
    "self_us": "us",
    "us_per_draw": "us",
    "self_us_per_iter": "us",
    "bytes": "B",
    "bytes_computed": "B",
    "flops_computed": "flop",
    "kept_frac": "ratio",
}

# Metrics of the traced run that are not a statistic of one wrapped function.
EXTRA_METRICS = {
    "solvers.iters_to_tol.p50": "iters",
    "trace_overhead_frac": "ratio",
}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for module, functions in LAYERS.items():
        for function, stats in functions.items():
            for stat in stats:
                names[f"{module}.{function}.{stat}"] = UNITS[stat]
    names.update(EXTRA_METRICS)
    return names


class LayerStat:
    __slots__ = ("calls", "seconds", "self_seconds", "bytes", "flops",
                 "kept", "draws", "iters")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.bytes = 0
        self.flops = 0
        self.kept = 0.0
        self.draws = 0
        self.iters = 0

    def value(self, stat, trials):
        per_call = 1.0 / self.calls if self.calls else 0.0
        if stat == "calls":
            return self.calls / trials
        if stat == "us":
            return self.seconds * 1e6 * per_call
        if stat == "self_us":
            return self.self_seconds * 1e6 * per_call
        if stat in ("bytes", "bytes_computed"):
            return self.bytes * per_call
        if stat == "flops_computed":
            return self.flops * per_call
        if stat == "kept_frac":
            return self.kept * per_call
        if stat == "us_per_draw":
            return self.seconds * 1e6 / self.draws if self.draws else 0.0
        if stat == "self_us_per_iter":
            return self.self_seconds * 1e6 / self.iters if self.iters else 0.0
        raise KeyError(stat)


# ---------------------------------------------------------------------------
# Per-call counters, computed from arguments and results after the call.
# Bytes and flops of the kernels are computed from array shapes (float64),
# not measured.
# ---------------------------------------------------------------------------

def _file_bytes(stat, args, kwargs, result):
    stat.bytes += os.path.getsize(args[0])


def _kept(stat, args, kwargs, result):
    stat.kept += result.shape[0] / len(args[0])


def _matvec_cost(m, n):
    # r = A @ x - b: read A, x and b, write r.
    return 8 * (m * n + n + 2 * m), 2 * m * n


def _single_cost(stat, args, kwargs, result):
    _, instance, config, _ = args
    m, n = instance.A.shape
    nbytes, flops = _matvec_cost(m, n) if config.quantile_q is not None else (0, 0)
    # dual update x* - t a_i: read a_i and x*, write x*
    nbytes += 24 * n
    flops += 2 * n
    if config.method == "single-row-inexact":
        nbytes += 16 * n          # t = <a_i, x> - b_i
        flops += 2 * n
    stat.bytes += nbytes
    stat.flops += flops


def _block_cost(stat, args, kwargs, result):
    _, instance, _ = args
    m, n = instance.A.shape
    eta = result.last_set_size
    nbytes, flops = _matvec_cost(m, n)
    # A[T] gather reads and writes eta rows; A[T].T @ (w r_T) reads them
    # again with r_T and writes an n-vector.
    nbytes += 24 * eta * n + 8 * eta + 8 * n
    flops += 2 * eta * n
    stat.bytes += nbytes
    stat.flops += flops


def _iters(stat, args, kwargs, result):
    stat.iters += result[0].k


def _draws(stat, args, kwargs, result):
    stat.draws += result.samples


COUNTERS = {
    "matrices.mm_write": _file_bytes,
    "matrices.mm_read": _file_bytes,
    "cli.write_trace_csv": _file_bytes,
    "quantiles.acceptable_set": _kept,
    "solvers.step_single": _single_cost,
    "solvers.step_averaged_block": _block_cost,
    "solvers.run": _iters,
    "theory.spectral_constants": _draws,
}


class Tracer:
    """Times wrapped calls; keeps full spans for trial 0 only.

    A span is (trial, span id, parent span id, name, start, end); spans of
    one trial share the trial number as their trace id.  Self time is a
    call's duration minus that of its wrapped children.
    """

    def __init__(self, modules):
        self.modules = modules
        self.stats = {}
        self.spans = []
        self.trial = 0
        self.active = True
        self._stack = []
        self._next_id = 0
        self._patches = []

    def install(self):
        """Wrap every function named in LAYERS, in the modules given by name."""
        for module_name, functions in LAYERS.items():
            module = self.modules[module_name]
            for function in functions:
                label = f"{module_name}.{function}"
                self._wrap(module, function, label, COUNTERS.get(label))

    def uninstall(self):
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def _wrap(self, module, name, label, counter):
        fn = getattr(module, name)
        stat = self.stats.setdefault(label, LayerStat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = self._call(label, stat, fn, args, kwargs)
            if counter is not None:
                counter(stat, args, kwargs, result)
            return result

        setattr(module, name, wrapper)
        self._patches.append((module, name, fn))

    def _call(self, label, stat, fn, args, kwargs):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else None
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            stat.calls += 1
            stat.seconds += duration
            stat.self_seconds += duration - frame[1]
            if self.trial == 0:
                self.spans.append((self.trial, span_id, parent, label, start, end))

    def metrics(self, trials):
        out = {}
        for module_name, functions in LAYERS.items():
            for function, stats in functions.items():
                stat = self.stats[f"{module_name}.{function}"]
                for name in stats:
                    out[f"{module_name}.{function}.{name}"] = stat.value(name, trials)
        return out

    def write_spans(self, path, header):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(dict(header, spans=self.spans), fh)
