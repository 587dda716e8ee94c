"""Span tracer that times dsmimo's layers from outside the package.

It swaps module attributes: every reference to a traced function in the
dsmimo layer modules and in ``numpy.linalg`` is replaced by a wrapper that
records one span per call. Nothing under ``src/`` is edited, and calls keep
their arguments and results, so a traced run writes the same CSV bytes as
an untraced one.

A span is ``(id, name, start_ns, end_ns, parent_id, point, trial, extra)``.
Each thread keeps its own stack of open spans, so a span's parent is the
enclosing traced call on the same thread. ``point`` numbers the
``run_point`` call the span belongs to and ``trial`` is the trial index
inside it (-1 outside any). ``extra`` holds the point's layer count on
``run_point`` spans and the kernel key on ``linalg`` spans.
"""

from __future__ import annotations

import importlib
import itertools
import math
import statistics
import threading
import time
from collections import Counter

# layer -> (module that defines the functions, traced public functions)
LAYERS = {
    "harness": ("dsmimo.harness", ("run_trial", "run_point")),
    "channel": (
        "dsmimo.channel",
        ("draw_macroscopic", "estimate_covariances", "extract_partial_csi", "realize_channel"),
    ),
    "outer": ("dsmimo.outer", ("cme", "path_outer_filters", "pps", "sps")),
    "inner": (
        "dsmimo.inner",
        ("effective_channels", "truncated_svd", "met_mer", "met_bd", "bd_mer", "met_mmse",
         "normalize_gamma"),
    ),
    "metrics": ("dsmimo.metrics", ("sum_rate",)),
    "linalg": ("numpy.linalg", ("eigh", "svd", "solve", "cond", "cholesky", "norm")),
}

# Modules whose attributes are swapped. dsmimo.harness imports the layer
# functions by name, so its copies must be replaced as well as the originals.
_SWAPPED_MODULES = (
    "dsmimo.harness", "dsmimo.channel", "dsmimo.outer", "dsmimo.inner", "dsmimo.metrics",
    "numpy.linalg",
)

# Modules whose calls from other modules make up the stages of a trial.
STAGES = ("channel", "outer", "inner", "metrics")

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans from the wrapped functions of every thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._points = itertools.count()
        self._local = threading.local()
        self._swaps: list[tuple] = []

    def install(self) -> None:
        """Replace every reference to a traced function by its wrapper."""
        if not self._swaps:
            modules = [importlib.import_module(m) for m in _SWAPPED_MODULES]
            for layer, (home, names) in LAYERS.items():
                home_module = importlib.import_module(home)
                for fn in names:
                    original = getattr(home_module, fn)
                    wrapped = self._wrap(f"{layer}.{fn}", original)
                    self._swaps += [
                        (module, attr, original, wrapped)
                        for module in modules
                        for attr, value in vars(module).items() if value is original
                    ]
        for module, attr, _, wrapped in self._swaps:
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        spans, local, ids, points = self.spans, self._local, self._ids, self._points
        is_point = name == "harness.run_point"
        is_trial = name == "harness.run_trial"
        is_kernel = _layer(name) == "linalg"
        routine = name.split(".", 1)[1]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.point = local.trial = -1
            prev_point, prev_trial = local.point, local.trial
            extra = None
            if is_point:
                local.point = next(points)
                extra = (args[0] if args else kwargs["cfg"]).layers
            elif is_trial:
                local.trial = args[2] if len(args) > 2 else kwargs["trial"]
            elif is_kernel:
                extra = kernel_key(routine, args, kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, local.point, local.trial, extra))
                local.point, local.trial = prev_point, prev_trial

        return traced


# ---------------------------------------------------------------------------
# Kernel counters: LAPACK-backed numpy.linalg calls keyed by routine and shape.
# ---------------------------------------------------------------------------

def _shape(x) -> tuple:
    return tuple(getattr(x, "shape", ()))


def kernel_key(routine: str, args: tuple, kwargs: dict) -> tuple:
    """(routine, dtype, operand shapes, variant) of one numpy.linalg call."""
    a = args[0] if args else next(iter(kwargs.values()))
    shapes = (_shape(a),)
    variant = ""
    if routine == "solve":
        shapes += (_shape(args[1] if len(args) > 1 else kwargs["b"]),)
    elif routine == "svd":
        full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
        uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
        variant = ("full" if full else "thin") if uv else "values"
    elif routine == "eigh":
        variant = "vectors"
    return (routine, str(getattr(a, "dtype", "float64")), shapes, variant)


def kernel_label(key: tuple) -> str:
    routine, dtype, shapes, variant = key
    dims = "|".join("x".join(map(str, s)) or "scalar" for s in shapes)
    return f"{routine}[{dtype} {dims}{' ' + variant if variant else ''}]"


def kernel_flops(key: tuple) -> float:
    """Computed floating-point operation count of one call (not measured).

    Standard dense counts (Golub & Van Loan, Matrix Computations, 4th ed.):
    Hermitian eigensolver with vectors 9n^3; SVD of an m x n matrix
    (m >= n) 4mn^2 - 4n^3/3 for values only, 14mn^2 + 8n^3 with thin U and
    V, 4m^2n + 8mn^2 + 9n^3 with full U and V; LU solve 2n^3/3 + 2n^2k;
    Cholesky n^3/3; Frobenius norm 2 per real element. Complex arithmetic
    counts 4 real operations per complex multiply-add.
    """
    routine, dtype, shapes, variant = key
    is_complex = dtype.startswith("complex")
    per_op = 4.0 if is_complex else 1.0
    a = shapes[0]
    if routine == "norm":
        return 2.0 * math.prod(a) * (2.0 if is_complex else 1.0)
    batch = math.prod(a[:-2])
    m, n = (a[-2], a[-1]) if len(a) >= 2 else (a[0], 1)
    if routine == "svd" or routine == "cond":
        m, n = max(m, n), min(m, n)
        if routine == "cond" or variant == "values":
            f = 4 * m * n**2 - 4 * n**3 / 3
        elif variant == "thin":
            f = 14 * m * n**2 + 8 * n**3
        else:
            f = 4 * m**2 * n + 8 * m * n**2 + 9 * n**3
    elif routine == "eigh":
        f = 9 * n**3
    elif routine == "solve":
        b = shapes[1]
        k = 1 if len(b) == len(a) - 1 else b[-1]
        f = 2 * n**3 / 3 + 2 * n**2 * k
    elif routine == "cholesky":
        f = n**3 / 3
    else:
        raise ValueError(f"no operation count for {routine}")
    return batch * f * per_op


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def summarize_rep(spans: list[tuple], wall_s: float, workers: int) -> dict:
    """Per-function and per-stage totals of one execution of the workload.

    Self time is a span's duration minus the durations of its direct
    children. A stage is one of ``STAGES``; its time is the inclusive time
    (its linalg calls included) of the calls into that module made from
    another module. Stage and trial times are given per trial, for the grid
    points of each layer count (``layers1``, ``layers2``) and for ``all``.
    """
    names = {s[0]: s[1] for s in spans}
    child_ns: Counter = Counter()
    point_layers = {}
    for sid, name, t0, t1, parent, point, trial, extra in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
        if name == "harness.run_point":
            point_layers[point] = extra

    calls: Counter = Counter()
    self_ns: Counter = Counter()
    kernels: Counter = Counter()
    stage_ns: Counter = Counter()
    trials: Counter = Counter()
    trial_ms = []
    point_ns = 0
    for sid, name, t0, t1, parent, point, trial, extra in spans:
        dur = t1 - t0
        calls[name] += 1
        self_ns[name] += dur - child_ns[sid]
        layer = _layer(name)
        if layer == "linalg":
            kernels[extra] += 1
        elif name == "harness.run_point":
            point_ns += dur
        elif name == "harness.run_trial" or (
            layer in STAGES and _layer(names.get(parent, "")) != layer
        ):
            stage = "harness.run_trial" if layer == "harness" else layer
            for group in (f"layers{point_layers[point]}", "all"):
                stage_ns[stage, group] += dur
                trials[group] += stage == "harness.run_trial"
            if stage == "harness.run_trial":
                trial_ms.append(dur / 1e6)
    return {
        "calls": dict(calls),
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "kernels": kernels,
        "trial_ms": trial_ms,
        "busy_frac": point_ns / 1e9 / (wall_s * workers),
        "per_trial_ms": {
            f"{stage}.per_trial_ms.{group}": ns / 1e6 / trials[group]
            for (stage, group), ns in stage_ns.items()
        },
    }


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def combine_reps(reps: list[dict]) -> dict:
    """Per-layer metrics of a traced run from its per-execution summaries.

    Counts are those of one execution (every execution does identical
    work, which is checked); times are medians over executions.
    """
    calls = reps[0]["calls"]
    if any(r["calls"] != calls for r in reps):
        raise RuntimeError("call counts differ between identical executions")
    kernels = reps[0]["kernels"]
    out: dict[str, float] = {}
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = calls.get(fn, 0)
        out[f"{fn}.self_s"] = statistics.median(r["self_s"].get(fn, 0.0) for r in reps)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = statistics.median(
            sum(v for k, v in r["self_s"].items() if _layer(k) == layer) for r in reps
        )
    trial_ms = [t for r in reps for t in r["trial_ms"]]
    out["harness.run_trial.p50_ms"] = statistics.median(trial_ms)
    out["harness.run_trial.p90_ms"] = _percentile(trial_ms, 0.9)
    out["harness.run_sweep.busy_frac"] = statistics.median(r["busy_frac"] for r in reps)
    out["linalg.gflop_est"] = sum(n * kernel_flops(k) for k, n in kernels.items()) / 1e9
    for key in sorted({k for r in reps for k in r["per_trial_ms"]}):
        out[key] = statistics.median(r["per_trial_ms"].get(key, 0.0) for r in reps)
    return {
        "metrics": out,
        "trial_samples": len(trial_ms),
        "kernels": [
            {"kernel": kernel_label(k), "calls": n, "gflop_est": n * kernel_flops(k) / 1e9}
            for k, n in sorted(kernels.items(), key=lambda kv: -kv[1] * kernel_flops(kv[0]))
        ],
    }
