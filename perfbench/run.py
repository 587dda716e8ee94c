"""dsmimo benchmark: trials/s on named sweeps, plus per-layer spans.

Run from the root of a dsmimo checkout:

    python3 perfbench/run.py --workload congested_cell --seed 1 --seconds 10 --trace 0

Each workload is one ``dsmimo run`` command, executed through
``dsmimo.cli.main`` in fresh interpreters with BLAS pinned to one thread.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced executions, checks that both wrote the same CSV bytes,
and reports the per-layer metrics. Every run checks the CSV against
the stored reference (at the default seed) or its structure (at any other
seed). The human-readable report goes first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import CAL_REF_S
from tracer import FUNCTIONS, LAYERS

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_REPEATS = 9
# A run must end within 180 s; children get what is left of this budget.
TIME_BUDGET_S = 170.0
# Relative tolerance of numeric CSV fields against the reference: about one
# unit in the last of the 6 significant digits the CSV carries.
REFERENCE_RTOL = 1e-5
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    config: str | None
    preset: str | None
    trials: int | None
    workers: int

    def cli_args(self, seed: int, workers: int) -> list[str]:
        source = ["--config", self.config] if self.config else ["--preset", self.preset]
        trials = ["--trials", str(self.trials)] if self.trials is not None else []
        return [*source, *trials, "--seed", str(seed), "--workers", str(workers)]


# Trial counts keep one execution near one second, so a run takes a median
# over several executions.
WORKLOADS = {
    "congested_cell": Workload("perfbench/congested_cell.yaml", None, None, 1),
    "outer_rich": Workload(None, "outer_rich", 4, 1),
    "layers_mmse": Workload(None, "bench_met_mmse", 20, 1),
    "snr_sweep_u4": Workload(None, "snr_poor_4users", 5, 2),
}

END_TO_END = {"trials_per_ref_s": "trials/ref_s", "setup_s": "s", "peak_rss_mb": "MB"}

# Self times are reported only for functions that run on every workload: a
# function a workload never calls would read 0 s on every run. The others
# are printed in the report with the rest of the trace.
_TIMED_EVERYWHERE = (
    "harness.run_trial", "harness.run_point", "channel.draw_macroscopic",
    "channel.estimate_covariances", "channel.realize_channel", "outer.cme",
    "inner.effective_channels", "inner.truncated_svd", "inner.met_mer",
    "inner.normalize_gamma", "metrics.sum_rate", "linalg.eigh", "linalg.svd",
    "linalg.cholesky", "linalg.norm",
)
PER_LAYER = {
    **{f"{fn}.calls": "count" for fn in FUNCTIONS},
    **{f"{fn}.self_s": "s" for fn in _TIMED_EVERYWHERE},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "harness.run_trial.p50_ms": "ms",
    "harness.run_trial.p90_ms": "ms",
    "harness.run_sweep.busy_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "linalg.gflop_est": "Gflop",
    "inner.per_trial_ms.layers2": "ms",
    "outer.per_trial_ms.layers2": "ms",
}


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PER_LAYER:
        return PER_LAYER[name]
    # Figures printed in the report only: counts, self times and per-trial times.
    return {"calls": "count", "self_s": "s"}.get(name.rsplit(".", 1)[1], "ms")


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

class Children:
    """Starts fresh interpreters of child.py within the run's time budget."""

    def __init__(self, root: Path):
        self.root = root
        self.deadline = time.monotonic() + TIME_BUDGET_S
        self.env = dict(os.environ, **{k: "1" for k in THREAD_ENV}, PYTHONHASHSEED="0")

    def run(self, spec: dict) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps({"root": str(self.root), **spec})],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"benchmark child ({spec['mode']}) exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return abs(x - y) <= REFERENCE_RTOL * max(abs(x), abs(y))


def check_csv(text: str, reference: str, exact: bool) -> list[str]:
    """Problems of a CSV against the reference; empty when it passes.

    ``exact``: every field matches the reference, numbers within
    REFERENCE_RTOL. Otherwise (another seed) the rows, statuses and trial
    counts match and every reported rate is finite.
    """
    if text.splitlines()[:1] != reference.splitlines()[:1]:
        return ["CSV header differs from the reference"]
    got, want = _rows(text), _rows(reference)
    if len(got) != len(want):
        return [f"{len(got)} rows, reference has {len(want)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(got, want)):
        for col, value in row.items():
            if exact and not _close(value, ref[col]):
                problems.append(f"row {i} {col}: {value!r} != reference {ref[col]!r}")
            elif not exact and col not in ("mean_rate", "stderr") and value != ref[col]:
                problems.append(f"row {i} {col}: {value!r} != reference {ref[col]!r}")
        if not exact and row["status"] == "ok":
            rate, err = float(row["mean_rate"]), float(row["stderr"])
            if not (math.isfinite(rate) and rate > 0 and math.isfinite(err) and err >= 0):
                problems.append(f"row {i}: rate {rate} or stderr {err} is not finite and positive")
    return problems


def _csv_trials(text: str) -> int:
    return sum(int(r["n_trials"]) for r in _rows(text))


def _csv_errors(text: str) -> int:
    return sum(r["status"].startswith("error:") for r in _rows(text))


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name} unresolved)"


def manifest(root: Path, child: dict, env: dict) -> dict:
    src = root / "src" / "dsmimo"
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": child["numpy"],
        "blas": child["blas"],
        "thread_env": {k: env.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "src_dsmimo_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py"))
        ),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _print_metrics(metrics: dict) -> None:
    width = max(map(len, metrics))
    for name, value in metrics.items():
        print(f"  {name:<{width}} = {value:.6g} {_unit(name)}")


def _report_trace(trace: dict) -> None:
    metrics = trace["metrics"]
    print(f"trace: {trace['trial_samples']} traced trials; all per-layer figures:")
    _print_metrics(metrics)
    print("stage shares of trial time (inclusive of linalg calls; harness = remainder):")
    for group in sorted({k.rsplit(".", 1)[1] for k in metrics if ".per_trial_ms." in k}):
        total = metrics[f"harness.run_trial.per_trial_ms.{group}"]
        stages = {s: metrics.get(f"{s}.per_trial_ms.{group}", 0.0) for s in
                  ("channel", "outer", "inner", "metrics")}
        stages["harness"] = total - sum(stages.values())
        shares = ", ".join(f"{s} {100 * v / total:.1f}%" for s, v in stages.items())
        print(f"  {group}: {total:.3f} ms/trial: {shares}")
    print("linalg kernels per execution (operation counts computed from shapes):")
    for k in trace["kernels"]:
        print(f"  {k['kernel']:<40} calls={k['calls']:<6} gflop_est={k['gflop_est']:.6g}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dsmimo" / "__init__.py").is_file():
        print(f"no dsmimo sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workers = min(workload.workers, len(os.sched_getaffinity(0)))
    reference = (HERE / "reference" / f"{args.workload}.csv").read_text(encoding="utf-8")
    exact = args.seed == DEFAULT_SEED
    children = Children(root)

    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        base = {
            "args": workload.cli_args(args.seed, workers),
            "workers": workers,
            "out": str(Path(tmp) / "out.csv"),
        }
        result = children.run({**base, "mode": "trace" if args.trace else "run",
                              "seconds": args.seconds})
        if args.trace == 0:
            setups = [
                children.run({"mode": "setup", "config": workload.config,
                              "preset": workload.preset, "trials": workload.trials,
                              "seed": args.seed})
                for _ in range(SETUP_REPEATS)
            ]

    text = result["csv"]
    problems = check_csv(text, reference, exact) if text else ["no CSV written"]
    if any(result["codes"]):
        problems.append(f"dsmimo run exited with codes {sorted(set(result['codes']))}")
    if not result["identical"]:
        problems.append("CSV bytes differ between executions of the same command"
                        f"{', traced or not' if args.trace else ''}")
    if args.trace == 0 and setups[0]["error"]:
        problems.append(f"first trial of the cold start raised {setups[0]['error']}")
    executions = len(result["codes"])
    attempted = executions * len(_rows(text)) if text else executions
    failed = executions * _csv_errors(text) if text else executions

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("manifest:", json.dumps(manifest(root, result, children.env)))
    print("command: dsmimo", " ".join(["run", *base["args"], "--out", "<tmp>/out.csv"]))
    print(f"gate: {'reference at default seed' if exact else 'structural (non-default seed)'}"
          f"{'; traced CSV compared byte for byte' if args.trace else ''}: "
          f"{'ok' if not problems else 'FAILED'}")
    for p in problems:
        print("  " + p)

    trials = _csv_trials(text) if text else 0
    if args.trace == 0:
        # Each execution's wall time in reference seconds, against the mean
        # of the calibration runs just before and just after it.
        walls, cals = result["walls"], result["cals"]
        ref_walls = [w * CAL_REF_S / ((c0 + c1) / 2) for w, c0, c1 in zip(walls, cals, cals[1:])]
        rates = [trials / w for w in walls]
        ref_rates = [trials / w for w in ref_walls]
        print(f"executions: {len(rates)} timed (+1 warm-up), {trials} trials each, "
              f"{workers} worker(s)")
        print(f"  trials/s:     median {statistics.median(rates):.4g}, "
              f"min {min(rates):.4g}, max {max(rates):.4g}")
        print(f"  trials/ref_s: median {statistics.median(ref_rates):.4g}, "
              f"min {min(ref_rates):.4g}, max {max(ref_rates):.4g}")
        print(f"  calibration kernel: {len(cals)} runs, median {statistics.median(cals):.4f} s, "
              f"min {min(cals):.4f} s, max {max(cals):.4f} s (reference {CAL_REF_S} s)")
        setup = [s["setup_s"] for s in setups]
        ref_setup = [s["setup_s"] * CAL_REF_S / s["cal_s"] for s in setups]
        print(f"setup wall s: {', '.join(f'{s:.4f}' for s in setup)} "
              f"(median {statistics.median(setup):.4f})")
        print(f"setup ref s:  {', '.join(f'{s:.4f}' for s in ref_setup)}")
        metrics = {
            "trials_per_ref_s": statistics.median(ref_rates),
            "setup_s": statistics.median(ref_setup),
            "peak_rss_mb": result["maxrss_kb"] * 1024 / 1e6,
        }
        _print_metrics(metrics)
    else:
        trace = result["trace"]
        traced = result["traced_walls"]
        overhead = statistics.median(traced) / statistics.median(result["walls"]) - 1
        trace["metrics"]["trace.overhead_frac"] = overhead
        print(f"executions: {len(traced)} untraced and {len(traced)} traced, alternating "
              f"(+1 warm-up), {trials} trials each, {workers} worker(s)")
        _report_trace(trace)
        metrics = {name: trace["metrics"][name] for name in PER_LAYER}

    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
