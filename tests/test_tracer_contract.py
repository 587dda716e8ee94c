"""The benchmark's span tracer (perfbench/tracer.py) against the library.

The tracer times dsmimo's layers from outside the package by swapping the
module attributes of the functions it lists. A traced benchmark run then
relies on those functions existing, on every stage call running inside a
``run_trial`` (the stages a drop group shares too: the first point that
reads one builds it, inside its own trial), so that per-trial stage times
add up to no more than the trial time, on one ``run_point`` call per drop
group, whose first point's layer count is the group's, and on tracing
leaving the CSV unchanged. This checks all of it on a small sweep over
every scheme, in seconds. The tracer's source is read and executed, never
imported from its directory, so nothing is written there.
"""

import time
import types
from importlib import import_module
from pathlib import Path

import pytest

import dsmimo
from dsmimo import ExperimentConfig, emit_csv, run_sweep
from dsmimo.harness import INNER_METHODS

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

CONFIGS = [
    ExperimentConfig(
        scenario="poor", n_t=16, n_r=12, n_s=1, n_users=2, snr_db=10.0,
        outer="none", inner=inner, layers=1, n_trials=2,
    )
    for inner in INNER_METHODS
] + [
    ExperimentConfig(
        scenario="fair", n_t=16, n_r=12, m_t=4, m_r=4, n_s=1, n_users=2, snr_db=snr_db,
        outer=outer, inner=inner, n_trials=2, n_slots=10,
    )
    for outer in ("cme", "pps", "sps")
    for inner in INNER_METHODS
    for snr_db in (10.0, [0.0, 20.0])  # points that share each trial's drop
]
# Every config draws from one of two drops: 1-layer poor or 2-layer fair.
DROP_GROUPS = len({(p.scenario, p.layers) for cfg in CONFIGS for p in cfg.grid()})


def _load_tracer():
    module = types.ModuleType("tracer")
    source = TRACER_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_function_exists():
    tracer = _load_tracer()
    for home, names in tracer.LAYERS.values():
        module = import_module(home)
        for name in names:
            assert callable(getattr(module, name, None)), f"{home}.{name}"


@pytest.fixture(scope="module")
def traced_sweep():
    """(tracer module, spans, summary) of one traced sweep over CONFIGS, checked against plain."""
    tracing = _load_tracer()
    plain = emit_csv(run_sweep(*CONFIGS, seed=3))
    original = dsmimo.harness.run_trial
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = emit_csv(run_sweep(*CONFIGS, seed=3, workers=2))
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert dsmimo.harness.run_trial is original
    assert traced == plain
    assert "error" not in traced
    return tracing, tracer.spans, tracing.summarize_rep(tracer.spans, wall, 2)


def test_traced_sweep_writes_the_same_csv_and_splits_both_layer_counts(traced_sweep):
    tracing, _, summary = traced_sweep
    per_trial = summary["per_trial_ms"]
    for group in ("layers1", "layers2"):
        for stage in ("harness.run_trial", "channel", "inner", "metrics"):
            assert f"{stage}.per_trial_ms.{group}" in per_trial
    assert "outer.per_trial_ms.layers2" in per_trial
    assert summary["calls"]["harness.run_point"] == DROP_GROUPS == 2
    called = {name for name, count in summary["calls"].items() if count}
    assert {fn for fn in tracing.FUNCTIONS if not fn.startswith("linalg.")} <= called
    tracing.combine_reps([summary])


def test_every_stage_span_runs_inside_a_trial(traced_sweep):
    tracing, spans, _ = traced_sweep
    by_id = {span[0]: span for span in spans}
    stages = [span for span in spans if span[1].split(".", 1)[0] in tracing.STAGES]
    assert stages
    for span in stages:
        ancestors, parent = [], span[4]
        while parent >= 0:
            ancestors.append(by_id[parent][1])
            parent = by_id[parent][4]
        assert "harness.run_trial" in ancestors, span[1]


def test_stage_times_per_trial_fit_in_the_trial_time(traced_sweep):
    # The report's "harness = remainder" share is the trial time less the stages'.
    tracing, _, summary = traced_sweep
    per_trial = summary["per_trial_ms"]
    for group in ("layers1", "layers2"):
        stages = sum(per_trial.get(f"{s}.per_trial_ms.{group}", 0.0) for s in tracing.STAGES)
        assert stages <= per_trial[f"harness.run_trial.per_trial_ms.{group}"]
