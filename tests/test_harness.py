import csv
import gc
import io
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dsmimo import (
    ConfigError,
    EffectiveChannelSet,
    ExperimentConfig,
    InfeasibleError,
    PRESETS,
    RateRecord,
    SolverError,
    emit_csv,
    load_config,
    preset_configs,
    run_point,
    run_sweep,
    run_trial,
    snr_to_power,
)
from dsmimo import harness, metrics, outer
from dsmimo.cli import main

ROOT = Path(__file__).resolve().parents[1]

SMALL = ExperimentConfig(
    scenario="poor", n_t=8, n_r=8, m_t=2, m_r=2, n_s=1, n_users=1,
    snr_db=10.0, outer="cme", inner="met_mer", n_trials=3, n_slots=20,
)


class TestConfigValidation:
    def test_small_config_is_valid(self):
        SMALL.validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scenario": "urban"},
            {"scenario": []},
            {"outer": "zf"},
            {"inner": "dirty_paper"},
            {"layers": 3},
            {"layers": 1},  # outer must then be 'none'
            {"outer": "none"},  # needs layers=1
            {"n_s": 3},  # exceeds m_t = m_r = 2
            {"m_t": 9},  # wider than the array
            {"n_users": [0]},
            {"snr_db": [float("inf")]},
            {"seed": -1},
            {"n_trials": 0},
            {"sigma_n2": 0.0},
            {"sigma_n2": float("inf")},
            {"sigma_c_deg": float("nan")},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            replace(SMALL, **overrides).validate()

    def test_path_selection_needs_enough_paths(self):
        cfg = replace(SMALL, outer="pps", m_t=9, n_t=16)  # poor has L=8
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_single_layer_skips_outer_width_checks(self):
        cfg = replace(SMALL, layers=1, outer="none", n_s=4, m_t=1, m_r=1)
        cfg.validate()  # n_s limited by n_t/n_r, not m_t/m_r

    def test_grid_expansion_order(self):
        cfg = replace(SMALL, scenario=["poor", "fair"], snr_db=[0.0, 10.0, 20.0])
        points = cfg.grid()
        assert len(points) == 6
        assert [(p.scenario, p.snr_db) for p in points[:3]] == [
            ("poor", 0.0), ("poor", 10.0), ("poor", 20.0)
        ]

    def test_run_point_rejects_sweep_axes(self):
        with pytest.raises(ConfigError):
            run_point(replace(SMALL, snr_db=[0.0, 10.0]), seed=0)

    # Each value's outcome in an integer field and in a real one: None accepts it, a str
    # is the ConfigError's message (with the field's name and the value's repr after it).
    TYPED_VALUES = [
        pytest.param(5, None, None, id="int"),
        pytest.param(np.int64(5), None, None, id="np.int64"),
        pytest.param(10**400, None, "must be a float or a 64-bit integer, got",
                     id="int-400-digits"),
        pytest.param(True, "must be an integer, got", "must be a number, got", id="bool"),
        pytest.param(np.bool_(True), "must be an integer, got", "must be a number, got",
                     id="np.bool_"),
        pytest.param(5.0, "must be an integer, got", None, id="float"),
        pytest.param(np.float32(5.0), "must be an integer, got", None, id="np.float32"),
        pytest.param(np.float64(5.0), "must be an integer, got", None, id="np.float64"),
        pytest.param(Fraction(1, 3), "must be an integer, got",
                     "must be a float or a 64-bit integer, got", id="Fraction"),
        pytest.param(float("nan"), "must be an integer, got", "must be finite, got", id="nan"),
        pytest.param(float("-inf"), "must be an integer, got", "must be finite, got", id="-inf"),
        pytest.param(np.float32("inf"), "must be an integer, got", "must be finite, got",
                     id="np.float32-inf"),
        pytest.param("5", "must be an integer, got", "must be a number, got", id="str"),
        pytest.param(None, "must be an integer, got", "must be a number, got", id="None"),
    ]

    @pytest.mark.parametrize("name", ["n_trials", "seed", "n_users", "n_t"])
    @pytest.mark.parametrize("value, as_integer, _", TYPED_VALUES)
    def test_integer_fields_accept_and_reject_by_type(self, name, value, as_integer, _):
        self._check(replace(SMALL, **{name: value}), name, value, as_integer)

    @pytest.mark.parametrize("name", ["snr_db", "sigma_n2", "sigma_c_deg"])
    @pytest.mark.parametrize("value, _, as_real", TYPED_VALUES)
    def test_real_fields_accept_and_reject_by_type(self, name, value, _, as_real):
        self._check(replace(SMALL, **{name: value}), name, value, as_real)

    def test_every_parametrized_test_id_is_short(self):
        # pytest builds an ID from each value unless it is named, so an expected message or a
        # 400-digit int would make IDs hundreds of characters long that renaming a message
        # would change. Each bracketed ID of the suite stays within 100 characters.
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        listing = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
             "tests"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        ids = re.findall(r"^tests/\S*?\[(.*)\]$", listing, flags=re.MULTILINE)
        assert len(ids) > 100
        assert [i for i in ids if len(i) > 100] == []

    @staticmethod
    def _check(cfg, name, value, outcome):
        if outcome is None:
            cfg.validate()
        else:
            with pytest.raises(ConfigError) as raised:
                cfg.validate()
            assert str(raised.value) == f"{name} {outcome} {value!r}"

    @pytest.mark.parametrize("name, value, outcome", [
        ("n_users", [5], None),
        ("n_users", [4, np.int64(6)], None),
        ("n_users", [], "sweep axes must be nonempty"),
        ("n_users", [2, True], "n_users must be an integer, got True"),
        ("snr_db", [5, 7.5, np.float32(1.0)], None),
        ("snr_db", [0.0, float("nan")], "snr_db must be finite, got nan"),
        ("n_trials", [5], "n_trials must be an integer, got [5]"),
        ("sigma_n2", [1e-3], "sigma_n2 must be a number, got [0.001]"),
    ])
    def test_lists_are_sweep_axes_only_where_declared(self, name, value, outcome):
        cfg = replace(SMALL, **{name: value})
        if outcome is None:
            cfg.validate()
        else:
            with pytest.raises(ConfigError, match=re.escape(outcome)):
                cfg.validate()

    def test_a_single_normalized_point_is_its_own_grid(self):
        assert SMALL.grid() == [SMALL]
        assert SMALL.grid()[0] is SMALL

    @pytest.mark.parametrize("overrides", [
        {"snr_db": 20},
        {"snr_db": np.float64(20.0)},
        {"snr_db": [20]},
        {"n_users": np.int64(1)},
        {"scenario": ["poor"]},
    ])
    def test_grid_normalizes_a_single_point_given_in_other_types(self, overrides):
        [point] = replace(SMALL, **overrides).grid()
        assert (type(point.scenario), type(point.snr_db), type(point.n_users)) == (str, float, int)
        assert point == (replace(SMALL, snr_db=20.0) if "snr_db" in overrides else SMALL)

    def test_an_int_snr_runs_and_writes_as_its_float(self):
        [as_int] = run_point(replace(SMALL, snr_db=20, n_trials=1), seed=0)
        [as_float] = run_point(replace(SMALL, snr_db=20.0, n_trials=1), seed=0)
        assert as_int == as_float and type(as_int.snr_db) is float


class TestDeterminismAndPairing:
    def test_identical_seed_identical_record(self):
        [a] = run_point(SMALL, seed=5)
        [b] = run_point(SMALL, seed=5)
        assert a == b

    def test_trials_are_indexed_substreams(self):
        first = run_trial(replace(SMALL, n_trials=1), seed=5, trial=2)
        again = run_trial(replace(SMALL, n_trials=10), seed=5, trial=2)
        assert first == again

    def test_one_and_two_layer_share_draws(self):
        # With a full-width outer stage the two-layer filters span the same
        # subspaces as the one-layer ones, so paired draws give equal rates.
        two = replace(SMALL, m_t=8, m_r=8, n_s=2, n_users=2, n_trials=4)
        one = replace(SMALL, layers=1, outer="none", n_s=2, n_users=2, n_trials=4)
        [r_two] = run_point(two, seed=9)
        [r_one] = run_point(one, seed=9)
        assert abs(r_two.mean_rate - r_one.mean_rate) <= 1e-9 * r_one.mean_rate

    def test_snr_points_share_channel_draws(self):
        # Channel substreams never depend on the SNR axis, so for a
        # single-user single-stream trial the two rates are tied by the
        # exact scalar relation r = log2(1 + rho * P_t).
        low = run_trial(replace(SMALL, snr_db=0.0), seed=4, trial=0)
        high = run_trial(replace(SMALL, snr_db=10.0), seed=4, trial=0)
        rho = 2.0**low - 1.0
        assert high == pytest.approx(np.log2(1.0 + 10.0 * rho), rel=1e-9)

    def test_outer_methods_share_channel_draws(self):
        # pps/sps never touch the covariance substream and select the same
        # single strongest path at m_t = m_r = 1, giving identical rates.
        cfg = replace(SMALL, m_t=1, m_r=1)
        sps_rate = run_trial(replace(cfg, outer="sps"), seed=4, trial=1)
        pps_rate = run_trial(replace(cfg, outer="pps"), seed=4, trial=1)
        assert sps_rate == pps_rate

    def test_stderr_scales_like_inverse_root_trials(self):
        records = {
            n: run_point(replace(SMALL, n_trials=n), seed=7)[0] for n in (100, 400, 1600)
        }
        for small, big in ((100, 400), (400, 1600)):
            ratio = records[small].stderr / records[big].stderr
            assert 1.4 <= ratio <= 2.6

    def test_sweep_workers_do_not_change_results(self):
        cfg = replace(SMALL, n_users=[1, 2], snr_db=[0.0, 10.0])
        serial = emit_csv(run_sweep(cfg, seed=3, workers=1))
        threaded = emit_csv(run_sweep(cfg, seed=3, workers=3))
        assert serial == threaded

    def test_a_sweep_starts_no_more_threads_than_groups(self, monkeypatch):
        pools, real_pool = [], harness.ThreadPoolExecutor

        def pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        one_group = replace(SMALL, snr_db=[0.0, 10.0])  # one drop: one group
        two_groups = replace(one_group, n_users=[1, 2])
        serial = [run_sweep(cfg, seed=3, workers=1) for cfg in (one_group, two_groups)]
        monkeypatch.setattr(harness, "ThreadPoolExecutor", pool)
        assert run_sweep(one_group, seed=3, workers=2) == serial[0]
        assert pools == []  # the caller's thread runs the one group
        assert run_sweep(two_groups, seed=3, workers=3) == serial[1]
        assert pools == [2]


class TestMultiConfigSweep:
    CONFIGS = (
        replace(SMALL, n_users=[1, 2]),
        replace(SMALL, inner="met_bd", n_users=4),  # 4 > m_r = 2: infeasible
        replace(SMALL, inner="met_mmse", snr_db=[0.0, 20.0]),
    )

    @pytest.mark.parametrize("workers", [1, 3])
    def test_one_sweep_equals_concatenated_sweeps(self, monkeypatch, workers):
        real_trial = harness.run_trial

        def failing_trial(cfg, seed, trial, drop=None):
            if cfg.inner == "met_mmse" and cfg.snr_db == 20.0:
                raise RuntimeError("singular system")
            return real_trial(cfg, seed, trial, drop)

        monkeypatch.setattr(harness, "run_trial", failing_trial)
        together = run_sweep(*self.CONFIGS, seed=3, workers=workers)
        apart = [r for cfg in self.CONFIGS for r in run_sweep(cfg, seed=3, workers=workers)]
        assert [r.status for r in together] == [
            "ok", "ok", "infeasible", "ok", "error:runtimeerror"
        ]
        assert emit_csv(together) == emit_csv(apart)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_bad_config_anywhere_fails_before_any_point_runs(self, monkeypatch, position):
        calls = []
        monkeypatch.setattr(harness, "run_point", lambda *points, seed=None: calls.append(points))
        configs = list(self.CONFIGS)
        configs[position] = replace(configs[position], outer="zf")
        with pytest.raises(ConfigError):
            run_sweep(*configs, seed=0, workers=2)
        assert calls == []


class TestTrialMemory:
    # 32 users at 128 x 128 through 8 paths: the dense channel stack is
    # 8.4 MB, near three times a factored 2-layer trial's heap peak (3.0 MB).
    CFG = ExperimentConfig(
        scenario="poor", n_t=128, n_r=128, m_t=4, m_r=4, n_s=1, n_users=32, snr_db=0.0,
        outer="cme", inner="met_mmse", n_slots=100,
    )
    STACK_BYTES = 32 * 128 * 128 * np.dtype(complex).itemsize

    @staticmethod
    def _heap_peak(cfg):
        run_trial(cfg, 1, 0)  # first-call allocations are not the trial's
        tracemalloc.start()
        try:
            run_trial(cfg, 1, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_two_layer_trial_allocates_no_dense_channel_stack(self):
        # numpy reports its buffers to tracemalloc, so a (U, N_r, N_t)
        # array alive at any point would lift the peak above its size.
        assert self._heap_peak(self.CFG) < self.STACK_BYTES

    def test_a_group_keeps_one_trials_drop_alive(self):
        # Eight points (SNRs x inner schemes) share each trial's drop; the
        # group's peak stays that of a lone point's trial.
        points = [
            replace(self.CFG, snr_db=snr, inner=inner, n_trials=2)
            for snr in (-10.0, 0.0, 10.0, 20.0)
            for inner in ("met_mer", "met_mmse")
        ]
        run_point(*points, seed=1)  # first-call allocations are not the group's
        tracemalloc.start()
        try:
            run_point(*points, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * self._heap_peak(self.CFG)

    def test_a_group_over_snr_keeps_one_points_rate_factors(self):
        # U = 1 with m = n_s = 64 makes every rate factor a 64 x 64 matrix:
        # the group holds one design's composite precoder and receive side
        # at a time, so its peak stays that of a lone point's trial.
        cfg = replace(
            self.CFG, scenario="rich", n_t=64, n_r=64, m_t=64, m_r=64, n_s=64, n_users=1,
            inner="met_mer",
        )
        points = [replace(cfg, snr_db=snr, n_trials=2) for snr in (-10.0, 0.0, 10.0, 20.0, 30.0)]
        run_point(*points, seed=1)  # first-call allocations are not the group's
        tracemalloc.start()
        try:
            run_point(*points, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * self._heap_peak(cfg)

    def test_a_width_sweep_holds_the_eigenbasis_in_place_of_the_drop(self):
        # U = 1, 64 x 64, rich: every stage is a 64 x 64 matrix or near it.
        # The drop lives until the last method's width-free build, and CME's
        # eigenbasis is the largest width-free work. CME's points run last,
        # so the eigenbasis build is the drop's last reader and the
        # eigenbasis is held without the drop next to the 56-wide point's
        # stages. CME first, holding both, read 1.18 times a lone widest
        # trial's peak; this order reads 1.13.
        cfg = replace(
            self.CFG, scenario="rich", n_t=64, n_r=64, n_users=1, snr_db=20.0,
            inner="met_mer", n_trials=2,
        )
        points = [
            replace(cfg, outer=method, m_t=m, m_r=m, n_s=m)
            for method in ("cme", "pps", "sps")
            for m in (56, 64)
        ]
        run_point(*points, seed=1)  # first-call allocations are not the group's
        tracemalloc.start()
        try:
            run_point(*points, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lone = max(
            self._heap_peak(replace(cfg, outer=method, m_t=64, m_r=64, n_s=64))
            for method in ("cme", "sps")
        )
        assert peak <= 1.15 * lone

    def test_a_new_outer_key_frees_the_stages_of_the_last_one(self):
        # Fair, U = 8, 32-wide filters: SPS's effective channels (U x U x 32
        # x 32, 1 MB), inner design and rate factors are freed when CME's
        # outer key comes up, before its covariances are estimated and
        # decomposed. Holding them until each stage's own rebuild read 1.35
        # times a lone point's trial peak; freeing them reads 1.06.
        cfg = replace(
            self.CFG, scenario="fair", n_t=64, n_r=64, m_t=32, m_r=32, n_users=8,
            inner="met_mer", n_trials=2,
        )
        points = [replace(cfg, outer=method) for method in ("sps", "cme")]
        # first-call allocations are not the group's
        assert {r.status for r in run_point(*points, seed=1)} == {"ok"}
        tracemalloc.start()
        try:
            run_point(*points, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * max(self._heap_peak(point) for point in points)

    def test_a_new_width_frees_the_stages_of_the_last_one(self):
        # Fair, U = 8, SPS at widths 16 and 32: the 16-wide filters, their
        # effective channels and serving SVD are freed before the 32-wide
        # filters are built. Holding them until their names are rebound read
        # 1.12 times the wide point's lone trial peak; freeing them reads 1.00.
        cfg = replace(
            self.CFG, scenario="fair", n_t=64, n_r=64, n_users=8, outer="sps",
            inner="met_mer", n_trials=2,
        )
        points = [replace(cfg, m_t=m, m_r=m) for m in (16, 32)]
        assert {r.status for r in run_point(*points, seed=1)} == {"ok"}
        tracemalloc.start()
        try:
            run_point(*points, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * max(self._heap_peak(point) for point in points)

    def test_one_layer_trial_builds_the_dense_channel_stack(self):
        cfg = replace(self.CFG, outer="none", layers=1, inner="met_mer")
        assert self._heap_peak(cfg) >= self.STACK_BYTES


# What the points of TestDropSharing share: their draws, and an SNR axis.
SHARED_DROP = dict(
    scenario="fair", n_t=16, n_r=12, n_users=2, snr_db=[-5.0, 10.0, 25.0], n_trials=3,
    n_slots=10,
)


class TestDropSharing:
    """A sweep's points that read the same drops run as one group, trial by trial."""

    # Every outer method at two widths, every inner scheme at two stream
    # counts (BD at m = 2, n_s = 2 is infeasible for two users) and both
    # layer counts: two drop groups, of 144 and 24 points.
    CONFIGS = [
        ExperimentConfig(m_t=m, m_r=m, n_s=n_s, outer=outer, inner=inner, **SHARED_DROP)
        for outer in ("cme", "pps", "sps")
        for m in (2, 4)
        for inner in harness.INNER_METHODS
        for n_s in (1, 2)
    ] + [
        ExperimentConfig(n_s=n_s, outer="none", inner=inner, layers=1, **SHARED_DROP)
        for inner in harness.INNER_METHODS
        for n_s in (1, 2)
    ]
    RAISES_AT_TRIAL_1 = ExperimentConfig(
        **{**SHARED_DROP, "snr_db": 10.0}, m_t=4, m_r=4, outer="sps", inner="met_mmse"
    )

    @pytest.mark.parametrize("workers", [1, 3])
    def test_grouped_sweep_equals_each_point_alone(self, monkeypatch, workers):
        real_trial = harness.run_trial

        def failing_trial(cfg, seed, trial, drop=None):
            if cfg == self.RAISES_AT_TRIAL_1 and trial == 1:
                raise ArithmeticError("second trial fails")
            return real_trial(cfg, seed, trial, drop)

        monkeypatch.setattr(harness, "run_trial", failing_trial)
        points = [point for cfg in self.CONFIGS for point in cfg.grid()]
        grouped = run_sweep(*self.CONFIGS, seed=6, workers=workers)
        alone = [record for point in points for record in run_point(point, seed=6)]
        assert emit_csv(grouped) == emit_csv(alone)
        statuses = [r.status for r in grouped]
        assert statuses[points.index(self.RAISES_AT_TRIAL_1)] == "error:arithmeticerror"
        assert {"ok", "infeasible"} <= set(statuses)
        # Trial by trial, each drawn from scratch: nothing a group or a point
        # keeps from one trial leaks into the next.
        for point, record in zip(points, grouped):
            if record.status == "ok":
                trials = [real_trial(point, 6, t) for t in range(point.n_trials)]
                assert record.mean_rate == float(np.mean(trials))

    @staticmethod
    def _tracking_chunks(monkeypatch):
        """Wrap run_trial so that ``chunk[0]`` is the trials of the cache it runs in."""
        real_trial, chunk = harness.run_trial, [None]

        def run_trial(cfg, seed, trial, shared=None):
            chunk[0] = range(trial, trial + 1) if shared is None else shared.trials
            return real_trial(cfg, seed, trial, shared)

        monkeypatch.setattr(harness, "run_trial", run_trial)
        return chunk

    def test_outer_filter_failure_marks_only_its_points(self, monkeypatch):
        # The wide CME filter fails wherever it is built for trial 1: for the
        # chunk of all three trials, then for trial 1 of each of its six
        # points run alone, after that point's trial 0.
        configs = [
            ExperimentConfig(m_t=m, m_r=m, outer=outer, inner=inner, **SHARED_DROP)
            for outer, m in (("cme", 2), ("cme", 4), ("sps", 2))
            for inner in ("met_mer", "met_mmse")
        ]
        clean = run_sweep(*configs, seed=6)
        assert {r.status for r in clean} == {"ok"}
        real_cme, chunk = harness.cme, self._tracking_chunks(monkeypatch)
        wide_calls = []

        def cme_failing_at_trial_1(cov, m_t, m_r):
            if m_t == 4:
                wide_calls.append(chunk[0])  # one filter per chunk, shared by its points
                if 1 in chunk[0]:
                    raise FloatingPointError("eigensolver failed")
            return real_cme(cov, m_t, m_r)

        monkeypatch.setattr(harness, "cme", cme_failing_at_trial_1)
        records = run_sweep(*configs, seed=6)
        for got, want in zip(records, clean):
            if (got.outer, got.m_t) == ("cme", 4):
                assert got.status == "error:floatingpointerror" and got.n_trials == 0
            else:
                assert got == want
        # its points ran no trial after the failure
        assert wide_calls == [range(0, 3)] + [range(0, 1), range(1, 2)] * 6

    def test_drop_failure_marks_every_point_of_the_group(self, monkeypatch):
        configs = [
            ExperimentConfig(m_t=m, m_r=m, outer=outer, inner=inner, **SHARED_DROP)
            for outer, m in (("cme", 2), ("cme", 4), ("sps", 2))
            for inner in ("met_mer", "met_mmse")
        ]
        # Trial 1's draw fails: in the chunk of all three trials, and again
        # for each of the 18 points run alone, after its trial 0.
        code = harness._SCENARIO_CODE[SHARED_DROP["scenario"]]
        states = [
            harness._substream(6, code, SHARED_DROP["n_users"], t, harness._SUBSTREAM_MACRO)
            .bit_generator.state
            for t in range(SHARED_DROP["n_trials"])
        ]
        real_draw, draws = harness.draw_macroscopic, []

        def draw_failing_at_trial_1(scenario, n_users, rng, sigma_c_deg):
            draws.append(states.index(rng.bit_generator.state))
            if draws[-1] == 1:
                raise FloatingPointError("draw_macroscopic failed")
            return real_draw(scenario, n_users, rng, sigma_c_deg)

        monkeypatch.setattr(harness, "draw_macroscopic", draw_failing_at_trial_1)
        records = run_sweep(*configs, seed=6)
        assert len(records) == 18
        for record in records:  # all 18 points read trial 1's draw
            assert record.status == "error:floatingpointerror" and record.n_trials == 0
        assert draws == [0, 1] + [0, 1] * 18  # one draw per trial of each cache, up to the failure

    def test_a_failed_channel_is_built_once_per_chunk(self, monkeypatch):
        # The channel fails for every trial. In the chunk of all three trials it
        # is built once, at the first outer filter, and fails all 18 points of
        # the three outer keys; each point run alone then fails at its trial 0.
        configs = [
            ExperimentConfig(m_t=m, m_r=m, outer=outer, inner=inner, **SHARED_DROP)
            for outer, m in (("cme", 2), ("cme", 4), ("sps", 2))
            for inner in ("met_mer", "met_mmse")
        ]
        trials = []

        def failing_channel(macro, phases, a_t, a_r):
            trials.append(len(phases))  # the phases are stacked over the chunk's trials
            raise FloatingPointError("realize_channel failed")

        monkeypatch.setattr(harness, "realize_channel", failing_channel)
        records = run_sweep(*configs, seed=6)
        assert len(records) == 18
        for record in records:
            assert record.status == "error:floatingpointerror" and record.n_trials == 0
        assert trials == [3] + [1] * 18

    def test_design_failure_marks_only_its_points(self, monkeypatch):
        configs = [
            ExperimentConfig(m_t=4, m_r=4, outer="cme", inner=inner, **SHARED_DROP)
            for inner in harness.INNER_METHODS
        ]
        clean = run_sweep(*configs, seed=6)
        assert {r.status for r in clean} == {"ok"}
        real_design, chunk = harness.met_bd, self._tracking_chunks(monkeypatch)
        designs = []

        def design_failing_at_trial_1(effset, n_s, svd=None):
            designs.append(chunk[0])
            if 1 in chunk[0]:
                raise FloatingPointError("met_bd failed")
            return real_design(effset, n_s, svd)

        monkeypatch.setattr(harness, "met_bd", design_failing_at_trial_1)
        records = run_sweep(*configs, seed=6)
        for got, want in zip(records, clean):
            if got.inner == "met_bd":  # all three SNRs read trial 1's design
                assert got.status == "error:floatingpointerror" and got.n_trials == 0
            else:
                assert got == want
        # one design per cache: the chunk's, then trials 0 and 1 of each SNR point alone
        assert designs == [range(0, 3)] + [range(0, 1), range(1, 2)] * 3

    def test_rate_factors_are_built_once_per_design(self, monkeypatch):
        # Each chunk of trials builds a design's composite precoder F_o F_i
        # once for all its SNRs and trials, and its combiner basis too unless
        # the combiner is MMSE. The SNRs then fit in one chunk of levels, so
        # each chunk of trials scales, combines (MMSE) and evaluates all of a
        # design's SNRs in one call. The group's three trials are one chunk.
        configs = [
            ExperimentConfig(m_t=m, m_r=m, outer=outer, inner=inner, **SHARED_DROP)
            for outer, m in (("cme", 4), ("pps", 2))
            for inner in harness.INNER_METHODS
        ]
        clean = run_sweep(*configs, seed=6)
        assert {r.status for r in clean} == {"ok"}
        calls = Counter()

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in ((harness, "composite_precoder"), (metrics, "_combiner_basis"),
                             (harness, "normalize_gamma"), (harness, "sum_rate")):
            counting(module, name)
        assert run_sweep(*configs, seed=6) == clean
        n_trials, n_snrs = 3, 3
        points = [point for cfg in configs for point in cfg.grid()]
        assert all(harness._chunk_size(point) >= n_snrs for point in points)
        assert harness._trial_chunk(points) >= n_trials
        n_chunks = 1
        assert calls["composite_precoder"] == n_chunks * len(configs)
        assert calls["_combiner_basis"] == n_chunks * len(configs)
        assert calls["normalize_gamma"] == calls["sum_rate"] == n_chunks * len(configs)

    @classmethod
    def _rate_factors_failing(cls, monkeypatch, at_trial):
        """Make the rate factors of met_bd's designs that cover ``at_trial`` raise; None: all.

        Returns, per build of met_bd's rate factors, the trials of its cache.
        """
        real_design, real_composite = harness.met_bd, harness.composite_precoder
        chunk = cls._tracking_chunks(monkeypatch)
        precoders, builds = [], []

        def design(effset, n_s, svd=None):
            filters = real_design(effset, n_s, svd)
            precoders.append(filters.f_i)
            return filters

        def composite(f_o, f_i):
            if precoders and f_i is precoders[-1]:
                builds.append(chunk[0])
                if at_trial is None or at_trial in chunk[0]:
                    raise FloatingPointError("rate factors failed")
            return real_composite(f_o, f_i)

        monkeypatch.setattr(harness, "met_bd", design)
        monkeypatch.setattr(harness, "composite_precoder", composite)
        return builds

    def test_rate_factor_failure_marks_only_its_design_points(self, monkeypatch):
        configs = [
            ExperimentConfig(m_t=4, m_r=4, outer="cme", inner=inner, **SHARED_DROP)
            for inner in harness.INNER_METHODS
        ]
        clean = run_sweep(*configs, seed=6)
        assert {r.status for r in clean} == {"ok"}
        builds = self._rate_factors_failing(monkeypatch, at_trial=1)
        records = run_sweep(*configs, seed=6)
        for got, want in zip(records, clean):
            if got.inner == "met_bd":  # all three SNRs read trial 1's rate factors
                assert got.status == "error:floatingpointerror" and got.n_trials == 0
            else:
                assert got == want
        # one build per cache, the chunk's and then each trial's of each SNR point alone, and
        # no trial after the failure
        assert builds == [range(0, 3)] + [range(0, 1), range(1, 2)] * 3

    def test_a_held_rate_factor_failure_keeps_no_trial_alive(self, monkeypatch):
        # As for a held design failure: the failure that every SNR point of
        # the design reads, and the reruns of its points alone, must not keep
        # the trial's arrays alive.
        points = [
            ExperimentConfig(
                scenario="fair", n_t=32, n_r=32, m_t=8, m_r=8, n_users=8, outer="cme",
                inner=inner, snr_db=snr, n_trials=3, n_slots=20,
            )
            for inner in ("met_mer", "met_bd")
            for snr in (0.0, 10.0, 20.0)
        ]

        def heap_peak():
            gc.disable()
            tracemalloc.start()
            try:
                records = run_point(*points, seed=1)
                return tracemalloc.get_traced_memory()[1], records
            finally:
                tracemalloc.stop()
                gc.enable()

        run_point(*points, seed=1)  # first-call allocations are not the group's
        clean, _ = heap_peak()
        self._rate_factors_failing(monkeypatch, at_trial=None)
        failing, records = heap_peak()
        assert [r.status for r in records] == ["ok"] * 3 + ["error:floatingpointerror"] * 3
        assert failing <= 1.02 * clean

    def test_a_failing_level_of_a_stacked_chunk_keeps_no_trial_alive(self, monkeypatch):
        # The MMSE combiner raises at 10 dB, so the three-level chunk fails
        # the design's rate stage, and its three points run the trial again
        # alone. Neither the failure the stage holds nor the exceptions
        # caught may keep the trial's arrays alive.
        points = [
            ExperimentConfig(
                scenario="fair", n_t=32, n_r=32, m_t=8, m_r=8, n_users=8, outer="cme",
                inner="met_mmse", snr_db=snr, n_trials=3, n_slots=20,
            )
            for snr in (0.0, 10.0, 20.0)
        ]
        assert harness._chunk_size(points[0]) >= len(points)

        def heap_peak():
            gc.disable()
            tracemalloc.start()
            try:
                records = run_point(*points, seed=1)
                return tracemalloc.get_traced_memory()[1], records
            finally:
                tracemalloc.stop()
                gc.enable()

        run_point(*points, seed=1)  # first-call allocations are not the group's
        clean, _ = heap_peak()
        failing_power = snr_to_power(10.0, points[0].sigma_n2)
        real_gamma, real_mmse = harness.normalize_gamma, harness.met_mmse
        powers = []

        def gamma(norm, p_t, n_users):
            powers.append(p_t)
            return real_gamma(norm, p_t, n_users)

        def mmse(*args, **kwargs):
            if np.isclose(powers[-1], failing_power, rtol=1e-12, atol=0.0).any():
                raise SolverError("received-signal covariance is numerically singular")
            return real_mmse(*args, **kwargs)

        monkeypatch.setattr(harness, "normalize_gamma", gamma)
        monkeypatch.setattr(harness, "met_mmse", mmse)
        failing, records = heap_peak()
        assert [r.status for r in records] == ["ok", "error:solvererror", "ok"]
        assert [len(p) for p in powers] == [3, 1, 1, 1, 2, 2]  # the chunk, its levels, trials 1-2
        assert failing <= 1.02 * clean

    def test_a_failing_snr_level_marks_only_its_point(self, monkeypatch):
        # The MMSE combiner raises at 10 dB from trial 1 on, wherever that
        # level's gammas reach it. Only its row fails, with no trial; the
        # other SNRs read as in a clean run. The chunk of all three trials
        # and levels fails for the design, whose points then run alone, trial
        # by trial; no trial after the failure evaluates the level again.
        configs = [ExperimentConfig(m_t=4, m_r=4, outer="cme", inner="met_mmse", **SHARED_DROP)]
        clean = run_sweep(*configs, seed=6)
        assert {r.status for r in clean} == {"ok"}
        n_users, sigma_n2 = SHARED_DROP["n_users"], configs[0].sigma_n2
        failing = np.sqrt(snr_to_power(10.0, sigma_n2) / n_users)
        real_composite, real_mmse = harness.composite_precoder, harness.met_mmse
        chunk, norms, evaluated = self._tracking_chunks(monkeypatch), [], []

        def composite(f_o, f_i):
            f, norm = real_composite(f_o, f_i)
            norms.append(norm)
            return f, norm

        def mmse(effset, gammas, *args, **kwargs):
            # gamma = sqrt(P_t / U) / ||F_o F_i||: a row of gammas times the norms is its level's
            levels = np.asarray(gammas) * norms[-1]  # (levels, trials, users)
            hit = np.isclose(levels, failing, rtol=1e-9, atol=0.0).all(axis=-1).any(axis=0)
            evaluated.append((chunk[0], [t for t, h in zip(chunk[0], hit) if h]))
            if max(evaluated[-1][1], default=0) >= 1:
                raise SolverError("received-signal covariance is numerically singular")
            return real_mmse(effset, gammas, *args, **kwargs)

        monkeypatch.setattr(harness, "composite_precoder", composite)
        monkeypatch.setattr(harness, "met_mmse", mmse)
        records = run_sweep(*configs, seed=6)
        for got, want in zip(records, clean):
            if got.snr_db == 10.0:
                assert got.status == "error:solvererror" and got.n_trials == 0
            else:
                assert got == want
        # the chunk's three levels, then -5 dB alone in each trial, 10 dB alone in
        # trials 0 and 1, and 25 dB alone in each trial
        lone = [(range(t, t + 1), []) for t in range(3)]
        assert evaluated == (
            [(range(0, 3), [0, 1, 2])] + lone + [(range(0, 1), [0]), (range(1, 2), [1])] + lone
        )

    def test_width_free_outer_work_is_built_once_per_chunk(self, monkeypatch):
        # Each chunk of trials decomposes each side's covariances once for
        # both CME widths, and runs one selection order per method, trial,
        # user and side, as deep as the widest width; each width still
        # builds its filters once per chunk. The group's three trials are
        # one chunk.
        configs = [
            ExperimentConfig(m_t=m, m_r=m, outer=method, inner=inner, **SHARED_DROP)
            for method in ("cme", "pps", "sps")
            for m in (2, 4)
            for inner in ("met_mer", "met_bd")
        ]
        clean = run_sweep(*configs, seed=6)
        assert {r.status for r in clean} == {"ok"}
        calls = Counter()
        depths = []

        def counting(module, name, record=None):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                if record is not None:
                    record.append(args[-1])
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(np.linalg, "eigh")
        counting(outer, "sps_order", depths)
        counting(outer, "pps_indices")
        for name in ("draw_macroscopic", "cme", "path_outer_filters"):
            counting(harness, name)
        assert run_sweep(*configs, seed=6) == clean
        n_trials, n_users, sides = 3, 2, 2
        points = [point for cfg in configs for point in cfg.grid()]
        assert harness._trial_chunk(points) >= n_trials
        n_chunks = 1
        assert calls["eigh"] == n_chunks * sides
        assert calls["sps_order"] == calls["pps_indices"] == n_trials * n_users * sides
        assert depths == [4] * len(depths)  # the widest width, never L = 32
        assert calls["draw_macroscopic"] == n_trials  # no build read a spent drop
        assert calls["cme"] == n_chunks * 2 and calls["path_outer_filters"] == n_chunks * 4

        depths.clear()
        [narrow] = run_point(replace(configs[-1], m_t=2, m_r=2, snr_db=10.0), seed=6)
        assert narrow.status == "ok"
        assert depths == [2] * n_trials * n_users * sides  # a lone point's own width

    @pytest.mark.parametrize("name, method", [("path_columns", "sps"), ("cme_basis", "cme")])
    def test_a_width_free_failure_marks_only_its_methods_points(self, monkeypatch, name, method):
        # The method's width-free build fails wherever it covers trial 1:
        # for the chunk of all three trials, which then fails all 36 points,
        # and for trial 1 of each of the method's 12 points run alone, after
        # that point's trial 0. Its rows become error rows with no trial;
        # every other point runs its three trials alone and reads as in a
        # clean run. Each chunk draws each of its trials once. In the clean
        # chunk the drops are gone by the time CME's filters, which run
        # last, are built, and the failed chunk's drops are gone before any
        # point runs alone.
        configs = [
            ExperimentConfig(m_t=m, m_r=m, outer=outer, inner=inner, **SHARED_DROP)
            for outer in ("cme", "pps", "sps")
            for m in (2, 4)
            for inner in ("met_mer", "met_bd")
        ]
        chunk = self._tracking_chunks(monkeypatch)
        drops, drop_alive_at_cme, drop_alive_alone = [], [], []
        real_csi, real_cme = harness.extract_partial_csi, harness.cme

        def csi(macro, *args):  # the drops of a chunk, stacked
            if drops and chunk[0] != range(0, 3):
                drop_alive_alone.append(drops[0][1]() is not None)
            drops.append((chunk[0], weakref.ref(macro)))
            return real_csi(macro, *args)

        def cme(*args):
            trials, drop = drops[-1]
            if trials == chunk[0] == range(0, 3):
                drop_alive_at_cme.append(drop() is not None)
            return real_cme(*args)

        monkeypatch.setattr(harness, "extract_partial_csi", csi)
        monkeypatch.setattr(harness, "cme", cme)
        clean = run_sweep(*configs, seed=6)
        assert {r.status for r in clean} == {"ok"}
        assert len(drop_alive_at_cme) == 2 and not any(drop_alive_at_cme)
        drops.clear()
        real_build, builds = getattr(harness, name), []

        def build_failing_at_trial_1(*args):
            if name == "cme_basis" or args[-1] == method:
                builds.append(chunk[0])
                if 1 in chunk[0]:
                    raise FloatingPointError(f"{name} failed")
            return real_build(*args)

        monkeypatch.setattr(harness, name, build_failing_at_trial_1)
        gc.disable()
        try:
            records = run_sweep(*configs, seed=6)
        finally:
            gc.enable()
        for got, want in zip(records, clean):
            if got.outer == method:
                assert got.status == "error:floatingpointerror" and got.n_trials == 0
            else:
                assert got == want
        # one build per chunk, the group's and then each trial's of each of the method's points
        # alone, and none after the failure
        assert builds == [range(0, 3)] + [range(0, 1), range(1, 2)] * 12
        alone = [
            range(t, t + 1) for record in records for t in range(2 if record.outer == method else 3)
        ]
        assert [trials for trials, _ in drops] == [range(0, 3)] + alone
        assert len(drop_alive_alone) == len(alone) and not any(drop_alive_alone)

    def test_a_short_selection_order_fails_only_the_wider_widths(self, monkeypatch):
        # Zero angle spread repeats each cluster's steering vector: the
        # group's one SPS order per trial runs out of independent paths, and
        # exactly the widths beyond its length become error rows, as each
        # width alone does.
        configs = [
            ExperimentConfig(
                scenario="fair", n_t=16, n_r=16, m_t=m, m_r=m, outer=outer, sigma_c_deg=0.0,
                n_trials=3, n_slots=10, snr_db=[0.0, 20.0],
            )
            for outer in ("cme", "sps")
            for m in (4, 8, 16)
        ]
        points = [point for cfg in configs for point in cfg.grid()]
        alone = [record for point in points for record in run_point(point, seed=2)]
        real_columns, lengths = harness.path_columns, []

        def path_columns(*args):
            columns = real_columns(*args)
            lengths.append([side.shape[-1] for side in columns])
            return columns

        monkeypatch.setattr(harness, "path_columns", path_columns)
        records = run_sweep(*configs, seed=2)
        assert records == alone
        shortest = min(lengths[0])  # the group's own order; its points alone take narrower ones
        for record in records:
            if record.outer == "sps" and record.m_t > shortest:
                assert record.status == "error:rankdeficiencyerror" and record.n_trials == 0
            else:
                assert record.status == "ok"
        assert {r.status for r in records} == {"ok", "error:rankdeficiencyerror"}

    def test_run_point_rejects_points_of_different_drops(self):
        for other in ({"n_users": 2}, {"n_trials": 4}, {"layers": 1, "outer": "none"}):
            with pytest.raises(ConfigError):
                run_point(SMALL, replace(SMALL, **other), seed=0)
        with pytest.raises(ConfigError):
            run_point(SMALL, replace(SMALL, seed=1))  # each point's own seed
        assert len(run_point(SMALL, replace(SMALL, seed=1), seed=0)) == 2


def _decomposed_shapes(monkeypatch, name):
    """The shapes of the stacks ``np.linalg.<name>`` decomposes from now on, as a growing list."""
    shapes, real = [], getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return shapes


class TestFactorizations:
    """The paper's complexity claim without a clock: the matrices each layer count decomposes.

    The inner designs of one outer filter (at one layer, of the full
    channel) read one SVD of its serving channels per chunk of trials,
    whatever their scheme and stream count. At one layer that is the
    (T, U, 64, 64) stack; at two, no decomposition has more than M singular
    values. At one layer the MMSE stage still LU-solves its 64 x 64
    covariances, but its condition guard decomposes none of them: their
    bounds certify them. It forms them with matrix products, not einsum.
    """

    N_TRIALS = 3

    def _svd_shapes(self, monkeypatch, points):
        """The shape of every matrix stack np.linalg.svd decomposes while the points run."""
        shapes = _decomposed_shapes(monkeypatch, "svd")
        records = run_point(*points, seed=1)
        assert {r.status for r in records} == {"ok"}
        return shapes

    def _bench_group(self, layers, inners=("met_mmse",)):
        """bench_met_mmse's points of one layer count, N_s in {1, 2}, under each inner scheme."""
        points = [
            replace(cfg, inner=inner, n_trials=self.N_TRIALS)
            for cfg in preset_configs("bench_met_mmse") if cfg.layers == layers
            for inner in inners
        ]
        assert sorted({cfg.n_s for cfg in points}) == [1, 2]
        return points

    @pytest.mark.parametrize("layers", [1, 2])
    def test_a_layer_count_factors_its_serving_stack_once_per_chunk(self, monkeypatch, layers):
        # One layer stacks one trial per chunk, so its three trials make three
        # (1, 2, 64, 64) stacks; two layers stack all three trials in one.
        points = self._bench_group(layers)
        size = harness._trial_chunk(points)
        assert size == {1: 1, 2: 10}[layers]
        shapes = self._svd_shapes(monkeypatch, points)
        m_t, m_r = points[0].effective_dims()
        serving = (min(size, self.N_TRIALS), points[0].n_users, m_r, m_t)
        assert shapes.count(serving) == -(-self.N_TRIALS // size)  # one per chunk
        if layers == 1:
            assert serving == (1, 2, 64, 64)
        else:
            assert serving == (3, 2, 4, 4)
            assert max(min(shape[-2:]) for shape in shapes) <= min(m_t, m_r) == 4

    @pytest.mark.parametrize("layers", [1, 2])
    def test_the_mmse_guard_decomposes_no_covariance(self, monkeypatch, layers):
        points = self._bench_group(layers)
        shapes = _decomposed_shapes(monkeypatch, "eigvalsh")
        assert {r.status for r in run_point(*points, seed=1)} == {"ok"}
        assert shapes == []

    @pytest.mark.parametrize("layers", [1, 2])
    def test_the_mmse_covariances_take_no_einsum(self, monkeypatch, layers):
        # The tracer sees only the linalg calls; an einsum over users and
        # streams would form R_yy in one generic loop that it cannot count.
        points = self._bench_group(layers)
        calls, real_einsum = [], np.einsum

        def spy(*operands, **kwargs):
            calls.append(operands[0])
            return real_einsum(*operands, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        assert {r.status for r in run_point(*points, seed=1)} == {"ok"}
        assert calls == []

    @pytest.mark.parametrize("layers", [1, 2])
    def test_only_two_stream_combiners_take_an_svd(self, monkeypatch, layers):
        # A one-stream combiner's basis is its normalization; at N_s = 2 the
        # MMSE combiners (levels, trials, U, N_r, 2) still take the SVD.
        points = self._bench_group(layers)
        shapes = self._svd_shapes(monkeypatch, points)
        size = min(harness._trial_chunk(points), self.N_TRIALS)
        combiners = [shape for shape in shapes if shape[-2:] in ((64, 1), (64, 2))]
        assert combiners == [(1, size, 2, 64, 2)] * -(-self.N_TRIALS // size)

    def test_every_inner_scheme_of_an_outer_filter_reads_one_serving_svd(self, monkeypatch):
        points = self._bench_group(2, harness.INNER_METHODS)
        assert harness._trial_chunk(points) >= self.N_TRIALS  # one chunk
        shapes = self._svd_shapes(monkeypatch, points)
        assert len({harness._stage_keys(cfg)[0] for cfg in points}) == 1
        assert shapes.count((3, 2, 4, 4)) == 1  # the BD projectors' stacks are thinner


class TestFeasibilityHandling:
    def test_bd_infeasible_point_is_flagged(self):
        cfg = replace(SMALL, inner="met_bd", n_users=4)  # 4 > m_r = 2
        [record] = run_point(cfg, seed=0)
        assert record.status == "infeasible"
        assert record.mean_rate is None and record.n_trials == 0

    def test_congestion_sweep_marks_only_oversubscribed_rows(self, monkeypatch):
        # Feasibility follows from shapes alone and is decided before any
        # stage: an infeasible design is never called, and each feasible one
        # runs once, in its chunk of both trials.
        configs = [
            replace(SMALL, inner=inner, m_t=4, m_r=4, n_users=[2, 4, 5, 8], n_trials=2)
            for inner in ("met_mer", "met_bd", "bd_mer")
        ]
        real_trial, trials, designs = harness.run_trial, [], {}

        def tracking_trial(cfg, seed, trial, shared=None):
            trials.append(range(trial, trial + 1) if shared is None else shared.trials)
            return real_trial(cfg, seed, trial, shared)

        def counting(name):
            real_design = getattr(harness, name)

            def design(effset, n_s, svd=None):
                designs.setdefault((name, effset.n_users), []).append(trials[-1])
                return real_design(effset, n_s, svd)

            monkeypatch.setattr(harness, name, design)

        monkeypatch.setattr(harness, "run_trial", tracking_trial)
        counting("met_bd")
        counting("bd_mer")
        records = run_sweep(*configs, seed=0)
        bd_statuses = ["ok", "ok", "infeasible", "infeasible"]
        assert [r.status for r in records] == ["ok"] * 4 + bd_statuses * 2
        for record in records[4:]:
            infeasible = record.n_users * record.n_streams > 4
            assert (record.status == "infeasible") == infeasible
            assert record.n_trials == (0 if infeasible else 2)
            calls = designs.get((record.inner, record.n_users))
            assert calls == (None if infeasible else [range(0, 2)])

    def test_an_infeasible_row_is_decided_before_any_stage(self, monkeypatch):
        # The drop fails for every point that draws it, but an infeasible
        # point reads infeasible: it never reaches a chunk.
        def failing_draw(*args, **kwargs):
            raise FloatingPointError("drop failed")

        monkeypatch.setattr(harness, "draw_macroscopic", failing_draw)
        infeasible = replace(SMALL, inner="met_bd", n_users=4)  # 4 > m_r = 2
        records = run_point(infeasible, replace(infeasible, inner="met_mer"), seed=0)
        assert [r.status for r in records] == ["infeasible", "error:floatingpointerror"]
        assert all(r.n_trials == 0 and r.mean_rate is None for r in records)

    def test_an_infeasible_group_builds_no_stage(self, monkeypatch):
        # One drop group, every point of it infeasible (5 * 1 and 5 * 2 streams > M = 4).
        configs = [
            replace(SMALL, inner=inner, m_t=4, m_r=4, n_s=n_s, n_users=5, snr_db=[0.0, 20.0])
            for inner, n_s in (("met_bd", 1), ("bd_mer", 2))
        ]
        calls = []

        def draw(*args, **kwargs):
            calls.append(args)
            raise AssertionError("an infeasible point drew its drop")

        monkeypatch.setattr(harness, "draw_macroscopic", draw)
        records = run_sweep(*configs, seed=0)
        assert len(records) == 4
        assert all(r.status == "infeasible" and r.n_trials == 0 for r in records)
        assert calls == []

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("inner", ["met_bd", "bd_mer"])
    def test_the_boundary_is_one_rule_for_the_harness_and_the_designs(self, inner, layers):
        # MET-BD serves U * N_s <= M_r and BD-MER U * N_s <= M_t. The other
        # side is narrower than U * N_s, so only the design's own side
        # decides: U = M reads ok and U = M + 1 infeasible, in a row and
        # when the design is called on effective channels of that shape.
        design = harness.met_bd if inner == "met_bd" else harness.bd_mer
        wide, narrow = 3, 2
        m_t, m_r = (narrow, wide) if inner == "met_bd" else (wide, narrow)
        if layers == 1:
            dims = dict(layers=1, outer="none", n_t=m_t, n_r=m_r)
        else:
            dims = dict(m_t=m_t, m_r=m_r)
        rng = np.random.default_rng(5)
        for n_users, status in ((wide, "ok"), (wide + 1, "infeasible")):
            [record] = run_point(replace(SMALL, **dims, inner=inner, n_users=n_users), seed=0)
            assert record.status == status
            shape = (n_users, n_users, m_r, m_t)
            effset = EffectiveChannelSet(
                h_eff=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                w_o_gram=np.broadcast_to(np.eye(m_r), (n_users, m_r, m_r)),
            )
            if status == "ok":
                assert design(effset, 1).f_i.shape == (n_users, m_t, 1)
            else:
                with pytest.raises(InfeasibleError):
                    design(effset, 1)

    def test_single_layer_uses_array_dimensions_for_feasibility(self):
        cfg = replace(SMALL, layers=1, outer="none", inner="met_bd", n_users=8, n_trials=1)
        [record] = run_point(cfg, seed=0)
        assert record.status == "ok"  # 8 * 1 <= n_r = 8


class TestErrorRows:
    def test_failed_point_becomes_error_row(self, monkeypatch):
        class FlakySolve(RuntimeError):
            pass

        real_trial = harness.run_trial

        def flaky_trial(cfg, seed, trial, drop=None):
            if cfg.snr_db == 10.0:
                raise FlakySolve("singular system")
            return real_trial(cfg, seed, trial, drop)

        monkeypatch.setattr(harness, "run_trial", flaky_trial)
        records = run_sweep(replace(SMALL, snr_db=[0.0, 10.0, 20.0]), seed=2)
        rows = list(csv.DictReader(io.StringIO(emit_csv(records))))
        assert [row["status"] for row in rows] == ["ok", "error:flakysolve", "ok"]
        assert rows[1] == {
            "outer": "cme", "inner": "met_mer", "layers": "2", "scenario": "poor",
            "snr_db": "10", "n_users": "1", "n_streams": "1", "m_t": "2", "m_r": "2",
            "n_trials": "0", "mean_rate": "", "stderr": "", "status": "error:flakysolve",
        }
        for row in (rows[0], rows[2]):
            assert row["n_trials"] == "3" and float(row["mean_rate"]) > 0.0

    def test_singular_mmse_covariance_becomes_solver_error_row(self, monkeypatch):
        # 32 users through 16 power-dominant paths each at fair scattering:
        # some user's MMSE covariance is numerically singular (cond ~ 6e17).
        # Its bounds cannot certify it, so the guard takes its eigenvalues.
        cfg = ExperimentConfig(
            scenario="fair", m_t=16, m_r=16, n_s=1, n_users=32, snr_db=20.0,
            outer="pps", inner="met_mmse", n_trials=2,
        )
        shapes = _decomposed_shapes(monkeypatch, "eigvalsh")
        [record] = run_sweep(cfg, seed=1)
        assert shapes and all(shape[-2:] == (16, 16) for shape in shapes)
        assert record.status == "error:solvererror"
        assert record.n_trials == 0 and record.mean_rate is None

    @pytest.mark.parametrize("layers", [1, 2])
    def test_a_nan_combiner_becomes_a_linalgerror_row(self, monkeypatch, layers):
        # A NaN one-stream combiner fails in the SVD of its basis, as every
        # combiner did before one-column bases became normalizations.
        real_met_mer = harness.met_mer

        def nan_combiner(svd, n_s):
            inners = real_met_mer(svd, n_s)
            w_i = inners.w_i.copy()
            w_i[..., 0, 1, 0] = np.nan
            return replace(inners, w_i=w_i)

        monkeypatch.setattr(harness, "met_mer", nan_combiner)
        cfg = replace(SMALL, n_users=2, snr_db=[0.0, 20.0])
        if layers == 1:
            cfg = replace(cfg, layers=1, outer="none")
        records = run_sweep(cfg, seed=3)
        assert [r.status for r in records] == ["error:linalgerror"] * 2
        assert all(r.n_trials == 0 and r.mean_rate is None for r in records)

    def test_a_held_failure_keeps_no_trial_alive(self, monkeypatch):
        # The cache holds a failed design's row status for the points that
        # share it; no exception caught may hold the trial's arrays (through
        # its frames, the cache) until the cyclic GC happens to run.
        points = [
            ExperimentConfig(
                scenario="fair", n_t=32, n_r=32, m_t=8, m_r=8, n_users=8, outer="cme",
                inner=inner, n_trials=3, n_slots=20,
            )
            for inner in ("met_mer", "met_bd")
        ]

        def heap_peak():
            gc.disable()
            tracemalloc.start()
            try:
                records = run_point(*points, seed=1)
                return tracemalloc.get_traced_memory()[1], records
            finally:
                tracemalloc.stop()
                gc.enable()

        run_point(*points, seed=1)  # first-call allocations are not the group's
        clean, _ = heap_peak()

        def failing_design(effset, n_s, svd=None):
            raise FloatingPointError("design failed")

        monkeypatch.setattr(harness, "met_bd", failing_design)
        failing, records = heap_peak()
        assert [r.status for r in records] == ["ok", "error:floatingpointerror"]
        assert failing <= 1.02 * clean

    def test_a_chunk_holds_rates_not_exceptions(self, monkeypatch):
        # The wide CME filter, a stage its six points share, fails; so does
        # MET-MMSE at 10 dB, which fails its design's stacked levels. A chunk
        # that fails raises and holds nothing; every other chunk, here those
        # of the points run alone, holds each of its points' rates, never a
        # status or an exception.
        configs = [
            ExperimentConfig(m_t=m, m_r=m, outer="cme", inner=inner, **SHARED_DROP)
            for m in (2, 4)
            for inner in ("met_mer", "met_mmse")
        ]
        failing_power = snr_to_power(10.0, configs[0].sigma_n2)
        real_cme, real_gamma, real_mmse = harness.cme, harness.normalize_gamma, harness.met_mmse
        real_chunk = harness._run_chunk
        powers, held = [], []

        def cme(work, m_t, m_r):
            if m_t == 4:
                raise FloatingPointError("eigensolver failed")
            return real_cme(work, m_t, m_r)

        def gamma(norm, p_t, n_users):
            powers.append(p_t)
            return real_gamma(norm, p_t, n_users)

        def mmse(*args, **kwargs):
            if np.isclose(powers[-1], failing_power, rtol=1e-12, atol=0.0).any():
                raise SolverError("received-signal covariance is numerically singular")
            return real_mmse(*args, **kwargs)

        def run_chunk(*args, **kwargs):
            results = real_chunk(*args, **kwargs)
            held.append(results)
            return results

        for name, spy in (("cme", cme), ("normalize_gamma", gamma), ("met_mmse", mmse),
                          ("_run_chunk", run_chunk)):
            monkeypatch.setattr(harness, name, spy)
        records = run_sweep(*configs, seed=6)
        assert [(r.m_t, r.inner, r.snr_db, r.status) for r in records] == [
            (2, "met_mer", snr, "ok") for snr in SHARED_DROP["snr_db"]
        ] + [
            (2, "met_mmse", snr, "error:solvererror" if snr == 10.0 else "ok")
            for snr in SHARED_DROP["snr_db"]
        ] + [
            (4, inner, snr, "error:floatingpointerror")
            for inner in ("met_mer", "met_mmse") for snr in SHARED_DROP["snr_db"]
        ]

        def leaves(value):
            if isinstance(value, (tuple, list)):
                return [leaf for item in value for leaf in leaves(item)]
            if isinstance(value, dict):
                return leaves(list(value.items()))
            return [value]

        values = [value for results in held for value in results.values()]
        assert values and all(type(rate) is float for value in values for rate in value)
        assert not any(isinstance(leaf, BaseException) for leaf in leaves(held))


def _row_stats(row):
    """One row's mean and standard error, each from its own reduction: the slow, obvious oracle."""
    stderr = float(row.std(ddof=1) / np.sqrt(row.size)) if row.size > 1 else None
    return float(row.mean()), stderr


class TestTrialStatistics:
    """run_point reduces all ok rows of a group at once; each row reads its own reduction's bits."""

    @pytest.mark.parametrize("n_trials", [1, 2, 7, 1000])
    def test_group_reduction_equals_each_rows_own(self, n_trials):
        rng = np.random.default_rng(n_trials)
        # Magnitudes from 1e-6 to 1e8 in one row, so the order of summation shows in the bits.
        rates = rng.exponential(size=(5, n_trials)) * 10.0 ** rng.integers(-6, 9, size=(5, n_trials))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stats = harness._trial_stats(rates)
        assert len(stats) == 5
        for row, (mean, stderr) in zip(rates, stats):
            want_mean, want_stderr = _row_stats(row)
            assert type(mean) is float and mean.hex() == want_mean.hex()
            if n_trials == 1:
                assert stderr is None and want_stderr is None
            else:
                assert type(stderr) is float and stderr.hex() == want_stderr.hex()

    def test_no_rows(self):
        assert harness._trial_stats(np.empty((0, 3))) == []

    def test_failed_rows_are_not_reduced(self, monkeypatch):
        # A failed row's slots after its failing trial were never written; here
        # they hold inf and NaN, whose reduction would warn (an error here).
        points = [replace(SMALL, snr_db=snr, n_trials=7) for snr in (0.0, 10.0, 20.0, 30.0)]
        ran = np.random.default_rng(4).exponential(size=(4, 7))

        def fake_chunks(points, seed, trials, size, rates, statuses):
            rates[:] = ran
            rates[1, 3:] = [np.inf, -np.inf, np.nan, np.inf]
            statuses[1] = "error:solvererror"
            rates[3, :] = np.nan  # failed at its first trial
            statuses[3] = "infeasible"

        monkeypatch.setattr(harness, "_run_chunks", fake_chunks)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            records = run_point(*points, seed=0)
        assert [r.status for r in records] == ["ok", "error:solvererror", "ok", "infeasible"]
        for i in (0, 2):
            assert records[i].n_trials == 7
            assert (records[i].mean_rate, records[i].stderr) == _row_stats(ran[i])
        for i in (1, 3):
            assert (records[i].n_trials, records[i].mean_rate, records[i].stderr) == (0, None, None)

    def test_one_trial_has_no_standard_error(self):
        records = run_sweep(replace(SMALL, n_trials=1, snr_db=[0.0, 10.0]), seed=0)
        assert all(r.status == "ok" and r.n_trials == 1 and r.stderr is None for r in records)
        rows = list(csv.DictReader(io.StringIO(emit_csv(records))))
        assert [row["stderr"] for row in rows] == ["", ""]
        assert all(float(row["mean_rate"]) > 0.0 for row in rows)


class TestCsvEmission:
    def test_single_record_two_lines(self):
        text = emit_csv(run_point(replace(SMALL, n_trials=1), seed=1))
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("outer,inner,layers,scenario,snr_db")
        assert lines[0].split(",") == [f.name for f in fields(RateRecord)]

    def test_infeasible_row_has_empty_rate(self):
        [record] = run_point(replace(SMALL, inner="met_bd", n_users=4), seed=0)
        row = emit_csv([record]).strip().split("\n")[1]
        fields = row.split(",")
        assert fields[-1] == "infeasible"
        assert fields[-2] == "" and fields[-3] == ""

    def test_single_trial_row_has_empty_stderr(self):
        # One sample has no standard error; the field is left empty, not 0.
        [record] = run_point(replace(SMALL, n_trials=1), seed=1)
        assert record.stderr is None
        row = next(csv.DictReader(io.StringIO(emit_csv([record]))))
        assert row["status"] == "ok" and row["n_trials"] == "1"
        assert float(row["mean_rate"]) > 0.0
        assert row["stderr"] == ""

    def test_round_trip_parse(self):
        records = run_sweep(replace(SMALL, snr_db=[0.0, 10.0]), seed=2)
        parsed = list(csv.DictReader(io.StringIO(emit_csv(records))))
        assert len(parsed) == len(records)
        for row, record in zip(parsed, records):
            assert row["scenario"] == record.scenario
            assert int(row["n_users"]) == record.n_users
            assert float(row["snr_db"]) == record.snr_db
            assert float(row["mean_rate"]) == pytest.approx(record.mean_rate, rel=1e-5)
            assert float(row["stderr"]) == pytest.approx(record.stderr, rel=1e-5, abs=1e-12)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            emit_csv([])


class TestConfigFile:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "scenario: poor\n"
            "n_t: 8\nn_r: 8\nm_t: 2\nm_r: 2\nn_s: 1\n"
            "n_users: [1, 2]\nsnr_db: [0, 10]\n"
            "outer: cme\ninner: met_mer\nn_trials: 2\nn_slots: 5\nseed: 11\n"
        )
        cfg = load_config(str(path))
        assert cfg.seed == 11
        assert len(cfg.grid()) == 4

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario: poor\nbandwidth: 100\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_keys_of_mixed_types_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("1: 2\nbandwidth: 100\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_yaml_syntax_error_is_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("scenario: [poor\nn_t: 8\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_shipped_example_config_loads(self):
        # README points users to this file.
        cfg = load_config(str(ROOT / "demos" / "snr_sweep.yaml"))
        assert len(cfg.grid()) == 9

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- poor\n- fair\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestPresets:
    def test_all_presets_validate(self):
        for name in PRESETS:
            configs = preset_configs(name)
            assert configs
            for cfg in configs:
                cfg.validate()

    def test_outer_presets_tie_streams_to_filter_width(self):
        for cfg in preset_configs("outer_fair"):
            assert cfg.m_t == cfg.n_s == cfg.m_r
            assert cfg.n_users == 1

    def test_bench_presets_pair_layer_counts(self):
        layers = [cfg.layers for cfg in preset_configs("bench_met_mmse")]
        assert sorted(set(layers)) == [1, 2]

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_configs("outer_swamp")


class TestCli:
    def _write_config(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "scenario: poor\nn_t: 8\nn_r: 8\nm_t: 2\nm_r: 2\nn_s: 1\n"
            "n_users: 1\nsnr_db: [0, 10]\nouter: cme\ninner: met_mer\n"
            "n_trials: 2\nn_slots: 5\nseed: 4\n"
        )
        return path

    def test_run_writes_deterministic_csv(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b), "--workers", "2"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_run_trials_override(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "t.csv"
        assert main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert all(row["n_trials"] == "1" for row in rows)

    def test_run_requires_exactly_one_source(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert main(["run"]) == 2
        assert main(["run", "--config", str(cfg), "--preset", "outer_poor"]) == 2

    def test_run_unknown_preset_is_config_error(self):
        assert main(["run", "--preset", "outer_swamp"]) == 2

    def test_run_negative_seed_is_config_error(self):
        assert main(["run", "--preset", "outer_poor", "--seed", "-1"]) == 2

    def test_run_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.yaml")]) == 2

    def test_unwritable_output_is_runtime_error(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "no_dir" / "x.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3

    @pytest.mark.parametrize("target", ["missing_dir/x.csv", "."])
    def test_unwritable_output_fails_before_any_point_runs(self, monkeypatch, tmp_path, target):
        calls = []
        monkeypatch.setattr(harness, "run_point", lambda *points, seed=None: calls.append(points))
        out = tmp_path / target
        assert main(["run", "--preset", "outer_poor", "--out", str(out)]) == 3
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["x.csv", "missing_dir/x.csv"])
    @pytest.mark.parametrize("override", [["--trials", "0"], ["--seed", "-1"]])
    def test_invalid_override_fails_before_any_point_runs(
        self, monkeypatch, tmp_path, override, target
    ):
        # A config error wins over an unwritable --out, as for a bad config file.
        calls = []
        monkeypatch.setattr(harness, "run_point", lambda *points, seed=None: calls.append(points))
        out = tmp_path / target
        assert main(["run", "--preset", "outer_poor", *override, "--out", str(out)]) == 2
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_seed_override_replaces_the_config_seed(self, tmp_path):
        cfg = self._write_config(tmp_path)  # seed: 4
        out = tmp_path / "s.csv"
        assert main(["run", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == emit_csv(run_sweep(load_config(str(cfg)), seed=7)).encode()
        assert out.read_bytes() != emit_csv(run_sweep(load_config(str(cfg)))).encode()

    def test_validate_good_and_bad(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: urban\n")
        assert main(["validate", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "entry",
        [
            "snr_db: abc", "n_t: '64'", "seed: true", "n_users: 2.5",
            "sigma_n2: .inf", "sigma_n2: .nan", "sigma_c_deg: .inf", "sigma_c_deg: .nan",
            pytest.param("snr_db: " + "1" * 400, id="snr_db: 400 digits"),
        ],
    )
    def test_mistyped_value_is_config_error(self, tmp_path, command, entry):
        cfg = self._write_config(tmp_path)
        key = entry.split(":")[0]
        lines = [l for l in cfg.read_text().splitlines() if not l.startswith(f"{key}:")]
        cfg.write_text("\n".join([*lines, entry]) + "\n")
        out = tmp_path / "out.csv"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(cfg), *extra]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "content", [b"\xff\xfescenario: poor\n", b"scenario: [poor\n"], ids=["not_utf8", "bad_yaml"]
    )
    def test_unreadable_config_is_config_error(self, tmp_path, command, content):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_bytes(content)
        out = tmp_path / "out.csv"
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, "--config", str(cfg), *extra]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_run_workers_below_one_is_config_error(self, tmp_path, workers):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg), "--workers", workers, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "source",
        [["--preset", "bench_met_mmse"], ["--config", "perfbench/congested_cell.yaml"]],
    )
    def test_csv_identical_across_blas_thread_counts(self, source):
        # The stacked GEMMs are large enough for a threaded BLAS to split.
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(ROOT / "src")}
            done = subprocess.run(
                [sys.executable, "-m", "dsmimo", "run", *source, "--trials", "3"],
                cwd=ROOT, env=env, capture_output=True, check=True, timeout=300,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b",ok\n") >= 1

    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out
