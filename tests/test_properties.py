"""Property tests over small random configurations."""

import csv
import io
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsmimo import (
    SCENARIOS,
    ExperimentConfig,
    FactoredChannel,
    LinkFilters,
    RankDeficiencyError,
    SolverError,
    run_trial,
    run_point,
    snr_to_power,
    sum_rate,
)
from dsmimo import harness
from dsmimo.cli import main


@st.composite
def _configs(draw, inner, layers):
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    n_t = draw(st.integers(4, 16))
    n_r = draw(st.integers(4, 16))
    n_users = draw(st.integers(1, 4))
    if layers == 1:
        outer, m_t, m_r = "none", n_t, n_r
    else:
        outer = draw(st.sampled_from(["cme", "pps", "sps"]))
        n_paths = SCENARIOS[scenario][1] if outer != "cme" else max(n_t, n_r)
        m_t = draw(st.integers(1, min(n_t, n_paths)))
        m_r = draw(st.integers(1, min(n_r, n_paths)))
    n_s = draw(st.integers(1, min(m_t, m_r)))
    if inner == "met_bd":
        assume(n_users * n_s <= m_r)
    if inner == "bd_mer":
        assume(n_users * n_s <= m_t)
    return ExperimentConfig(
        scenario=scenario, n_t=n_t, n_r=n_r, m_t=m_t, m_r=m_r, n_s=n_s,
        n_users=n_users, snr_db=draw(st.sampled_from([-10.0, 0.0, 20.0])),
        outer=outer, inner=inner, layers=layers, n_slots=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**16)),
    )


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("inner", ["met_mer", "met_bd", "met_mmse", "bd_mer"])
def test_every_composite_precoder_meets_its_power_budget(inner, layers):
    """||gamma_u F_o,u F_i,u||_F^2 = P_t / U for every user of a trial."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(cfg=_configs(inner, layers))
    def check(cfg):
        captured = []
        original = harness.sum_rate

        def spy(channels, filters, sigma_n2, n_s):
            captured.append(np.asarray(filters.f))
            return original(channels, filters, sigma_n2, n_s)

        with mock.patch.object(harness, "sum_rate", spy):
            try:
                run_trial(cfg, cfg.seed, 0)
            except (RankDeficiencyError, SolverError):
                assume(False)  # no rate: SPS ran out of paths or R_yy is singular
        budget = snr_to_power(cfg.snr_db, cfg.sigma_n2) / cfg.n_users
        powers = np.sum(np.abs(captured[0]) ** 2, axis=(-2, -1))  # one level, one trial, U users
        assert powers.shape == (1, 1, cfg.n_users)
        np.testing.assert_allclose(powers, budget, rtol=1e-12, atol=0.0)

    check()


# Values of the wrong type or range for most config fields.
_JUNK = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.lists(st.one_of(st.integers(-2, 3), st.text(max_size=2), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 3), max_size=2),
    st.integers(-5, 0),
    st.just(10**400),  # an int that numpy holds as an object
    st.floats(-10.0, -0.1),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)


def _axis(values):
    """A sweep axis: one value or a short list of them."""
    return st.one_of(values, st.lists(values, min_size=1, max_size=3))


@st.composite
def _config_files(draw):
    """A flat config mapping: mostly small legal values, a few replaced by junk."""
    layers = draw(st.sampled_from([1, 2, 2]))
    n_t, n_r = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    data = {
        "scenario": draw(st.sampled_from(sorted(SCENARIOS))),
        "n_t": n_t,
        "n_r": n_r,
        "m_t": draw(st.integers(1, min(n_t, 4))),
        "m_r": draw(st.integers(1, min(n_r, 4))),
        "n_s": draw(st.integers(1, 2)),
        "n_users": draw(_axis(st.integers(1, 4))),
        "snr_db": draw(_axis(st.floats(-20.0, 40.0))),
        "outer": "none" if layers == 1 else draw(st.sampled_from(["cme", "pps", "sps"])),
        "inner": draw(st.sampled_from(harness.INNER_METHODS)),
        "layers": layers,
        "n_trials": draw(st.integers(1, 2)),
        "n_slots": draw(st.integers(1, 4)),
        "sigma_n2": draw(st.floats(1e-4, 1.0)),
        "sigma_c_deg": draw(st.floats(0.0, 10.0)),
        "seed": draw(st.integers(0, 100)),
    }
    keys = sorted(data) + ["n_antennas"]  # the last one is unknown
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        data[key] = draw(st.one_of(_JUNK, st.sampled_from(["poor", "none", "cme", "met_bd"])))
    return data


def test_cli_exits_with_a_documented_code_on_any_config(tmp_path):
    """validate and run exit 0, 2 or 3 and raise nothing; a 0 run writes a well-formed CSV."""
    config, out = tmp_path / "config.yaml", tmp_path / "out.csv"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=_config_files())
    def check(data):
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        checked = main(["validate", "--config", str(config)])
        assert checked in (0, 2)
        out.unlink(missing_ok=True)
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code in (0, 2, 3) and (code == 2) == (checked == 2)
        if code == 0:
            rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
            assert rows
            for row in rows:
                status = row["status"]
                assert status in ("ok", "infeasible") or status.startswith("error:")

    check()


@st.composite
def _outer_filters(draw, scenario, n_t, n_r):
    """CME/PPS/SPS at widths up to 8 (CME up to the array, beyond L = 8 at poor scattering)."""
    outer = draw(st.sampled_from(["cme", "pps", "sps"]))
    cap = 12 if outer == "cme" else min(8, SCENARIOS[scenario][1])
    return dict(outer=outer, m_t=draw(st.integers(1, min(n_t, cap))),
                m_r=draw(st.integers(1, min(n_r, cap))))


@st.composite
def _drop_groups(draw):
    """2-8 points of one drop: one layer, or two with 1-3 outer filters that the points
    share; every inner scheme, 1-2 streams, two SNRs and two noise variances, so that two
    points can share an SNR but not a noise, and an outer filter but not a design."""
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    n_t, n_r = draw(st.integers(8, 12)), draw(st.integers(8, 12))
    layers = draw(st.sampled_from([1, 2, 2]))
    drop = dict(
        scenario=scenario, n_t=n_t, n_r=n_r, n_users=draw(st.integers(1, 3)), layers=layers,
        n_trials=draw(st.integers(1, 5)), n_slots=draw(st.integers(1, 10)),
        sigma_c_deg=draw(st.sampled_from([0.0, 5.0])), seed=draw(st.integers(0, 2**16)),
    )
    outers = [dict(outer="none", m_t=n_t, m_r=n_r)]
    if layers == 2:
        outers = draw(st.lists(_outer_filters(scenario, n_t, n_r), min_size=1, max_size=3))
    snrs = draw(st.lists(st.sampled_from([-10.0, 0.0, 10.0, 30.0]), min_size=2, max_size=2,
                         unique=True))
    group = []
    for _ in range(draw(st.integers(2, 8))):
        outer = draw(st.sampled_from(outers))
        group.append(ExperimentConfig(
            **drop, **outer, n_s=draw(st.integers(1, min(2, outer["m_t"], outer["m_r"]))),
            inner=draw(st.sampled_from(harness.INNER_METHODS)), snr_db=draw(st.sampled_from(snrs)),
            sigma_n2=draw(st.sampled_from([1e-3, 1e-2])),
        ))
    return group


def _record_of_lone_trials(point):
    """A point's record from one-trial ``run_trial`` calls, up to its first failing trial.

    Its mean and standard error are the row's own ``mean()`` and ``std(ddof=1) / sqrt(n)``.
    """
    rates = []
    for trial in range(point.n_trials):
        try:
            rates.append(run_trial(point, point.seed, trial))
        except Exception as exc:
            return harness._record(point, harness._status(exc))
    rates = np.array(rates)
    stderr = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else None
    return harness._record(point, "ok", float(rates.mean()), stderr)


def test_a_group_writes_the_records_of_its_points_run_alone():
    """run_point(*group) shares each chunk's stages; every row equals its point's lone trials.

    The group's shapes would stack all of its 1-5 trials in one chunk, and
    all of a design's 1-4 levels in one chunk of levels, so both chunk sizes
    are drawn instead (1-3 trials, 1-2 levels): most groups then run in
    several chunks of trials, the last one often partial, and designs with
    several levels evaluate them in several chunks.
    """

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(group=_drop_groups(), size=st.integers(1, 3), levels=st.integers(1, 2))
    def check(group, size, levels):
        with mock.patch.object(harness, "_trial_chunk", lambda points: size), \
                mock.patch.object(harness, "_chunk_size", lambda cfg: levels):
            grouped = run_point(*group)
            assert grouped == [run_point(point)[0] for point in group]
        assert grouped == [_record_of_lone_trials(point) for point in group]

    check()


@st.composite
def _mmse_points(draw):
    """A MET-MMSE point at 1 or 2 layers, M = m_t = m_r, N_s <= min(M, 3), any SNR."""
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    n_t, n_r = draw(st.integers(4, 16)), draw(st.integers(4, 16))
    layers = draw(st.sampled_from([1, 2]))
    if layers == 1:
        outer, m_t, m_r = "none", n_t, n_r
    else:
        outer = draw(st.sampled_from(["cme", "pps", "sps"]))
        n_paths = SCENARIOS[scenario][1] if outer != "cme" else max(n_t, n_r)
        m_t = m_r = draw(st.integers(1, min(n_t, n_r, n_paths)))
    return ExperimentConfig(
        scenario=scenario, n_t=n_t, n_r=n_r, m_t=m_t, m_r=m_r,
        n_s=draw(st.integers(1, min(m_t, m_r, 3))), n_users=draw(st.integers(1, 6)),
        snr_db=draw(st.floats(-10.0, 30.0)), outer=outer, inner="met_mmse", layers=layers,
        n_trials=2, n_slots=draw(st.integers(1, 20)), seed=draw(st.integers(0, 2**16)),
    )


def test_mmse_combining_never_loses_to_mer():
    """On one drop, MET-MMSE's sum rate is at least MET-MER's, trial by trial.

    Both precode with MET. With interference treated as noise, the MMSE
    combiners R_yy^-1 H_eff,u f_u span a sufficient statistic for user u's
    streams (Tse & Viswanath, Fundamentals of Wireless Communication, 2005,
    sec. 8.3), so no other N_s-dimensional combiner, MER's among them, gives
    a higher rate. Points whose designs raise are skipped.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cfg=_mmse_points())
    def check(cfg):
        mer = replace(cfg, inner="met_mer")
        for trial in range(cfg.n_trials):
            try:
                mmse_rate = run_trial(cfg, cfg.seed, trial)
                mer_rate = run_trial(mer, cfg.seed, trial)
            except (RankDeficiencyError, SolverError):
                assume(False)  # SPS ran out of paths or R_yy is singular
            assert mmse_rate >= mer_rate - 1e-9 * max(1.0, abs(mer_rate))

    check()


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def _links(draw):
    """Channels, precoders, combiners, noise and combiner transforms of a random link.

    U <= 4, N_t and N_r <= 8, N_s <= min(3, N_t, N_r); dense or factored
    channels; 0-3 stacked levels, each with its own precoders, combiners and
    noise. A one-stream transform is a complex scalar of magnitude 1e-3 to
    1e3, a wider one such a scalar times a random matrix plus twice the
    identity.
    """
    n_users, n_t, n_r = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    n_s = draw(st.integers(1, min(3, n_t, n_r)))
    levels = (draw(st.integers(1, 3)),) if draw(st.booleans()) else ()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        channels = _complex(rng, (n_users, n_r, n_t))
    else:
        n_paths = draw(st.integers(1, 4))
        channels = FactoredChannel(rx_gains=_complex(rng, (n_users, n_r, n_paths)),
                                   a_t=_complex(rng, (n_users, n_t, n_paths)))
    f = _complex(rng, (*levels, n_users, n_t, n_s))
    f *= np.sqrt(1.0 / n_users) / np.linalg.norm(f, axis=(-2, -1), keepdims=True)
    w = _complex(rng, (*levels, n_users, n_r, n_s))
    sigma_n2 = 10.0 ** rng.uniform(-2.0, 0.0, size=levels)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(*levels, n_users, 1, 1))
    scale = scale * np.exp(2j * np.pi * rng.uniform(size=scale.shape))
    transforms = scale
    if n_s > 1:
        transforms = scale * (_complex(rng, (*levels, n_users, n_s, n_s)) + 2.0 * np.eye(n_s))
    return channels, LinkFilters(f=f, w=w), sigma_n2, n_s, transforms


def test_rate_is_invariant_under_invertible_combiner_transforms():
    """sum_rate is unchanged, within 1e-9 relative, when each W_u becomes W_u T_u.

    The rate of user u depends on its combiner only through the column space
    of W_u, which an invertible T_u keeps, so every level's rate must stay.
    One-stream combiners take the normalization route of the combiner basis
    at every scale drawn here.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(link=_links())
    def check(link):
        channels, filters, sigma_n2, n_s, transforms = link
        base = sum_rate(channels, filters, sigma_n2, n_s)
        moved = LinkFilters(f=filters.f, w=filters.w @ transforms)
        rate = sum_rate(channels, moved, sigma_n2, n_s)
        assert np.shape(rate) == np.shape(sigma_n2)
        np.testing.assert_allclose(rate, base, rtol=1e-9, atol=0.0)

    check()
