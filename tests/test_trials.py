"""Stacked trial evaluation against one call per trial.

A chunk of trials stacks every stage of a drop group on a leading trial
axis, (T, U, ...), with the levels of a design in front of it,
(S, T, U, ...). Each trial's result must be the very value its own call
gives, bit for bit, so that a sweep writes the same CSV however its trials
are chunked.
"""

import gc
import weakref
from dataclasses import fields

import numpy as np
import pytest

from dsmimo import (
    ArrayGeometry,
    ExperimentConfig,
    InfeasibleError,
    LinkFilters,
    MacroState,
    SolverError,
    bd_mer,
    cme,
    cme_basis,
    composite_precoder,
    draw_macroscopic,
    effective_channels,
    estimate_covariances,
    extract_partial_csi,
    met_bd,
    met_mer,
    met_mmse,
    normalize_gamma,
    realize_channel,
    receive_side,
    run_point,
    run_sweep,
    run_trial,
    snr_to_power,
    sum_rate,
    truncated_svd,
)
from dsmimo import harness

N_TRIALS = 3
SNRS = (-10.0, 5.0, 30.0)
NOISES = (1e-3, 1e-2, 1e-3)  # per level: the first and last share a noise, not an SNR
N = 16
M = 4


def _stack(states):
    names = [f.name for f in fields(MacroState)]
    return MacroState(**{name: np.stack([getattr(s, name) for s in states]) for name in names})


def _drops(n_users, n_s, layers, form):
    """Each trial's channels and outer filters built alone, and the same stacked over trials."""
    seeds = [1000 * n_users + 100 * n_s + 10 * layers + t for t in range(N_TRIALS)]
    macros = [draw_macroscopic("poor", n_users, np.random.default_rng(s)) for s in seeds]
    tx, rx = ArrayGeometry(N), ArrayGeometry(N)
    alone = []
    for macro, seed in zip(macros, seeds):
        a_t, a_r, _ = extract_partial_csi(macro, tx, rx)
        phases = np.random.default_rng(seed + 1).uniform(-np.pi, np.pi, macro.magnitudes.shape)
        channels = realize_channel(macro, phases, a_t, a_r)
        outers = None
        if layers == 2:
            cov = estimate_covariances(20, np.random.default_rng(seed + 2), a_t, a_r)
            outers = cme(cme_basis(cov, M, M), M, M)
        alone.append((np.asarray(channels) if form == "dense" else channels, outers))

    macro = _stack(macros)
    a_t, a_r, _ = extract_partial_csi(macro, tx, rx)
    phases = np.stack([
        np.random.default_rng(s + 1).uniform(-np.pi, np.pi, m.magnitudes.shape)
        for s, m in zip(seeds, macros)
    ])
    channels = realize_channel(macro, phases, a_t, a_r)
    outers = None
    if layers == 2:
        slots = [np.random.default_rng(s + 2) for s in seeds]
        outers = cme(cme_basis(estimate_covariances(20, slots, a_t, a_r), M, M), M, M)
    stacked = (np.asarray(channels) if form == "dense" else channels, outers)
    return stacked, alone


CASES = [
    (n_users, n_s, layers, form)
    for n_users in (1, 4, 32)
    for n_s in (1, 2)
    for layers, form in ((1, "dense"), (2, "factored"), (2, "dense"))
]


def _equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("n_users, n_s, layers, form", CASES)
def test_a_trial_stack_equals_one_call_per_trial(n_users, n_s, layers, form):
    (channels, outers), alone = _drops(n_users, n_s, layers, form)
    assert (form == "dense") == isinstance(channels, np.ndarray)
    if outers is not None:
        for t, (_, lone) in enumerate(alone):
            assert _equal(outers.f_o[t], lone.f_o) and _equal(outers.w_o[t], lone.w_o)

    effset = effective_channels(channels, outers)
    assert effset.n_users == n_users
    svd = truncated_svd(effset.serving, n_s)
    f_o = None if outers is None else outers.f_o
    inners = met_mer(svd, n_s)
    f, norm = composite_precoder(f_o, inners.f_i)
    p_t = np.array([[[snr_to_power(snr, noise)]] for snr, noise in zip(SNRS, NOISES)])
    noises = np.array([[noise] for noise in NOISES])
    gammas = normalize_gamma(norm, p_t, n_users)
    assert gammas.shape == (len(SNRS), N_TRIALS, n_users)
    mmse = met_mmse(effset, gammas, noises, n_s, f_i=inners.f_i)
    w = mmse.w_i if outers is None else outers.w_o @ mmse.w_i
    mmse_side = receive_side(channels, w)
    mer_side = receive_side(channels, inners.w_i if outers is None else outers.w_o @ inners.w_i)
    precoders = LinkFilters(f=gammas[..., None, None] * f, w=None)
    rates = {
        "mmse": sum_rate(mmse_side, precoders, noises, n_s),
        "mer": sum_rate(mer_side, precoders, noises, n_s),
    }
    for stacked in rates.values():
        assert stacked.shape == (len(SNRS), N_TRIALS)

    bd = {}
    for name, design in (("met_bd", met_bd), ("bd_mer", bd_mer)):
        try:
            bd[name] = design(effset, n_s, svd)
        except InfeasibleError:
            bd[name] = None

    for t, (lone_channels, lone_outers) in enumerate(alone):
        lone_set = effective_channels(lone_channels, lone_outers)
        assert _equal(effset.h_eff[t], lone_set.h_eff)
        assert _equal(effset.w_o_gram[t], lone_set.w_o_gram)
        assert _equal(effset.serving[t], lone_set.serving)
        lone_svd = truncated_svd(lone_set.serving, n_s)
        for got, want in zip((svd.u_s, svd.sigma_s, svd.v_s), (lone_svd.u_s, lone_svd.sigma_s,
                                                              lone_svd.v_s)):
            assert _equal(got[t], want)
        lone_f_o = None if lone_outers is None else lone_outers.f_o
        lone_f, lone_norm = composite_precoder(lone_f_o, lone_svd.v_s)
        assert _equal(f[t], lone_f) and _equal(norm[t], lone_norm)

        for name, design in (("met_bd", met_bd), ("bd_mer", bd_mer)):
            if bd[name] is None:
                with pytest.raises(InfeasibleError):
                    design(lone_set, n_s, lone_svd)
                continue
            lone = design(lone_set, n_s, lone_svd)
            assert _equal(bd[name].f_i[t], lone.f_i) and _equal(bd[name].w_i[t], lone.w_i)
        lone_mer_side = receive_side(
            lone_channels,
            lone_svd.u_s if lone_outers is None else lone_outers.w_o @ lone_svd.u_s,
        )
        assert _equal(mer_side.combined[t], lone_mer_side.combined)

        for s, (snr, noise) in enumerate(zip(SNRS, NOISES)):
            gamma = normalize_gamma(lone_norm, snr_to_power(snr, noise), n_users)
            assert _equal(gammas[s, t], gamma)
            lone_mmse = met_mmse(lone_set, gamma, noise, n_s, f_i=lone_svd.v_s)
            assert _equal(mmse.w_i[s, t], lone_mmse.w_i)
            lone_w = lone_mmse.w_i if lone_outers is None else lone_outers.w_o @ lone_mmse.w_i
            lone_side = receive_side(lone_channels, lone_w)
            assert _equal(mmse_side.combined[s, t], lone_side.combined)
            lone_precoders = LinkFilters(f=gamma[:, None, None] * lone_f, w=None)
            lone_rates = {
                "mmse": sum_rate(lone_side, lone_precoders, noise, n_s),
                "mer": sum_rate(lone_mer_side, lone_precoders, noise, n_s),
            }
            for name, rate in lone_rates.items():
                assert isinstance(rate, float)
                assert rates[name][s, t] == rate, name


def test_stacked_slot_draws_are_each_trials_own():
    # One generator per trial: each trial's covariances are those of its
    # own estimate, and each generator is left where the lone call leaves it.
    macros = [draw_macroscopic("fair", 3, np.random.default_rng(s)) for s in range(4)]
    a_t, a_r, _ = extract_partial_csi(_stack(macros), ArrayGeometry(8), ArrayGeometry(6))
    stacked_rngs = [np.random.default_rng(50 + t) for t in range(4)]
    pair = estimate_covariances(7, stacked_rngs, a_t, a_r)
    for t in range(4):
        lone_rng = np.random.default_rng(50 + t)
        lone = estimate_covariances(7, lone_rng, a_t[t], a_r[t])
        assert _equal(pair.k_ul[t], lone.k_ul) and _equal(pair.k_dl[t], lone.k_dl)
        assert stacked_rngs[t].bit_generator.state == lone_rng.bit_generator.state
    with pytest.raises(ValueError, match="one generator per entry"):
        estimate_covariances(7, stacked_rngs[:3], a_t, a_r)


# A drop group of snr_poor_4users' shapes, whose chunks hold five trials:
# poor scattering, 64 x 64 arrays, four users and 4-wide filters.
CHUNKED = dict(scenario="poor", n_t=64, n_r=64, m_t=4, m_r=4, n_users=4, n_trials=7,
               n_slots=20, outer="cme")


def test_a_group_runs_its_trials_in_chunks_of_lone_trials():
    points = [
        ExperimentConfig(**CHUNKED, inner=inner, snr_db=snr)
        for inner in harness.INNER_METHODS
        for snr in (0.0, 20.0)
    ]
    size = harness._trial_chunk(points)
    assert size == 5  # two chunks, the last one partial
    for record, point in zip(run_point(*points, seed=3), points):
        lone = [run_trial(point, 3, t) for t in range(point.n_trials)]
        assert record.status == "ok" and record.n_trials == point.n_trials
        assert record.mean_rate == float(np.mean(lone))


def test_a_failing_trial_of_a_chunk_fails_only_its_row(monkeypatch):
    # MET-MMSE raises in trial 3 of a five-trial chunk at 10 dB: the
    # stacked chunk fails for that design, whose points run the chunk's
    # trials again alone. Only the 10 dB row reads the failure.
    configs = [
        ExperimentConfig(**{**CHUNKED, "n_trials": 5}, inner=inner, snr_db=[0.0, 10.0, 20.0])
        for inner in ("met_mer", "met_mmse")
    ]
    points = [point for cfg in configs for point in cfg.grid()]
    assert harness._trial_chunk(points) == 5
    clean = run_sweep(*configs, seed=4)
    assert {r.status for r in clean} == {"ok"}
    failing_point = points[-2]
    assert (failing_point.inner, failing_point.snr_db) == ("met_mmse", 10.0)

    real_composite, real_mmse = harness.composite_precoder, harness.met_mmse
    norms = []

    def composite(f_o, f_i):
        f, norm = real_composite(f_o, f_i)
        norms.append(norm)
        return f, norm

    monkeypatch.setattr(harness, "composite_precoder", composite)
    run_trial(failing_point, 4, 3)
    power = snr_to_power(10.0, failing_point.sigma_n2)
    failing = normalize_gamma(norms[-1][0], power, failing_point.n_users)  # trial 3's gammas
    stacks = []

    def mmse(effset, gammas, *args, **kwargs):
        stacks.append(np.shape(gammas))
        if np.all(np.asarray(gammas) == failing, axis=-1).any():
            raise SolverError("received-signal covariance is numerically singular")
        return real_mmse(effset, gammas, *args, **kwargs)

    monkeypatch.setattr(harness, "met_mmse", mmse)
    records = run_sweep(*configs, seed=4)
    for got, want in zip(records, clean):
        if (got.inner, got.snr_db) == ("met_mmse", 10.0):
            assert got.status == "error:solvererror" and got.n_trials == 0
        else:
            assert got == want
    # The chunk's three levels; then each of the design's points alone, trial
    # by trial: 0 dB and 20 dB all five trials, 10 dB up to trial 3.
    assert stacks == [(3, 5, 4)] + [(1, 1, 4)] * (5 + 4 + 5)


def test_a_failing_chunk_is_freed_before_its_trials_run_again(monkeypatch):
    # MET-MMSE fails on every stack of several trials and on no trial alone:
    # both points run the chunk's trials again alone, each trial through its
    # own one-trial cache, and read as in a clean run. The failed chunk's
    # cache, with the drops' channels, filters and serving SVD it holds, is
    # gone before the first of them, without the cyclic GC.
    points = [
        ExperimentConfig(**{**CHUNKED, "n_trials": 5}, inner="met_mmse", snr_db=snr)
        for snr in (0.0, 10.0)
    ]
    clean = run_point(*points, seed=4)
    real_cache, real_trial, real_mmse = harness._TrialCache, harness.run_trial, harness.met_mmse
    caches, chunk_alive_at_rerun = [], []

    def cache(cache_points, trials):
        made = real_cache(cache_points, trials)
        caches.append((trials, weakref.ref(made)))
        return made

    def run_trial(cfg, seed, trial, shared=None):
        if shared is None:
            chunk_alive_at_rerun.append(caches[0][1]() is not None)
        return real_trial(cfg, seed, trial, shared)

    def mmse(effset, gammas, *args, **kwargs):
        if np.shape(gammas)[-2] > 1:
            raise SolverError("received-signal covariance is numerically singular")
        return real_mmse(effset, gammas, *args, **kwargs)

    monkeypatch.setattr(harness, "_TrialCache", cache)
    monkeypatch.setattr(harness, "run_trial", run_trial)
    monkeypatch.setattr(harness, "met_mmse", mmse)
    gc.disable()
    try:
        records = run_point(*points, seed=4)
    finally:
        gc.enable()
    assert records == clean
    assert [trials for trials, _ in caches] == (
        [range(0, 5)] + [range(t, t + 1) for t in range(5)] * 2
    )
    assert len(chunk_alive_at_rerun) == 10 and not any(chunk_alive_at_rerun)
