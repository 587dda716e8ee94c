"""Stacked level evaluation against one call per level.

A level is one (SNR, noise variance) pair of a design. The rate stage
evaluates all of a design's levels in one stacked call of ``met_mmse``,
``receive_side`` and ``sum_rate``, with the levels on a leading axis. Each
level's result must be the very value its own call gives, bit for bit, so
that a sweep writes the same CSV however its levels are stacked.
"""

import numpy as np
import pytest

from dsmimo import (
    ArrayGeometry,
    EvaluationError,
    LinkFilters,
    SolverError,
    cme,
    cme_basis,
    composite_precoder,
    draw_macroscopic,
    effective_channels,
    estimate_covariances,
    extract_partial_csi,
    met_mer,
    met_mmse,
    normalize_gamma,
    realize_channel,
    receive_side,
    snr_to_power,
    sum_rate,
)

SNRS = (-10.0, 5.0, 30.0)
NOISES = (1e-3, 1e-2, 1e-3)  # per level: the first and last share a noise, not an SNR
N = 16


def _trial(n_users, n_s, layers, form):
    """One drop's channels, outer filters, MET design and composite precoders."""
    rng = np.random.default_rng(100 * n_users + 10 * n_s + layers)
    macro = draw_macroscopic("poor", n_users, rng)
    a_t, a_r, _ = extract_partial_csi(macro, ArrayGeometry(N), ArrayGeometry(N))
    phases = rng.uniform(-np.pi, np.pi, size=macro.magnitudes.shape)
    channels = realize_channel(macro, phases, a_t, a_r)
    outers = None
    if layers == 2:
        outers = cme(cme_basis(estimate_covariances(20, rng, a_t, a_r), 4, 4), 4, 4)
    if form == "dense":
        channels = np.asarray(channels)
    effset = effective_channels(channels, outers)
    inners = met_mer(effset.serving, n_s)
    f, norm = composite_precoder(None if outers is None else outers.f_o, inners.f_i)
    return channels, outers, effset, inners, f, norm


def _levels(norm, n_users):
    p_t = np.array([[snr_to_power(snr, noise)] for snr, noise in zip(SNRS, NOISES)])
    return normalize_gamma(norm, p_t, n_users), np.array(NOISES)


CASES = [
    (n_users, n_s, layers, form)
    for n_users in (1, 4, 32)
    for n_s in (1, 2)
    for layers, form in ((1, "dense"), (2, "factored"), (2, "dense"))
]


@pytest.mark.parametrize("n_users, n_s, layers, form", CASES)
def test_stacked_levels_equal_one_call_per_level(n_users, n_s, layers, form):
    channels, outers, effset, inners, f, norm = _trial(n_users, n_s, layers, form)
    assert (form == "dense") == isinstance(channels, np.ndarray)
    gammas, noises = _levels(norm, n_users)
    assert gammas.shape == (len(SNRS), n_users)
    for s, (snr, noise) in enumerate(zip(SNRS, NOISES)):  # row s is level s's own scaling
        alone = normalize_gamma(norm, snr_to_power(snr, noise), n_users)
        assert np.array_equal(gammas[s], alone)

    mmse = met_mmse(effset, gammas, noises, n_s, f_i=inners.f_i)
    w = mmse.w_i if outers is None else outers.w_o @ mmse.w_i
    stacked_side = receive_side(channels, w)
    precoders = gammas[:, :, None, None] * f
    shared_side = receive_side(channels, inners.w_i if outers is None else outers.w_o @ inners.w_i)
    # MMSE combiners: one receive side per level; the others: one side for every level.
    stacked = {
        "mmse": sum_rate(stacked_side, LinkFilters(f=precoders, w=None), noises, n_s),
        "mmse_whole": sum_rate(channels, LinkFilters(f=precoders, w=w), noises, n_s),
        "shared": sum_rate(shared_side, LinkFilters(f=precoders, w=None), noises, n_s),
    }
    for rates in stacked.values():
        assert rates.shape == (len(SNRS),)
    for s, (gamma, noise) in enumerate(zip(gammas, NOISES)):
        mmse_alone = met_mmse(effset, gamma, noise, n_s, f_i=inners.f_i)
        assert np.array_equal(mmse.w_i[s], mmse_alone.w_i)
        w_alone = mmse_alone.w_i if outers is None else outers.w_o @ mmse_alone.w_i
        side_alone = receive_side(channels, w_alone)
        assert np.array_equal(stacked_side.combined[s], side_alone.combined)
        f_alone = gamma[:, None, None] * f
        alone = {
            "mmse": sum_rate(side_alone, LinkFilters(f=f_alone, w=None), noise, n_s),
            "mmse_whole": sum_rate(channels, LinkFilters(f=f_alone, w=w_alone), noise, n_s),
            "shared": sum_rate(shared_side, LinkFilters(f=f_alone, w=None), noise, n_s),
        }
        for name, rate in alone.items():
            assert isinstance(rate, float)
            assert stacked[name][s] == rate, name


def test_a_level_stack_of_any_shape_keeps_one_rate_per_level():
    channels, _, _, inners, f, norm = _trial(4, 2, 1, "dense")
    gammas, noises = _levels(norm, 4)
    side = receive_side(channels, inners.w_i)
    grid = gammas.reshape(1, 3, 4)[..., None, None] * f
    rates = sum_rate(side, LinkFilters(f=grid, w=None), noises.reshape(1, 3), 2)
    flat = sum_rate(side, LinkFilters(f=grid[0], w=None), noises, 2)
    assert rates.shape == (1, 3) and np.array_equal(rates[0], flat)


def test_one_failing_level_raises_for_the_stack():
    # A stacked guard sees every level: a singular covariance or a zero
    # combiner in one level raises for the whole stack, as for that level alone.
    channels, _, effset, inners, f, norm = _trial(4, 1, 2, "factored")
    gammas, noises = _levels(norm, 4)
    noises[1] = 0.0
    gammas[1] = 0.0  # level 1 receives only noise, and none of it
    with pytest.raises(SolverError):
        met_mmse(effset, gammas[1], noises[1], 1, f_i=inners.f_i)
    with pytest.raises(SolverError):
        met_mmse(effset, gammas, noises, 1, f_i=inners.f_i)
    w = np.repeat(inners.w_i[None], 3, axis=0)
    w[1] = 0.0
    with pytest.raises(EvaluationError):
        receive_side(np.asarray(channels), w)


@pytest.mark.parametrize("n_filters, n_channels", [(1, 4), (4, 1)])
def test_level_stacks_check_their_user_count(n_filters, n_channels):
    # The user axis is -3 whatever the level axes: a level stack of one
    # user is not broadcast to all of them, nor all of them to one.
    channels, _, _, inners, _, _ = _trial(4, 1, 1, "dense")
    side = receive_side(channels[:n_channels], inners.w_i[:n_channels])
    with pytest.raises(ValueError):
        sum_rate(side, LinkFilters(f=np.ones((3, n_filters, N, 1)), w=None), np.ones(3), 1)
    with pytest.raises(ValueError):
        receive_side(channels[:n_channels], np.ones((3, n_filters, N, 1)))


@pytest.mark.parametrize("levels", [None, 1, 3])
def test_mmse_solves_every_level_in_one_stack(monkeypatch, levels):
    # One solve takes the covariances of every level, (S, U, M_r, M_r), and
    # the serving columns once, (U, M_r, N_s), which numpy 2 broadcasts as
    # matrices over the levels.
    _, _, effset, inners, _, norm = _trial(4, 2, 2, "factored")
    gammas, noises = _levels(norm, 4)
    if levels is None:
        gammas, noises = gammas[0], noises[0]
    else:
        gammas, noises = gammas[:levels], noises[:levels]
    real_solve, shapes = np.linalg.solve, []

    def solve(a, b):
        shapes.append((a.shape, b.shape))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    w_i = met_mmse(effset, gammas, noises, 2, f_i=inners.f_i).w_i
    [(a, b)] = shapes
    assert a[:-3] == (() if levels is None else (levels,))
    assert b == a[-3:-1] + (2,) and w_i.shape == a[:-1] + (2,)
