"""Property tests over small random configurations."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsmimo import (
    SCENARIOS,
    ExperimentConfig,
    RankDeficiencyError,
    SolverError,
    run_trial,
    snr_to_power,
)
from dsmimo import harness


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
        powers = np.sum(np.abs(captured[0]) ** 2, axis=(1, 2))
        assert powers.shape == (cfg.n_users,)
        np.testing.assert_allclose(powers, budget, rtol=1e-12, atol=0.0)

    check()
