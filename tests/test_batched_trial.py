"""The stacked (U, ...) trial against the per-user trial it replaced.

Everything below ``# Per-user reference`` is the per-user pipeline that
``run_trial`` ran before every stage was batched over users: one user at a
time through covariance estimation, CME, channel realization, effective
channels, inner design, normalization and rate. It is kept here only as
the oracle. Path selection (``pps``/``sps``) and ``_null_projector`` are
per-user in the library itself and are imported unchanged.
"""

import numpy as np
import pytest

from dsmimo import (
    ArrayGeometry,
    CovariancePair,
    EffectiveChannelSet,
    EvaluationError,
    ExperimentConfig,
    InfeasibleError,
    InnerFilters,
    MacroState,
    OuterFilters,
    SolverError,
    TruncatedSvd,
    pps,
    run_trial,
    snr_to_power,
    sps,
)
from dsmimo.channel import RAYS_PER_CLUSTER, SCENARIOS, _fold_azimuth_deg
from dsmimo.harness import (
    _SCENARIO_CODE,
    _SUBSTREAM_EVAL,
    _SUBSTREAM_MACRO,
    _SUBSTREAM_SLOTS,
    _substream,
)
from dsmimo.inner import _MMSE_MAX_CONDITION, _null_projector
from dsmimo.outer import _HERMITIAN_RTOL

# ---------------------------------------------------------------------------
# Per-user reference
# ---------------------------------------------------------------------------


def _ula_manifold(geometry, azimuths):
    azimuths = np.asarray(azimuths, dtype=float)
    k = np.arange(geometry.n_elements)[:, None]
    phase = np.pi * np.cos(azimuths)[None, :]
    return np.exp(-1j * k * phase) / np.sqrt(geometry.n_elements)


def _draw_macroscopic(scenario, n_users, rng, sigma_c_deg):
    n_clusters, n_rays = SCENARIOS[scenario]
    states = []
    for _ in range(n_users):
        mean_dep = rng.uniform(0.0, 180.0, size=n_clusters)
        mean_arr = rng.uniform(0.0, 180.0, size=n_clusters)
        dep = rng.normal(np.repeat(mean_dep, RAYS_PER_CLUSTER), sigma_c_deg)
        arr = rng.normal(np.repeat(mean_arr, RAYS_PER_CLUSTER), sigma_c_deg)
        magnitudes = rng.rayleigh(scale=np.sqrt(0.5), size=n_rays)
        states.append(
            MacroState(
                aod=np.deg2rad(_fold_azimuth_deg(dep)),
                aoa=np.deg2rad(_fold_azimuth_deg(arr)),
                magnitudes=magnitudes,
                n_clusters=n_clusters,
            )
        )
    return states


def _realize_channel(macro, phases, tx, rx):
    a_t = _ula_manifold(tx, macro.aod)
    a_r = _ula_manifold(rx, macro.aoa)
    scale = np.sqrt(tx.n_elements * rx.n_elements / macro.n_rays)
    gains = scale * macro.magnitudes * np.exp(1j * phases)
    return (a_r * gains) @ a_t.T


def _estimate_covariances(macro, n_slots, rng, tx, rx):
    n_rays = macro.n_rays
    scale = np.sqrt(tx.n_elements * rx.n_elements / n_rays / 2.0)
    gains = scale * (
        rng.standard_normal((n_slots, n_rays)) + 1j * rng.standard_normal((n_slots, n_rays))
    )
    a_t = _ula_manifold(tx, macro.aod)
    a_r = _ula_manifold(rx, macro.aoa)
    gram_r = a_r.conj().T @ a_r
    gram_t = a_t.conj().T @ a_t
    corr = gains.conj().T @ gains / n_slots
    k_ul = gram_r * corr
    k_dl = (gram_t * corr).conj()
    return CovariancePair(
        b_dl=a_r, k_dl=0.5 * (k_dl + k_dl.conj().T),
        b_ul=a_t.conj(), k_ul=0.5 * (k_ul + k_ul.conj().T),
    )


def _top_eigenvectors(manifold, weight, m):
    n, n_paths = manifold.shape
    if m > n:
        raise ValueError(f"cannot extract {m} eigenvectors from a {n}-dim covariance")
    hermitian_gap = np.linalg.norm(weight - weight.conj().T)
    if hermitian_gap > _HERMITIAN_RTOL * max(np.linalg.norm(weight), 1e-300):
        raise ValueError("covariance weight matrix is not Hermitian")
    p = min(n, n_paths)
    q, r = np.linalg.qr(manifold, mode="complete" if m > p else "reduced")
    r = r[:p]
    _, vecs = np.linalg.eigh(r @ weight @ r.conj().T)
    return np.hstack([q[:, :p] @ vecs[:, ::-1][:, :m], q[:, p:m]])


def _cme(cov, m_t, m_r):
    return OuterFilters(
        f_o=_top_eigenvectors(cov.b_ul, cov.k_ul, m_t),
        w_o=_top_eigenvectors(cov.b_dl, cov.k_dl, m_r),
        method="cme",
    )


def _path_outer_filters(a_t, a_r, powers, m_t, m_r, method):
    select = {"pps": pps, "sps": sps}[method]
    return OuterFilters(f_o=select(a_t, powers, m_t), w_o=select(a_r, powers, m_r), method=method)


def _truncated_svd(h, n_s):
    if n_s > min(h.shape):
        raise ValueError(f"n_s={n_s} exceeds min dimension of {h.shape} matrix")
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    return TruncatedSvd(u_s=u[:, :n_s], sigma_s=s[:n_s], v_s=vh[:n_s].conj().T)


def _effective_channels(channels, outers):
    n_users = len(channels)
    m_r = outers[0].w_o.shape[1]
    m_t = outers[0].f_o.shape[1]
    f_stack = np.concatenate([o.f_o for o in outers], axis=1)
    h_eff = np.empty((n_users, n_users, m_r, m_t), dtype=complex)
    w_o_gram = np.empty((n_users, m_r, m_r), dtype=complex)
    for u in range(n_users):
        compressed = outers[u].w_o.conj().T @ channels[u]
        h_eff[u] = (compressed @ f_stack).reshape(m_r, n_users, m_t).transpose(1, 0, 2)
        w_o_gram[u] = outers[u].w_o.conj().T @ outers[u].w_o
    return EffectiveChannelSet(h_eff=h_eff, w_o_gram=w_o_gram)


def _met_mer(h_eff_u, n_s):
    svd = _truncated_svd(h_eff_u, n_s)
    return InnerFilters(f_i=svd.v_s, w_i=svd.u_s)


def _met_bd(effset, n_s):
    n_users = effset.n_users
    if n_users * n_s > effset.h_eff.shape[2]:
        raise InfeasibleError("BD reception infeasible")
    svds = [_truncated_svd(effset.h_eff[u, u], n_s) for u in range(n_users)]
    filters = []
    for u in range(n_users):
        if n_users == 1:
            w_i = svds[u].u_s
        else:
            interference = np.concatenate(
                [effset.h_eff[u, j] @ svds[j].v_s for j in range(n_users) if j != u], axis=1
            )
            w_i = _null_projector(interference, side="left") @ svds[u].u_s
        filters.append(InnerFilters(f_i=svds[u].v_s, w_i=w_i))
    return filters


def _bd_mer(effset, n_s):
    n_users = effset.n_users
    if n_users * n_s > effset.h_eff.shape[3]:
        raise InfeasibleError("BD transmission infeasible")
    svds = [_truncated_svd(effset.h_eff[u, u], n_s) for u in range(n_users)]
    filters = []
    for u in range(n_users):
        if n_users == 1:
            f_i = svds[u].v_s
        else:
            interference = np.concatenate(
                [svds[j].u_s.conj().T @ effset.h_eff[j, u] for j in range(n_users) if j != u],
                axis=0,
            )
            f_i = _null_projector(interference, side="right") @ svds[u].v_s
        filters.append(InnerFilters(f_i=f_i, w_i=svds[u].u_s))
    return filters


def _met_mmse(effset, gammas, sigma_n2, n_s):
    n_users = effset.n_users
    svds = [_truncated_svd(effset.h_eff[u, u], n_s) for u in range(n_users)]
    filters = []
    for u in range(n_users):
        steered = np.stack([effset.h_eff[u, j] @ svds[j].v_s for j in range(n_users)])
        r_yy = sigma_n2 * effset.w_o_gram[u] + np.einsum(
            "j,jik,jlk->il", gammas**2 / n_s, steered, steered.conj()
        )
        r_yy = 0.5 * (r_yy + r_yy.conj().T)
        if np.linalg.cond(r_yy) > _MMSE_MAX_CONDITION:
            raise SolverError("received-signal covariance is numerically singular")
        w_i = (gammas[u] / n_s) * np.linalg.solve(r_yy, steered[u])
        filters.append(InnerFilters(f_i=svds[u].v_s, w_i=w_i))
    return filters


def _normalize_gamma(f_o, f_i, p_t, n_users):
    norm = np.linalg.norm(f_o @ f_i)
    if norm <= 0.0:
        raise ValueError("composite precoder F_o @ F_i has zero Frobenius norm")
    return float(np.sqrt(p_t / n_users) / norm)


def _combiner_basis(w):
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise EvaluationError("combiner is zero")
    keep = s > max(w.shape) * np.finfo(float).eps * s[0]
    return u[:, keep]


def _logdet_hermitian(a):
    try:
        chol = np.linalg.cholesky(0.5 * (a + a.conj().T))
    except np.linalg.LinAlgError as exc:
        raise EvaluationError("covariance is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diagonal(chol).real)))


def _sum_rate(channels, f, w, sigma_n2, n_s):
    n_users = len(channels)
    f_stack = np.concatenate(f, axis=1)
    total = 0.0
    for u in range(n_users):
        q_u = _combiner_basis(w[u])
        received = (q_u.conj().T @ channels[u] @ f_stack) / np.sqrt(n_s)
        blocks = received.reshape(q_u.shape[1], n_users, n_s)
        signal = blocks[:, u, :]
        r_u = signal @ signal.conj().T
        all_streams = np.einsum("iuk,luk->il", blocks, blocks.conj())
        c_u = sigma_n2 * np.eye(q_u.shape[1]) + (all_streams - r_u)
        total += max(0.0, _logdet_hermitian(c_u + r_u) - _logdet_hermitian(c_u))
    return total / np.log(2.0)


def reference_trial(cfg, seed, trial):
    """The per-user run_trial, stage for stage."""
    tx = ArrayGeometry(cfg.n_t)
    rx = ArrayGeometry(cfg.n_r)
    p_t = snr_to_power(cfg.snr_db, cfg.sigma_n2)
    n_users = cfg.n_users
    point_key = (_SCENARIO_CODE[cfg.scenario], n_users, trial)

    macro_rng = _substream(seed, *point_key, _SUBSTREAM_MACRO)
    macros = _draw_macroscopic(cfg.scenario, n_users, macro_rng, cfg.sigma_c_deg)

    if cfg.layers == 1:
        shared = OuterFilters(
            f_o=np.eye(cfg.n_t, dtype=complex), w_o=np.eye(cfg.n_r, dtype=complex), method="none"
        )
        outers = [shared] * n_users
    elif cfg.outer == "cme":
        slots_rng = _substream(seed, *point_key, _SUBSTREAM_SLOTS)
        outers = [
            _cme(_estimate_covariances(m, cfg.n_slots, slots_rng, tx, rx), cfg.m_t, cfg.m_r)
            for m in macros
        ]
    else:
        outers = [
            _path_outer_filters(
                _ula_manifold(tx, m.aod), _ula_manifold(rx, m.aoa), m.magnitudes**2,
                cfg.m_t, cfg.m_r, cfg.outer,
            )
            for m in macros
        ]

    eval_rng = _substream(seed, *point_key, _SUBSTREAM_EVAL)
    channels = [
        _realize_channel(m, eval_rng.uniform(-np.pi, np.pi, size=m.n_rays), tx, rx)
        for m in macros
    ]
    effset = _effective_channels(channels, outers)

    if cfg.inner == "met_mer":
        inners = [_met_mer(effset.h_eff[u, u], cfg.n_s) for u in range(n_users)]
    elif cfg.inner == "met_bd":
        inners = _met_bd(effset, cfg.n_s)
    elif cfg.inner == "bd_mer":
        inners = _bd_mer(effset, cfg.n_s)
    else:
        met_precoders = [_met_mer(effset.h_eff[u, u], cfg.n_s) for u in range(n_users)]
        gammas = np.array(
            [
                _normalize_gamma(outers[u].f_o, met_precoders[u].f_i, p_t, n_users)
                for u in range(n_users)
            ]
        )
        inners = _met_mmse(effset, gammas, cfg.sigma_n2, cfg.n_s)

    full_f, full_w = [], []
    for u in range(n_users):
        gamma = _normalize_gamma(outers[u].f_o, inners[u].f_i, p_t, n_users)
        full_f.append(gamma * (outers[u].f_o @ inners[u].f_i))
        full_w.append(outers[u].w_o @ inners[u].w_i)
    return _sum_rate(channels, full_f, full_w, cfg.sigma_n2, cfg.n_s)


# ---------------------------------------------------------------------------
# Batched against per-user
# ---------------------------------------------------------------------------

COMBOS = [(outer, inner, 2) for outer in ("cme", "pps", "sps") for inner in
          ("met_mer", "met_bd", "met_mmse", "bd_mer")]
COMBOS += [("none", inner, 1) for inner in ("met_mer", "met_bd", "met_mmse", "bd_mer")]


def _assert_same_outcome(cfg, seed, trial):
    try:
        expected = reference_trial(cfg, seed, trial)
    except Exception as exc:  # the batched trial must raise the same class
        with pytest.raises(Exception) as caught:
            run_trial(cfg, seed, trial)
        assert type(caught.value) is type(exc), (cfg, seed, trial)
        return "raised"
    rate = run_trial(cfg, seed, trial)
    assert isinstance(rate, float)
    assert rate == pytest.approx(expected, rel=1e-12, abs=0.0), (cfg, seed, trial)
    return "rate"


@pytest.mark.parametrize("outer,inner,layers", COMBOS)
@pytest.mark.parametrize("n_users", [1, 2, 5])
def test_batched_trial_matches_per_user_reference(outer, inner, layers, n_users):
    outcomes = []
    for seed in range(4):
        cfg = ExperimentConfig(
            scenario=("poor", "fair", "rich")[seed % 3], n_t=16, n_r=12, m_t=6, m_r=4,
            n_s=1 + seed % 2, n_users=n_users, snr_db=(0.0, 20.0)[seed % 2],
            outer=outer, inner=inner, layers=layers, n_slots=20,
        )
        outcomes += [_assert_same_outcome(cfg, seed, trial) for trial in range(2)]
    if inner in ("met_mer", "met_mmse") or n_users == 1:
        assert outcomes.count("rate") == len(outcomes)


def test_congested_cell_matches_per_user_reference():
    # The benchmark's operating point at full array size, U = 32.
    cfg = ExperimentConfig(
        scenario="poor", m_t=4, m_r=4, n_s=1, n_users=32, snr_db=0.0,
        outer="cme", inner="met_mmse", n_slots=100,
    )
    for trial in range(3):
        assert _assert_same_outcome(cfg, 1, trial) == "rate"

