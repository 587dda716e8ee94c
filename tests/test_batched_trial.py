"""The stacked (U, ...) trial against the per-user trial it replaced.

Everything below ``# Per-user reference`` is the per-user pipeline that
``run_trial`` ran before every stage was batched over users: one user at a
time through covariance estimation, CME, channel realization, effective
channels, inner design, normalization and rate. It is kept here only as
the oracle. Path selection (``pps``/``sps``) is per-user in the library
itself and is imported unchanged; the block-diagonalizing schemes use the
per-matrix null-space projector below, which slices each null-space basis
to its rank, not the library's stacked one.

The oracle realizes each user's channel densely, H_u = (A_r D) A_t^T, while
the library's 2-layer path keeps that factor pair whenever it is no larger
than H and takes its products with filters as ((W^H A_r D) A_t^T) F. The
two agree to rounding level. Two trials of the grid below are ill
conditioned, though: block diagonalization on nearly parallel selected
paths cancels the MET filters, and their rate moves the rounding
difference past 1e-12. They are named in ``AMPLIFIED``; for them alone the
oracle takes the products from the factor pair too, so their batching is
still checked at 1e-12.
"""

import itertools

import numpy as np
import pytest

from dsmimo import (
    ArrayGeometry,
    CovariancePair,
    EffectiveChannelSet,
    EvaluationError,
    ExperimentConfig,
    FactoredChannel,
    InfeasibleError,
    InnerFilters,
    LinkFilters,
    MacroState,
    OuterFilters,
    SolverError,
    TruncatedSvd,
    cme,
    draw_macroscopic,
    effective_channels,
    estimate_covariances,
    extract_partial_csi,
    met_mer,
    pps,
    run_trial,
    snr_to_power,
    sps,
    sum_rate,
)
from dsmimo.channel import RAYS_PER_CLUSTER, SCENARIOS, _fold_azimuth_deg
from dsmimo.harness import (
    _SCENARIO_CODE,
    _SUBSTREAM_EVAL,
    _SUBSTREAM_MACRO,
    _SUBSTREAM_SLOTS,
    _substream,
)
from dsmimo.inner import _GAMMA_RTOL, _MMSE_MAX_CONDITION, _RANK_RTOL
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
            )
        )
    return states


def _realize_factors(macro, phases, tx, rx):
    a_t = _ula_manifold(tx, macro.aod)
    a_r = _ula_manifold(rx, macro.aoa)
    scale = np.sqrt(tx.n_elements * rx.n_elements / macro.n_rays)
    gains = scale * macro.magnitudes * np.exp(1j * phases)
    return a_r * gains, a_t


def _realize_channel(macro, phases, tx, rx):
    rx_gains, a_t = _realize_factors(macro, phases, tx, rx)
    return rx_gains @ a_t.T


def _combine(w, channel):
    """W^H H of a dense channel or of a factor pair (A_r D, A_t)."""
    if isinstance(channel, tuple):
        rx_gains, a_t = channel
        return (w.conj().T @ rx_gains) @ a_t.T
    return w.conj().T @ channel


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
    )


def _path_outer_filters(a_t, a_r, powers, m_t, m_r, method):
    select = {"pps": pps, "sps": sps}[method]
    return OuterFilters(f_o=select(a_t, powers, m_t), w_o=select(a_r, powers, m_r))


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
        compressed = _combine(outers[u].w_o, channels[u])
        h_eff[u] = (compressed @ f_stack).reshape(m_r, n_users, m_t).transpose(1, 0, 2)
        w_o_gram[u] = outers[u].w_o.conj().T @ outers[u].w_o
    return EffectiveChannelSet(h_eff=h_eff, w_o_gram=w_o_gram)


def _null_projector(matrix, side):
    u, s, vh = np.linalg.svd(matrix, full_matrices=True)
    rank = int(np.count_nonzero(s > _RANK_RTOL * s[0])) if s.size else 0
    basis = u[:, rank:] if side == "left" else vh[rank:].conj().T
    return basis @ basis.conj().T


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
    if norm <= _GAMMA_RTOL * np.linalg.norm(f_o) * np.linalg.norm(f_i):
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
        received = (_combine(q_u, channels[u]) @ f_stack) / np.sqrt(n_s)
        blocks = received.reshape(q_u.shape[1], n_users, n_s)
        signal = blocks[:, u, :]
        r_u = signal @ signal.conj().T
        all_streams = np.einsum("iuk,luk->il", blocks, blocks.conj())
        c_u = sigma_n2 * np.eye(q_u.shape[1]) + (all_streams - r_u)
        total += max(0.0, _logdet_hermitian(c_u + r_u) - _logdet_hermitian(c_u))
    return total / np.log(2.0)


def reference_trial(cfg, seed, trial, factored=False):
    """The per-user run_trial, stage for stage, on dense channels.

    With ``factored``, 2-layer trials take their channel products from the
    factor pairs, with the library's association.
    """
    tx = ArrayGeometry(cfg.n_t)
    rx = ArrayGeometry(cfg.n_r)
    p_t = snr_to_power(cfg.snr_db, cfg.sigma_n2)
    n_users = cfg.n_users
    point_key = (_SCENARIO_CODE[cfg.scenario], n_users, trial)

    macro_rng = _substream(seed, *point_key, _SUBSTREAM_MACRO)
    macros = _draw_macroscopic(cfg.scenario, n_users, macro_rng, cfg.sigma_c_deg)

    if cfg.layers == 1:
        shared = OuterFilters(
            f_o=np.eye(cfg.n_t, dtype=complex), w_o=np.eye(cfg.n_r, dtype=complex)
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
    realize = _realize_factors if factored and cfg.layers == 2 else _realize_channel
    channels = [
        realize(m, eval_rng.uniform(-np.pi, np.pi, size=m.n_rays), tx, rx) for m in macros
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


# (outer, inner, n_users, n_t, seed, trial) of the grid below whose rate is
# ill conditioned in the channel products: MET-BD's projection cancels a
# user's MET combiner to 3.6e-4 and 1.1e-3 of its norm, and the rate moves
# the rounding difference of the factored products 3.5e-12 and 1.6e-11
# (relative) away from the dense oracle's.
AMPLIFIED = {("pps", "met_bd", 2, 64, 3, 0), ("pps", "met_bd", 2, 64, 3, 1)}


def _assert_same_outcome(cfg, seed, trial, factored=False):
    try:
        expected = reference_trial(cfg, seed, trial, factored)
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
    # 16 x 12 arrays realize every scenario's channel densely, since even
    # L = 8 paths give L (N_r + N_t) > N_r N_t; 64 x 64 arrays keep poor and
    # fair scattering factored.
    outcomes = []
    for seed, (n_t, n_r) in itertools.product(range(4), [(16, 12), (64, 64)]):
        cfg = ExperimentConfig(
            scenario=("poor", "fair", "rich")[seed % 3], n_t=n_t, n_r=n_r, m_t=6, m_r=4,
            n_s=1 + seed % 2, n_users=n_users, snr_db=(0.0, 20.0)[seed % 2],
            outer=outer, inner=inner, layers=layers, n_slots=20,
        )
        for trial in range(2):
            amplified = (outer, inner, n_users, n_t, seed, trial) in AMPLIFIED
            outcomes.append(_assert_same_outcome(cfg, seed, trial, factored=amplified))
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


def test_cancelled_composite_precoder_is_rejected():
    # BD-MER projects user 3's MET precoder to 9e-8 of its norm, and the
    # nearly parallel power-dominant paths of F_o cancel that to 4e-7 of
    # ||F_o|| ||F_i||: ||F_o F_i|| = 9e-14 would be scaled by gamma = 1.6e11.
    # Dense and factored channels then gave rates 0.23 % apart.
    cfg = ExperimentConfig(
        scenario="rich", n_t=16, n_r=12, m_t=6, m_r=4, n_s=1, n_users=5, snr_db=0.0,
        outer="pps", inner="bd_mer", n_slots=20,
    )
    with pytest.raises(ValueError, match="cancelled"):
        run_trial(cfg, 2, 1)
    for factored in (False, True):
        with pytest.raises(ValueError):
            reference_trial(cfg, 2, 1, factored)


@pytest.mark.parametrize("scenario", ["poor", "fair", "rich"])
@pytest.mark.parametrize("n_users", [1, 5, 32])
def test_factored_products_match_dense(scenario, n_users):
    # effective_channels and sum_rate on the factor pair against the dense
    # per-user oracle; rich has L = 64 = N paths, so the factors are square
    # (realize_channel would return the dense form there).
    rng = np.random.default_rng(n_users)
    tx, rx = ArrayGeometry(64), ArrayGeometry(64)
    macro = draw_macroscopic(scenario, n_users, rng)
    phases = rng.uniform(-np.pi, np.pi, size=macro.aod.shape)
    factors = [_realize_factors(macro[u], phases[u], tx, rx) for u in range(n_users)]
    channels = FactoredChannel(
        rx_gains=np.array([g for g, _ in factors]), a_t=np.array([a for _, a in factors])
    )
    dense = [_realize_channel(macro[u], phases[u], tx, rx) for u in range(n_users)]
    a_t, a_r, _ = extract_partial_csi(macro, tx, rx)
    outers = cme(estimate_covariances(20, rng, a_t, a_r), 8, 8)
    per_user = [OuterFilters(f_o=outers.f_o[u], w_o=outers.w_o[u]) for u in range(n_users)]

    got = effective_channels(channels, outers)
    want = _effective_channels(dense, per_user)
    assert np.linalg.norm(got.h_eff - want.h_eff) <= 1e-12 * np.linalg.norm(want.h_eff)
    assert np.array_equal(got.w_o_gram, want.w_o_gram)

    n_s = 2
    inners = met_mer(got.serving, n_s)
    f = [0.5 * outers.f_o[u] @ inners.f_i[u] for u in range(n_users)]
    w = [outers.w_o[u] @ inners.w_i[u] for u in range(n_users)]
    rate = sum_rate(channels, LinkFilters(f=np.array(f), w=np.array(w)), 1e-2, n_s)
    assert rate == pytest.approx(_sum_rate(dense, f, w, 1e-2, n_s), rel=1e-12, abs=0.0)
    assert rate == pytest.approx(
        sum_rate(np.array(dense), LinkFilters(f=f, w=w), 1e-2, n_s), rel=1e-12, abs=0.0
    )



@pytest.mark.parametrize("form", ["dense", "factored", "list"])
@pytest.mark.parametrize("n_h, n_w, n_f", [(1, 2, 2), (1, 1, 2), (2, 2, 1), (3, 2, 2)])
def test_user_count_mismatch_is_rejected(form, n_h, n_w, n_f):
    # n_h channels, n_w combiners, n_f precoders. Matmul broadcasts a stack
    # of one user against any number of filters, so the first three cases
    # would otherwise return effective channels without complaint.
    rng = np.random.default_rng(n_h + 3 * n_w + 9 * n_f)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    factored = FactoredChannel(rx_gains=cplx(n_h, 6, 3), a_t=cplx(n_h, 5, 3))
    channels = {"dense": factored.dense(), "factored": factored, "list": list(factored.dense())}
    w, f = cplx(n_w, 6, 2), cplx(n_f, 5, 2)
    with pytest.raises(ValueError):
        effective_channels(channels[form], OuterFilters(f_o=f, w_o=w))
    with pytest.raises(ValueError):
        sum_rate(channels[form], LinkFilters(f=f, w=w), 1e-2, 2)
