"""End-to-end acceptance checks at desk scale.

Each test pins one exit criterion at its stated tolerance and prints a
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to see
the verdicts inline.
"""

import time
from dataclasses import replace

import numpy as np

from dsmimo import (
    EffectiveChannelSet,
    ExperimentConfig,
    LinkFilters,
    OuterFilters,
    bd_mer,
    effective_channels,
    emit_csv,
    met_bd,
    met_mmse,
    run_point,
    run_sweep,
    sum_rate,
    truncated_svd,
)
from dsmimo.inner import _null_projector

ACCEPT_SEED = 123


def _verdict(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _congested_config(snr_db, n_trials):
    return ExperimentConfig(
        scenario="poor", m_t=4, m_r=4, n_s=1, n_users=32, snr_db=snr_db,
        outer="cme", inner="met_mmse", n_trials=n_trials,
    )


def test_criterion_1_operating_point_reproduction():
    start = time.perf_counter()
    [record] = run_point(_congested_config(0.0, 200), seed=ACCEPT_SEED)
    elapsed = time.perf_counter() - start
    target = 63.0
    ok = abs(record.mean_rate - target) <= 0.15 * target and elapsed <= 300.0
    _verdict(
        1, "operating-point reproduction", ok,
        f"mean rate {record.mean_rate:.2f} bit/s/Hz vs {target} +/- 15%, "
        f"{elapsed:.0f}s for 200 trials",
    )


def test_criterion_2_high_snr_saturation():
    snrs = (0.0, 10.0, 20.0, 30.0)
    records = run_point(*(_congested_config(snr, 100) for snr in snrs), seed=ACCEPT_SEED)
    rates = {snr: record.mean_rate for snr, record in zip(snrs, records)}
    increase = (rates[30.0] - rates[20.0]) / rates[20.0]
    _verdict(
        2, "interference-limited saturation", increase < 0.10,
        f"rate 20->30 dB grew {increase * 100:.2f}% "
        f"(curve: {', '.join(f'{rates[s]:.1f}' for s in sorted(rates))})",
    )


def test_criterion_3_sps_pps_ordering():
    def sps_and_pps(n_s, n_trials):
        cfgs = [
            ExperimentConfig(
                scenario="fair", m_t=n_s, m_r=n_s, n_s=n_s, n_users=1, snr_db=20.0,
                outer=method, inner="met_mer", n_trials=n_trials,
            )
            for method in ("sps", "pps")
        ]
        return [record.mean_rate for record in run_point(*cfgs, seed=ACCEPT_SEED)]

    details = []
    ok = True
    for n_s, n_trials in ((4, 1000), (8, 500), (16, 500)):
        sps_rate, pps_rate = sps_and_pps(n_s, n_trials)
        ok = ok and sps_rate > pps_rate
        details.append(f"N_s/L={n_s / 32:.3f}: SPS {sps_rate:.2f} vs PPS {pps_rate:.2f}")
    sps_full, pps_full = sps_and_pps(32, 300)
    gap = abs(sps_full - pps_full) / pps_full
    ok = ok and gap <= 0.02
    details.append(f"N_s/L=1: |SPS-PPS| = {gap * 100:.3f}%")
    _verdict(3, "SPS/PPS ordering", ok, "; ".join(details))


def test_criterion_4_block_diagonalization_exactness():
    worst = 0.0
    combos = [(u, n_s) for u in (2, 3, 4) for n_s in (1, 2)]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_users, n_s = combos[seed % len(combos)]
        h_eff = _random_complex(rng, (n_users, n_users, 8, 8))
        effset = EffectiveChannelSet(
            h_eff=h_eff, w_o_gram=np.stack([np.eye(8, dtype=complex)] * n_users)
        )
        rx_filters = met_bd(effset, n_s)
        tx_filters = bd_mer(effset, n_s)
        for u in range(n_users):
            for j in range(n_users):
                if j == u:
                    continue
                rx_leak = np.linalg.norm(
                    rx_filters[u].w_i.conj().T @ h_eff[u, j] @ rx_filters[j].f_i
                ) / np.linalg.norm(h_eff[u, j])
                tx_leak = np.linalg.norm(
                    tx_filters[j].w_i.conj().T @ h_eff[j, u] @ tx_filters[u].f_i
                ) / np.linalg.norm(h_eff[j, u])
                worst = max(worst, rx_leak, tx_leak)
    _verdict(
        4, "BD exactness", worst <= 1e-8,
        f"worst relative cross-user leakage {worst:.2e} over 100 seeds, U=2..4, N_s=1..2",
    )


def test_criterion_5_mmse_optimality():
    worst_margin = np.inf
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n_users, n_s, m_r = 2, 1, 4
        effset = EffectiveChannelSet(
            h_eff=_random_complex(rng, (n_users, n_users, m_r, 4)),
            w_o_gram=np.stack([np.eye(m_r, dtype=complex)] * n_users),
        )
        gammas = rng.uniform(0.5, 1.5, n_users)
        sigma_n2 = 10.0 ** rng.uniform(-3, 0)
        filters = met_mmse(effset, gammas, sigma_n2, n_s)
        precoders = [f.f_i for f in filters]

        def mse(w, u):
            steered = [effset.h_eff[u, j] @ precoders[j] for j in range(n_users)]
            r_yy = sigma_n2 * effset.w_o_gram[u]
            for j, t in enumerate(steered):
                r_yy = r_yy + (gammas[j] ** 2 / n_s) * (t @ t.conj().T)
            t_u = gammas[u] * steered[u]
            return (
                1.0
                - (2.0 / n_s) * np.trace(w.conj().T @ t_u).real
                + np.trace(w.conj().T @ r_yy @ w).real
            )

        for u in range(n_users):
            base = mse(filters[u].w_i, u)
            for _ in range(100):
                delta = _random_complex(rng, filters[u].w_i.shape)
                perturbed = filters[u].w_i + 1e-3 * delta / np.linalg.norm(delta)
                worst_margin = min(worst_margin, mse(perturbed, u) - base)
    _verdict(
        5, "MMSE optimality", worst_margin > 0.0,
        f"smallest MSE increase under perturbation {worst_margin:.3e} over 50 seeds x 100 directions",
    )


def test_criterion_6_rate_metric_invariance():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_users, n_t, n_r, n_s = 2, 6, 5, 2
        channels = [_random_complex(rng, (n_r, n_t)) for _ in range(n_users)]
        f = [_random_complex(rng, (n_t, n_s)) * 0.3 for _ in range(n_users)]
        w = [_random_complex(rng, (n_r, n_s)) for _ in range(n_users)]
        base = sum_rate(channels, LinkFilters(f=f, w=w), 0.05, n_s)
        transformed = [
            w_u @ (_random_complex(rng, (n_s, n_s)) + 2.0 * np.eye(n_s)) for w_u in w
        ]
        rate = sum_rate(channels, LinkFilters(f=f, w=transformed), 0.05, n_s)
        worst = max(worst, abs(rate - base) / base)
    _verdict(
        6, "rate-metric invariance", worst <= 1e-9,
        f"worst relative change under invertible combiner transforms {worst:.2e} over 100 seeds",
    )


def test_criterion_7_single_vs_two_layer_benchmark():
    details = []
    ok = True
    for method in ("met_mer", "met_bd", "met_mmse", "bd_mer"):
        for n_s in (1, 2):
            [two] = run_point(
                ExperimentConfig(
                    scenario="poor", m_t=4, m_r=4, n_s=n_s, n_users=2, snr_db=20.0,
                    outer="cme", inner=method, layers=2, n_trials=200,
                ),
                seed=ACCEPT_SEED,
            )
            [one] = run_point(
                ExperimentConfig(
                    scenario="poor", n_s=n_s, n_users=2, snr_db=20.0,
                    outer="none", inner=method, layers=1, n_trials=200,
                ),
                seed=ACCEPT_SEED,
            )
            gap = (one.mean_rate - two.mean_rate) / one.mean_rate
            ok = ok and one.mean_rate >= two.mean_rate
            if n_s == 1:
                ok = ok and gap <= 0.10
                details.append(f"{method}: N_s=1 gap {gap * 100:.1f}%")
    _verdict(7, "1-layer vs 2-layer benchmark", ok, "; ".join(details))


def test_criterion_8_brute_force_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (4, 8):
        # effective channels vs entrywise triple product
        channels = [_random_complex(rng, (n, n)) for _ in range(2)]
        outers = [
            OuterFilters(f_o=_random_complex(rng, (n, 2)), w_o=_random_complex(rng, (n, 2)))
            for _ in range(2)
        ]
        effset = effective_channels(channels, outers)
        for u in range(2):
            for j in range(2):
                naive = np.zeros((2, 2), dtype=complex)
                for a in range(2):
                    for b in range(2):
                        for p in range(n):
                            for q in range(n):
                                naive[a, b] += (
                                    np.conj(outers[u].w_o[p, a])
                                    * channels[u][p, q]
                                    * outers[j].f_o[q, b]
                                )
                worst = max(worst, np.abs(effset.h_eff[u, j] - naive).max())

        # truncated SVD vs eigendecomposition of the Gram matrix
        h = _random_complex(rng, (n, n))
        svd = truncated_svd(h, 2)
        eigs, vecs = np.linalg.eigh(h.conj().T @ h)
        order = np.argsort(eigs)[::-1][:2]
        sigma_oracle = np.sqrt(eigs[order])
        v_oracle = vecs[:, order]
        u_oracle = h @ v_oracle / sigma_oracle
        worst = max(worst, np.abs(svd.sigma_s - sigma_oracle).max())
        worst = max(
            worst,
            np.abs(svd.v_s @ svd.v_s.conj().T - v_oracle @ v_oracle.conj().T).max(),
            np.abs(svd.u_s @ svd.u_s.conj().T - u_oracle @ u_oracle.conj().T).max(),
        )

        # null-space projectors vs explicit pseudo-inverse formulas
        tall = _random_complex(rng, (n, 2))
        wide = _random_complex(rng, (2, n))
        worst = max(
            worst,
            np.abs(
                _null_projector(tall, "left") - (np.eye(n) - tall @ np.linalg.pinv(tall))
            ).max(),
            np.abs(
                _null_projector(wide, "right") - (np.eye(n) - np.linalg.pinv(wide) @ wide)
            ).max(),
        )

        # log-det rate vs direct determinant-ratio with eigenvalue products
        f = [_random_complex(rng, (n, 2)) * 0.4 for _ in range(2)]
        w = [_random_complex(rng, (n, 2)) for _ in range(2)]
        sigma_n2 = 0.1
        mine = sum_rate(channels, LinkFilters(f=f, w=w), sigma_n2, 2)
        naive_total = 0.0
        for u in range(2):
            c = sigma_n2 * (w[u].conj().T @ w[u])
            for j in range(2):
                g = w[u].conj().T @ channels[u] @ f[j]
                if j == u:
                    r = g @ g.conj().T / 2
                else:
                    c = c + g @ g.conj().T / 2
            naive_total += np.log2(
                np.prod(np.linalg.eigvalsh(c + r)) / np.prod(np.linalg.eigvalsh(c))
            )
        worst = max(worst, abs(mine - naive_total))
    _verdict(
        8, "brute-force oracle equivalence", worst <= 1e-10,
        f"max deviation from naive implementations {worst:.2e} on 4x4 and 8x8 instances",
    )


def test_criterion_9_bitwise_deterministic_csv():
    cfg = ExperimentConfig(
        scenario=["poor", "fair"], n_t=8, n_r=8, m_t=2, m_r=2, n_s=1,
        n_users=[1, 2], snr_db=[0.0, 20.0], outer="cme", inner="met_mmse",
        n_trials=5, n_slots=10,
    )
    serial = emit_csv(run_sweep(cfg, seed=ACCEPT_SEED, workers=1)).encode()
    threaded = emit_csv(run_sweep(cfg, seed=ACCEPT_SEED, workers=4)).encode()
    repeat = emit_csv(run_sweep(cfg, seed=ACCEPT_SEED, workers=1)).encode()
    ok = serial == threaded == repeat
    _verdict(
        9, "bitwise-deterministic CSV", ok,
        f"{len(serial)} bytes identical across reruns and worker counts",
    )
