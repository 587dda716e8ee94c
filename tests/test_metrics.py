import numpy as np
import pytest

from dsmimo import (
    ArrayGeometry, EvaluationError, FactoredChannel, LinkFilters, ReceiveSide, cme, cme_basis,
    composite_precoder, draw_macroscopic, effective_channels, estimate_covariances,
    extract_partial_csi, met_mer, met_mmse, metrics, normalize_gamma, path_columns,
    path_outer_filters, realize_channel, receive_side, snr_to_power, sum_rate,
)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_link(rng, n_users, n_t, n_r, n_s, p_t):
    channels = [_random_complex(rng, (n_r, n_t)) for _ in range(n_users)]
    f, w = [], []
    for _ in range(n_users):
        f_u = _random_complex(rng, (n_t, n_s))
        f.append(f_u * np.sqrt(p_t / n_users) / np.linalg.norm(f_u))
        w.append(_random_complex(rng, (n_r, n_s)))
    return channels, LinkFilters(f=f, w=w)


def _rate_oracle(channels, filters, sigma_n2, n_s):
    """Direct det-ratio evaluation with the raw combiners, dets via eigenvalues."""
    total = 0.0
    for u, (h, w) in enumerate(zip(channels, filters.w)):
        c = sigma_n2 * (w.conj().T @ w)
        for j, f_j in enumerate(filters.f):
            g = w.conj().T @ h @ f_j
            if j == u:
                r = g @ g.conj().T / n_s
            else:
                c = c + g @ g.conj().T / n_s
        det_c = np.prod(np.linalg.eigvalsh(c))
        det_cr = np.prod(np.linalg.eigvalsh(c + r))
        total += np.log2(det_cr / det_c)
    return float(total)


class TestSnrToPower:
    def test_zero_db(self):
        assert abs(snr_to_power(0.0, 1e-3) - 1e-3) < 1e-18

    def test_twenty_db(self):
        assert abs(snr_to_power(20.0, 1e-3) - 0.1) < 1e-15

    def test_ten_db(self):
        assert abs(snr_to_power(10.0, 2.0) - 20.0) < 1e-12


class TestSumRate:
    def test_scalar_link(self):
        rng = np.random.default_rng(0)
        h = _random_complex(rng, (2, 2))
        f = _random_complex(rng, (2, 1))
        w = _random_complex(rng, (2, 1))
        sigma_n2 = 0.05
        rho = np.linalg.norm(w.conj().T @ h @ f) ** 2 / (sigma_n2 * np.linalg.norm(w) ** 2)
        rate = sum_rate([h], LinkFilters(f=[f], w=[w]), sigma_n2, 1)
        assert abs(rate - np.log2(1 + rho)) < 1e-12

    def test_zero_precoder_contributes_nothing(self):
        rng = np.random.default_rng(1)
        channels, filters = _random_link(rng, 2, 4, 4, 1, p_t=1.0)
        silenced = LinkFilters(f=[filters.f[0], np.zeros((4, 1))], w=filters.w)
        both = sum_rate(channels, silenced, 0.1, 1)
        alone = sum_rate([channels[0]], LinkFilters(f=[filters.f[0]], w=[filters.w[0]]), 0.1, 1)
        assert abs(both - alone) < 1e-12

    def test_matches_determinant_identity_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            channels, filters = _random_link(rng, 2, 4, 3, 2, p_t=2.0)
            mine = sum_rate(channels, filters, 0.2, 2)
            assert abs(mine - _rate_oracle(channels, filters, 0.2, 2)) < 1e-10

    def test_combiner_right_transform_invariance(self):
        rng = np.random.default_rng(3)
        channels, filters = _random_link(rng, 3, 6, 5, 2, p_t=1.5)
        base = sum_rate(channels, filters, 0.05, 2)
        for _ in range(10):
            transformed = [
                w @ (_random_complex(rng, (2, 2)) + 2.0 * np.eye(2)) for w in filters.w
            ]
            rate = sum_rate(channels, LinkFilters(f=filters.f, w=transformed), 0.05, 2)
            assert abs(rate - base) <= 1e-9 * base

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(4)
        channels, filters = _random_link(rng, 2, 4, 4, 2, p_t=1.0)
        rates = [sum_rate(channels, filters, s, 2) for s in (1.0, 0.1, 0.01, 1e-3, 1e-4)]
        assert all(rates[k + 1] >= rates[k] for k in range(len(rates) - 1))

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            channels, filters = _random_link(rng, 2, 3, 3, 1, p_t=1e-6)
            assert sum_rate(channels, filters, 1.0, 1) >= 0.0

    def test_interference_free_consistency(self):
        # Disjoint channel row/column blocks make every cross term vanish;
        # the per-user rate then has a closed form in the raw combiner.
        rng = np.random.default_rng(6)
        n_t = n_r = 6
        n_s = 1
        sigma_n2 = 0.01
        blocks = [slice(0, 3), slice(3, 6)]
        channels, f, w = [], [], []
        for u, rows in enumerate(blocks):
            h = np.zeros((n_r, n_t), dtype=complex)
            h[rows, rows] = _random_complex(rng, (3, 3))
            channels.append(h)
            f_u = np.zeros((n_t, n_s), dtype=complex)
            f_u[rows] = _random_complex(rng, (3, n_s))
            f.append(f_u * np.sqrt(0.5) / np.linalg.norm(f_u))
            w_u = np.zeros((n_r, n_s), dtype=complex)
            w_u[rows] = _random_complex(rng, (3, n_s))
            w.append(w_u)
        filters = LinkFilters(f=f, w=w)
        for u in range(2):
            for j in range(2):
                if j != u:
                    cross = w[u].conj().T @ channels[u] @ f[j]
                    assert np.linalg.norm(cross) < 1e-14
        expected = 0.0
        for u in range(2):
            g = w[u].conj().T @ channels[u] @ f[u]
            wgram_inv = np.linalg.inv(w[u].conj().T @ w[u])
            expected += np.log2(
                np.linalg.det(
                    np.eye(n_s) + wgram_inv @ g @ g.conj().T / (sigma_n2 * n_s)
                ).real
            )
        assert abs(sum_rate(channels, filters, sigma_n2, n_s) - expected) < 1e-10

    def test_zero_combiner_rejected(self):
        rng = np.random.default_rng(7)
        channels, filters = _random_link(rng, 1, 3, 3, 1, p_t=1.0)
        with pytest.raises(EvaluationError):
            sum_rate(channels, LinkFilters(f=filters.f, w=[np.zeros((3, 1))]), 0.1, 1)

    def test_nearly_parallel_combiner_columns_evaluate_finite(self):
        # Duplicate combiner columns lose a stream direction instead of
        # failing; the result is the rate of the resolvable subspace.
        rng = np.random.default_rng(8)
        channels, filters = _random_link(rng, 1, 4, 4, 2, p_t=1.0)
        w = filters.w[0].copy()
        w[:, 1] = w[:, 0]
        rate = sum_rate(channels, LinkFilters(f=filters.f, w=[w]), 0.1, 2)
        assert np.isfinite(rate) and rate >= 0.0

    def test_mismatched_user_counts(self):
        rng = np.random.default_rng(9)
        channels, filters = _random_link(rng, 2, 3, 3, 1, p_t=1.0)
        with pytest.raises(ValueError):
            sum_rate(channels[:1], filters, 0.1, 1)

    @pytest.mark.parametrize("form", ["dense", "factored", "list"])
    def test_receive_side_gives_the_same_rate(self, form):
        # The SNR-free half, built once and fed back for several precoder
        # scalings as an SNR sweep does, runs the same operations as the
        # whole evaluation: the rates are equal, not merely close.
        rng = np.random.default_rng(10)
        factored = FactoredChannel(
            rx_gains=_random_complex(rng, (3, 6, 4)), a_t=_random_complex(rng, (3, 5, 4))
        )
        channels = {"dense": factored.dense(), "factored": factored, "list": list(factored.dense())}
        _, filters = _random_link(rng, 3, 5, 6, 2, p_t=1.0)
        received = receive_side(channels[form], filters.w)
        assert isinstance(received, ReceiveSide) and received.combined.shape == (3, 2, 5)
        for scale in (0.1, 1.0, 30.0):
            f = [scale * f_u for f_u in filters.f]
            whole = sum_rate(channels[form], LinkFilters(f=f, w=filters.w), 0.05, 2)
            assert sum_rate(received, LinkFilters(f=f, w=None), 0.05, 2) == whole

    def test_receive_side_checks_its_users(self):
        rng = np.random.default_rng(11)
        channels, filters = _random_link(rng, 2, 3, 3, 1, p_t=1.0)
        with pytest.raises(ValueError):
            receive_side(channels[:1], filters.w)
        received = receive_side(channels, filters.w)
        with pytest.raises(ValueError):
            sum_rate(received, LinkFilters(f=filters.f[:1], w=None), 0.1, 1)
        with pytest.raises(ValueError):  # precoders for another transmit array
            sum_rate(received, LinkFilters(f=[np.ones((4, 1))] * 2, w=None), 0.1, 1)


def _svd_basis(w):
    """The SVD route of ``_combiner_basis`` for every width: the oracle of its one-column path."""
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    if s.size == 0 or np.any(s[..., 0] <= 0.0):
        raise EvaluationError("combiner is zero")
    keep = s > max(w.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    return u * keep[..., None, :]


BASIS_SNRS = (-10.0, 5.0, 30.0)


def _designed_link(outer, n_users, inner):
    """One drop's channels, composite precoders per level (S, U, N_t, 1) and combiners.

    ``outer`` 'none' is the 1-layer link on the dense 64 x 64 channels; the
    others build 4-wide outer filters. MET-MER's combiners are (U, N_r, 1),
    MET-MMSE's one per level, (S, U, N_r, 1).
    """
    rng = np.random.default_rng(1000 * n_users + len(outer))
    n = 64
    macro = draw_macroscopic("poor", n_users, rng)
    a_t, a_r, powers = extract_partial_csi(macro, ArrayGeometry(n), ArrayGeometry(n))
    channels = realize_channel(
        macro, rng.uniform(-np.pi, np.pi, size=macro.magnitudes.shape), a_t, a_r
    )
    outers = None
    if outer == "cme":
        outers = cme(cme_basis(estimate_covariances(20, rng, a_t, a_r), 4, 4), 4, 4)
    elif outer in ("pps", "sps"):
        outers = path_outer_filters(path_columns(a_t, a_r, powers, 4, 4, outer), 4, 4, outer)
    else:
        channels = np.asarray(channels)
    effset = effective_channels(channels, outers)
    inners = met_mer(effset.serving, 1)
    f, norm = composite_precoder(None if outers is None else outers.f_o, inners.f_i)
    noises = np.array([1e-3, 1e-2, 1e-3])
    p_t = np.array([[snr_to_power(snr, noise)] for snr, noise in zip(BASIS_SNRS, noises)])
    gammas = normalize_gamma(norm, p_t, n_users)
    w_i = inners.w_i
    if inner == "met_mmse":
        w_i = met_mmse(effset, gammas, noises, 1, f_i=inners.f_i).w_i
    w = w_i if outers is None else outers.w_o @ w_i
    return channels, gammas[..., None, None] * f, w, noises


class TestSingleStreamCombinerBasis:
    """One-column combiners take w / ||w||; the SVD route is their oracle."""

    @pytest.mark.parametrize("inner", ["met_mer", "met_mmse"])
    @pytest.mark.parametrize("n_users", [1, 4, 32])
    @pytest.mark.parametrize("outer", ["cme", "pps", "sps", "none"])
    def test_per_level_rates_match_the_svd_basis(self, monkeypatch, outer, n_users, inner):
        channels, f, w, noises = _designed_link(outer, n_users, inner)
        assert w.shape[-2:] == (64, 1)
        svd_calls = []
        real_svd = np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda a, *args, **kw: svd_calls.append(a.shape) or real_svd(a, *args, **kw)
        )
        rates = sum_rate(channels, LinkFilters(f=f, w=w), noises, 1)
        assert svd_calls == []
        monkeypatch.setattr(metrics, "_combiner_basis", _svd_basis)
        oracle = sum_rate(channels, LinkFilters(f=f, w=w), noises, 1)
        assert svd_calls == [w.shape]
        assert rates.shape == oracle.shape == (len(BASIS_SNRS),)
        assert np.all(np.abs(rates - oracle) <= 1e-12 * np.abs(oracle))

    def test_a_single_column_is_normalized(self):
        rng = np.random.default_rng(12)
        w = _random_complex(rng, (2, 3, 64, 1))
        basis = metrics._combiner_basis(w)
        assert np.array_equal(basis, w / np.linalg.norm(w, axis=-2, keepdims=True))
        assert np.allclose(np.linalg.norm(basis, axis=-2), 1.0, rtol=0, atol=1e-15)

    def test_a_zero_column_is_rejected(self):
        w = _random_complex(np.random.default_rng(13), (4, 64, 1))
        w[2] = 0.0
        for basis in (metrics._combiner_basis, _svd_basis):
            with pytest.raises(EvaluationError, match="combiner is zero"):
                basis(w)

    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.0)])
    def test_a_nan_column_fails_as_the_svd_does(self, bad):
        w = _random_complex(np.random.default_rng(14), (4, 64, 1))
        w[1, 5, 0] = bad
        for basis in (metrics._combiner_basis, _svd_basis):
            with pytest.raises(np.linalg.LinAlgError):
                basis(w)

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e-140, 1e140, 1e200])
    def test_columns_near_the_float_range_keep_the_oracles_rate(self, scale):
        # Below 1e-150, where squares turn subnormal or zero, or where they overflow,
        # the column takes the SVD, which scales; in between, its norm is exact.
        channels, f, w, noises = _designed_link("cme", 4, "met_mer")
        rates = sum_rate(channels, LinkFilters(f=f, w=w * scale), noises, 1)
        oracle = sum_rate(channels, LinkFilters(f=f, w=w), noises, 1)
        assert np.all(np.abs(rates - oracle) <= 1e-12 * np.abs(oracle))

    def test_wider_combiners_still_take_the_svd(self, monkeypatch):
        rng = np.random.default_rng(15)
        w = _random_complex(rng, (3, 4, 64, 2))
        shapes, real_svd = [], np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or real_svd(a, *args, **kw)
        )
        basis = metrics._combiner_basis(w)
        assert shapes == [(3, 4, 64, 2)]
        monkeypatch.setattr(np.linalg, "svd", real_svd)
        assert np.array_equal(basis, _svd_basis(w))
