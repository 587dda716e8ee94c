import numpy as np
import pytest

from dsmimo import (
    EvaluationError, FactoredChannel, LinkFilters, ReceiveSide, receive_side, snr_to_power,
    sum_rate,
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
