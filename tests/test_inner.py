import numpy as np
import pytest

from dsmimo import (
    EffectiveChannelSet,
    InfeasibleError,
    LinkFilters,
    OuterFilters,
    SolverError,
    bd_mer,
    composite_precoder,
    effective_channels,
    met_bd,
    met_mer,
    met_mmse,
    normalize_gamma,
    sum_rate,
    truncated_svd,
)
from dsmimo.inner import _RANK_RTOL, _null_projector


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_effset(rng, n_users, m_r, m_t):
    h_eff = _random_complex(rng, (n_users, n_users, m_r, m_t))
    gram = np.stack([np.eye(m_r, dtype=complex)] * n_users)
    return EffectiveChannelSet(h_eff=h_eff, w_o_gram=gram)


def _max_principal_angle(a, b):
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    cosines = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(cosines.min(), -1.0, 1.0)))


def _mse_objective(w, effset, precoders, gammas, sigma_n2, n_s, u):
    """E||s_u - y_u||^2 written out directly from the effective signal model."""
    steered = [effset.h_eff[u, j] @ precoders[j] for j in range(effset.n_users)]
    r_yy = sigma_n2 * effset.w_o_gram[u]
    for j, t in enumerate(steered):
        r_yy = r_yy + (gammas[j] ** 2 / n_s) * (t @ t.conj().T)
    t_u = gammas[u] * steered[u]
    # E||s||^2 = tr(R_s) = 1 with R_s = I/N_s
    value = (
        1.0
        - (2.0 / n_s) * np.trace(w.conj().T @ t_u).real
        + np.trace(w.conj().T @ r_yy @ w).real
    )
    return float(value)


def _mse_gradient(w, effset, precoders, gammas, sigma_n2, n_s, u):
    """Wirtinger gradient of the objective with respect to conj(W)."""
    steered = [effset.h_eff[u, j] @ precoders[j] for j in range(effset.n_users)]
    r_yy = sigma_n2 * effset.w_o_gram[u]
    for j, t in enumerate(steered):
        r_yy = r_yy + (gammas[j] ** 2 / n_s) * (t @ t.conj().T)
    return r_yy @ w - (gammas[u] / n_s) * steered[u]


class TestEffectiveChannels:
    def test_matches_entrywise_triple_product(self):
        rng = np.random.default_rng(0)
        channels = [_random_complex(rng, (4, 4)) for _ in range(2)]
        outers = [
            OuterFilters(f_o=_random_complex(rng, (4, 3)), w_o=_random_complex(rng, (4, 2)))
            for _ in range(2)
        ]
        effset = effective_channels(channels, outers)
        for u in range(2):
            for j in range(2):
                expected = np.zeros((2, 3), dtype=complex)
                for a in range(2):
                    for b in range(3):
                        for p in range(4):
                            for q in range(4):
                                expected[a, b] += (
                                    np.conj(outers[u].w_o[p, a])
                                    * channels[u][p, q]
                                    * outers[j].f_o[q, b]
                                )
                assert np.allclose(effset.h_eff[u, j], expected, atol=1e-12)

    def test_unitary_compression_for_single_user(self):
        rng = np.random.default_rng(1)
        h = _random_complex(rng, (6, 6))
        q, _ = np.linalg.qr(_random_complex(rng, (6, 4)))
        outer = OuterFilters(f_o=q, w_o=q)
        effset = effective_channels([h], [outer])
        assert np.allclose(effset.h_eff[0, 0], q.conj().T @ h @ q, atol=1e-12)
        assert np.allclose(effset.w_o_gram[0], np.eye(4), atol=1e-12)

    def test_rejects_mismatched_lists(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            effective_channels([_random_complex(rng, (4, 4))], [])

    @pytest.mark.parametrize("call", ["two_layer", "one_layer", "sum_rate"])
    def test_single_matrices_are_rejected_and_per_user_lists_kept(self, call):
        # A 16 x 16 H with 16-row filters: the row counts alone read as 16 users.
        rng = np.random.default_rng(32)
        h = _random_complex(rng, (16, 16))
        f, w = _random_complex(rng, (16, 4)), _random_complex(rng, (16, 4))
        single, per_user = {
            "two_layer": (
                lambda: effective_channels(h, OuterFilters(f, w)),
                lambda: effective_channels([h], [OuterFilters(f, w)]),
            ),
            "one_layer": (
                lambda: effective_channels(h, None),
                lambda: effective_channels([h], None),
            ),
            "sum_rate": (
                lambda: sum_rate(h, LinkFilters(f=f, w=w), 1e-3, 4),
                lambda: sum_rate([h], LinkFilters(f=[f], w=[w]), 1e-3, 4),
            ),
        }[call]
        with pytest.raises(ValueError, match=r"\(U, .*\) stack.* or per-user list"):
            single()
        per_user()


class TestTruncatedSvd:
    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        h = _random_complex(rng, (5, 4))
        svd = truncated_svd(h, 4)
        assert np.allclose(svd.u_s @ np.diag(svd.sigma_s) @ svd.v_s.conj().T, h, atol=1e-10)
        assert np.allclose(svd.u_s.conj().T @ svd.u_s, np.eye(4), atol=1e-10)
        assert np.allclose(svd.v_s.conj().T @ svd.v_s, np.eye(4), atol=1e-10)
        assert np.all(np.diff(svd.sigma_s) <= 0)

    def test_rejects_oversized_stream_count(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 4)

    def test_leading_triplets_equal_a_shallower_svd(self):
        rng = np.random.default_rng(12)
        h = _random_complex(rng, (3, 5, 4))
        full = truncated_svd(h, 4)
        for n_s in range(1, 5):
            got, want = full.leading(n_s), truncated_svd(h, n_s)
            for name in ("u_s", "sigma_s", "v_s"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
                assert getattr(got, name).strides[-2:] == getattr(want, name).strides[-2:]
        with pytest.raises(ValueError):
            truncated_svd(h, 2).leading(3)


class TestSharedServingSvd:
    """Every scheme given the serving channels' full SVD designs the filters it makes alone."""

    @pytest.mark.parametrize("n_users, m_r, m_t", [(1, 4, 4), (2, 4, 3), (3, 6, 6)])
    @pytest.mark.parametrize("n_s", [1, 2])
    def test_a_prefix_of_the_full_svd_designs_the_same_filters(self, n_users, m_r, m_t, n_s):
        rng = np.random.default_rng(10 * n_users + n_s)
        effset = _random_effset(rng, n_users, m_r, m_t)
        svd = truncated_svd(effset.serving, min(m_r, m_t))
        pairs = [(met_mer(svd, n_s), met_mer(effset.serving, n_s))]
        if n_users * n_s <= m_r:
            pairs.append((met_bd(effset, n_s, svd), met_bd(effset, n_s)))
        if n_users * n_s <= m_t:
            pairs.append((bd_mer(effset, n_s, svd), bd_mer(effset, n_s)))
        for shared, alone in pairs:
            assert np.array_equal(shared.f_i, alone.f_i)
            assert np.array_equal(shared.w_i, alone.w_i)


class TestMetMer:
    def test_diagonal_channel(self):
        filters = met_mer(np.diag([2.0, 1.0]).astype(complex), 1)
        gain = filters.w_i.conj().T @ np.diag([2.0, 1.0]) @ filters.f_i
        assert abs(gain[0, 0] - 2.0) < 1e-12

    def test_full_rank_diagonalizes(self):
        rng = np.random.default_rng(4)
        h = _random_complex(rng, (3, 3))
        filters = met_mer(h, 3)
        product = filters.w_i.conj().T @ h @ filters.f_i
        off_diag = product - np.diag(np.diagonal(product))
        assert np.linalg.norm(off_diag) < 1e-10
        assert np.allclose(
            np.sort(np.diagonal(product).real)[::-1],
            np.sort(np.linalg.svd(h, compute_uv=False))[::-1],
            atol=1e-10,
        )

    def test_captured_energy_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(5)
        h = _random_complex(rng, (3, 3))
        filters = met_mer(h, 2)
        captured = np.linalg.norm(filters.w_i.conj().T @ h @ filters.f_i) ** 2
        gram_eigs = np.sort(np.linalg.eigvalsh(h.conj().T @ h))[::-1]
        assert abs(captured - gram_eigs[:2].sum()) < 1e-10

    def test_semi_unitary_factors(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            h = _random_complex(rng, (5, 4))
            filters = met_mer(h, 2)
            assert np.allclose(filters.f_i.conj().T @ filters.f_i, np.eye(2), atol=1e-10)
            assert np.allclose(filters.w_i.conj().T @ filters.w_i, np.eye(2), atol=1e-10)


class TestMetBd:
    def test_single_user_reduces_to_met_mer(self):
        rng = np.random.default_rng(7)
        effset = _random_effset(rng, 1, 4, 4)
        bd = met_bd(effset, 2)[0]
        mer = met_mer(effset.h_eff[0, 0], 2)
        assert np.allclose(bd.f_i, mer.f_i, atol=1e-12)
        assert np.allclose(bd.w_i, mer.w_i, atol=1e-12)

    def test_zero_cross_interference(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            effset = _random_effset(rng, 2, 4, 4)
            filters = met_bd(effset, 1)
            for u in range(2):
                j = 1 - u
                cross = filters[u].w_i.conj().T @ effset.h_eff[u, j] @ filters[j].f_i
                assert np.linalg.norm(cross) <= 1e-9 * np.linalg.norm(effset.h_eff[u, j])

    def test_projector_matches_pseudo_inverse_oracle(self):
        rng = np.random.default_rng(9)
        stack = _random_complex(rng, (6, 2))
        mine = _null_projector(stack, side="left")
        oracle = np.eye(6) - stack @ np.linalg.pinv(stack)
        assert np.allclose(mine, oracle, atol=1e-10)

    def test_boundary_dimension_keeps_nonzero_combiner(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            effset = _random_effset(rng, 4, 4, 4)  # U*N_s = M_r exactly
            filters = met_bd(effset, 1)
            for u in range(4):
                assert np.linalg.norm(filters[u].w_i) > 1e-8
                for j in range(4):
                    if j != u:
                        cross = filters[u].w_i.conj().T @ effset.h_eff[u, j] @ filters[j].f_i
                        assert np.linalg.norm(cross) <= 1e-8 * np.linalg.norm(effset.h_eff[u, j])

    def test_infeasible_dimensions(self):
        rng = np.random.default_rng(11)
        with pytest.raises(InfeasibleError):
            met_bd(_random_effset(rng, 3, 4, 4), 2)


class TestBdMer:
    def test_single_user_reduces_to_met_mer(self):
        rng = np.random.default_rng(12)
        effset = _random_effset(rng, 1, 4, 4)
        bd = bd_mer(effset, 2)[0]
        mer = met_mer(effset.h_eff[0, 0], 2)
        assert np.allclose(bd.f_i, mer.f_i, atol=1e-12)
        assert np.allclose(bd.w_i, mer.w_i, atol=1e-12)

    def test_zero_cross_interference(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            effset = _random_effset(rng, 2, 4, 4)
            filters = bd_mer(effset, 1)
            for u in range(2):
                j = 1 - u
                # interference caused by user u's precoder at user j's combiner
                cross = filters[j].w_i.conj().T @ effset.h_eff[j, u] @ filters[u].f_i
                assert np.linalg.norm(cross) <= 1e-9 * np.linalg.norm(effset.h_eff[j, u])

    def test_block_structure_leaves_precoder_untouched(self):
        rng = np.random.default_rng(14)
        h00 = np.zeros((4, 4), dtype=complex)
        h00[:, :2] = _random_complex(rng, (4, 2))
        h11 = np.zeros((4, 4), dtype=complex)
        h11[:, 2:] = _random_complex(rng, (4, 2))
        h10 = np.zeros((4, 4), dtype=complex)
        h10[:, 2:] = _random_complex(rng, (4, 2))  # rows orthogonal to user 0 precoders
        h01 = np.zeros((4, 4), dtype=complex)
        h01[:, :2] = _random_complex(rng, (4, 2))
        h_eff = np.stack([np.stack([h00, h01]), np.stack([h10, h11])])
        effset = EffectiveChannelSet(h_eff=h_eff, w_o_gram=np.stack([np.eye(4, dtype=complex)] * 2))
        filters = bd_mer(effset, 1)
        for u, h in ((0, h00), (1, h11)):
            mer = met_mer(h, 1)
            assert np.allclose(filters[u].f_i, mer.f_i, atol=1e-10)

    def test_projector_matches_pseudo_inverse_oracle(self):
        rng = np.random.default_rng(15)
        stack = _random_complex(rng, (2, 6))
        mine = _null_projector(stack, side="right")
        oracle = np.eye(6) - np.linalg.pinv(stack) @ stack
        assert np.allclose(mine, oracle, atol=1e-10)

    def test_infeasible_dimensions(self):
        rng = np.random.default_rng(16)
        with pytest.raises(InfeasibleError):
            bd_mer(_random_effset(rng, 5, 4, 4), 1)


class TestNullProjector:
    @staticmethod
    def _oracle(matrix, side):
        pinv = np.linalg.pinv(matrix, rcond=_RANK_RTOL)
        if side == "left":
            return np.eye(matrix.shape[0]) - matrix @ pinv
        return np.eye(matrix.shape[1]) - pinv @ matrix

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_each_matrix_of_a_stack_gets_its_own_rank(self, side):
        rng = np.random.default_rng(31)
        full = _random_complex(rng, (6, 3))
        deficient = _random_complex(rng, (6, 1)) @ _random_complex(rng, (1, 3))  # rank 1
        stack = np.stack([full, deficient, np.zeros((6, 3))])
        if side == "right":
            stack = stack.swapaxes(-1, -2)
        mine = _null_projector(stack, side)
        assert mine.shape == (3, 6, 6)
        for matrix, projector in zip(stack, mine):
            assert np.allclose(projector, self._oracle(matrix, side), atol=1e-10)

    @pytest.mark.parametrize("side,shape", [("left", (2, 6, 0)), ("right", (2, 0, 6))])
    def test_empty_matrices_give_the_identity(self, side, shape):
        mine = _null_projector(np.zeros(shape, dtype=complex), side)
        for matrix, projector in zip(np.zeros(shape), mine):
            assert np.array_equal(projector, self._oracle(matrix, side))
            assert np.array_equal(projector, np.eye(6))


class TestMetMmse:
    def test_matched_filter_limit(self):
        rng = np.random.default_rng(17)
        effset = _random_effset(rng, 1, 4, 4)
        filters = met_mmse(effset, np.array([1.0]), sigma_n2=1e6, n_s=1)[0]
        matched = effset.h_eff[0, 0] @ filters.f_i
        cosine = abs(np.vdot(filters.w_i, matched)) / (
            np.linalg.norm(filters.w_i) * np.linalg.norm(matched)
        )
        assert cosine > 1 - 1e-6

    def test_minimizes_analytic_mse(self):
        rng = np.random.default_rng(18)
        effset = _random_effset(rng, 2, 4, 4)
        gammas = np.array([0.7, 1.3])
        n_s = 2
        filters = met_mmse(effset, gammas, sigma_n2=0.3, n_s=n_s)
        precoders = [f.f_i for f in filters]
        for u in range(2):
            base = _mse_objective(filters[u].w_i, effset, precoders, gammas, 0.3, n_s, u)
            for _ in range(100):
                delta = _random_complex(rng, filters[u].w_i.shape)
                perturbed = filters[u].w_i + 1e-3 * delta / np.linalg.norm(delta)
                assert _mse_objective(perturbed, effset, precoders, gammas, 0.3, n_s, u) > base

    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(19)
        effset = _random_effset(rng, 2, 5, 4)
        gammas = np.array([1.0, 0.5])
        filters = met_mmse(effset, gammas, sigma_n2=0.2, n_s=2)
        precoders = [f.f_i for f in filters]
        for u in range(2):
            grad = _mse_gradient(filters[u].w_i, effset, precoders, gammas, 0.2, 2, u)
            steered = [effset.h_eff[u, j] @ precoders[j] for j in range(2)]
            hessian_scale = 0.2 + sum(
                (gammas[j] ** 2 / 2) * np.linalg.norm(t) ** 2 for j, t in enumerate(steered)
            )
            assert np.linalg.norm(grad) <= 1e-8 * hessian_scale * max(
                1.0, np.linalg.norm(filters[u].w_i)
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        effset = _random_effset(rng, 2, 3, 3)
        gammas = np.array([0.9, 1.1])
        filters = met_mmse(effset, gammas, sigma_n2=0.4, n_s=1)
        precoders = [f.f_i for f in filters]
        w = filters[0].w_i + 0.1 * _random_complex(rng, filters[0].w_i.shape)
        grad = _mse_gradient(w, effset, precoders, gammas, 0.4, 1, 0)
        step = 1e-6
        for k in range(w.shape[0]):
            for direction, part in ((1.0, np.real), (1.0j, np.imag)):
                bump = np.zeros_like(w)
                bump[k, 0] = direction * step
                fd = (
                    _mse_objective(w + bump, effset, precoders, gammas, 0.4, 1, 0)
                    - _mse_objective(w - bump, effset, precoders, gammas, 0.4, 1, 0)
                ) / (2 * step)
                analytic = 2.0 * part(grad[k, 0])
                assert abs(fd - analytic) <= 1e-4 * max(abs(analytic), 1e-6)

    def test_orthogonal_interference_suppressed_at_low_noise(self):
        rng = np.random.default_rng(21)
        h00 = np.zeros((4, 4), dtype=complex)
        h00[:2, :] = _random_complex(rng, (2, 4))
        h01 = np.zeros((4, 4), dtype=complex)
        h01[2:, :] = _random_complex(rng, (2, 4))
        h_eff = np.stack([np.stack([h00, h01]), np.stack([h01, h00])])
        effset = EffectiveChannelSet(h_eff=h_eff, w_o_gram=np.stack([np.eye(4, dtype=complex)] * 2))
        filters = met_mmse(effset, np.array([1.0, 1.0]), sigma_n2=1e-9, n_s=1)
        w = filters[0].w_i
        signal = abs((w.conj().T @ h00 @ filters[0].f_i)[0, 0])
        leak = abs((w.conj().T @ h01 @ filters[1].f_i)[0, 0])
        assert leak <= 1e-6 * signal

    def test_singular_covariance_raises(self):
        rng = np.random.default_rng(22)
        effset = _random_effset(rng, 1, 2, 2)
        with pytest.raises(SolverError):
            met_mmse(effset, np.array([1.0]), sigma_n2=0.0, n_s=1)

    def test_one_singular_user_raises(self):
        # Only user 1 hears nothing: its received covariance is the zero
        # matrix while the other users' are well conditioned.
        rng = np.random.default_rng(29)
        effset = _random_effset(rng, 3, 3, 3)
        h_eff = effset.h_eff.copy()
        h_eff[1] = 0.0
        w_o_gram = effset.w_o_gram.copy()
        w_o_gram[1] = 0.0
        with pytest.raises(SolverError):
            met_mmse(EffectiveChannelSet(h_eff=h_eff, w_o_gram=w_o_gram), np.ones(3), 0.1, 1)

    def test_gamma_count_validation(self):
        rng = np.random.default_rng(23)
        effset = _random_effset(rng, 2, 3, 3)
        with pytest.raises(ValueError):
            met_mmse(effset, np.array([1.0]), sigma_n2=0.1, n_s=1)


def _guarded_mmse(effset, gammas, sigma_n2, n_s, f_i):
    """MET-MMSE's combiners behind eigvalsh of the whole stack: the certificate's oracle."""
    gammas = np.asarray(gammas, dtype=float)
    steered = effset.h_eff @ f_i[..., None, :, :, :]
    noise = np.asarray(sigma_n2)[..., None, None, None] * effset.w_o_gram
    r_yy = noise + np.einsum(
        "...j,...ujik,...ujlk->...uil", gammas**2 / n_s, steered, steered.conj()
    )
    r_yy = 0.5 * (r_yy + r_yy.conj().swapaxes(-1, -2))
    eigvals = np.linalg.eigvalsh(r_yy)
    if not np.all(eigvals[..., 0] * 1e12 > eigvals[..., -1]):
        raise SolverError("oracle: condition number above 1e12")
    users = np.arange(effset.n_users)
    serving = np.broadcast_to(steered[..., users, users, :, :], r_yy.shape[:-1] + (n_s,))
    return (gammas / n_s)[..., None, None] * np.linalg.solve(r_yy, serving)


def _assert_agrees_with_oracle(effset, gammas, sigma_n2, n_s, f_i):
    """met_mmse raises SolverError exactly when the oracle does, else gives its bits.

    Returns whether both raised.
    """
    try:
        expected = _guarded_mmse(effset, gammas, sigma_n2, n_s, f_i)
    except SolverError:
        with pytest.raises(SolverError):
            met_mmse(effset, gammas, sigma_n2, n_s, f_i=f_i)
        return True
    filters = met_mmse(effset, gammas, sigma_n2, n_s, f_i=f_i)
    assert np.array_equal(filters.w_i, expected)
    assert filters.f_i is f_i
    return False


def _combiner_grams(rng, kind, lead, m_r):
    """W_o^H W_o stacks (*lead, m_r, m_r) of the kinds of combiners the simulator builds."""
    if kind == "identity":  # one layer: a broadcast view, as effective_channels makes
        return np.broadcast_to(np.eye(m_r), (*lead, m_r, m_r))
    n_r = 64
    if kind == "orthonormal":  # CME's eigenvectors
        w_o, _ = np.linalg.qr(_random_complex(rng, (*lead, n_r, m_r)))
    else:  # PPS/SPS: steering vectors of paths within one 5-degree cluster
        centres = rng.uniform(-1.0, 1.0, size=(*lead, 1))
        angles = centres + np.deg2rad(5.0) * rng.uniform(-0.5, 0.5, size=(*lead, m_r))
        w_o = np.exp(1j * np.pi * np.arange(n_r)[:, None] * np.sin(angles[..., None, :]))
        w_o = w_o / np.sqrt(n_r)
        if kind == "zero_row":  # one user's combiner loses a column
            w_o[..., -1, :, :1] = 0.0
    return w_o.conj().swapaxes(-1, -2) @ w_o


class TestMetMmseConditionCertificate:
    """The bound certificate decides exactly as eigenvalues of every covariance would.

    ``_guarded_mmse`` keeps the guard the certificate replaces: eigvalsh of
    the whole stack, then lambda_min * 1e12 > lambda_max.
    """

    @staticmethod
    def _inputs(rng, n_users, m_r, kind, trials, n_s=1):
        """An effective channel set and MET-like precoders at M_t = 4, with or without trials."""
        lead = (2,) if trials else ()
        m_t = 4
        h_eff = _random_complex(rng, (*lead, n_users, n_users, m_r, m_t))
        gram = _combiner_grams(rng, kind, (*lead, n_users), m_r)
        f_i, _ = np.linalg.qr(_random_complex(rng, (*lead, n_users, m_t, n_s)))
        return EffectiveChannelSet(h_eff=h_eff, w_o_gram=gram), f_i

    @pytest.mark.parametrize("trials", [False, True], ids=["levels", "levels_x_trials"])
    @pytest.mark.parametrize(
        "noise, kind",
        [("positive", "identity"), ("positive", "orthonormal"), ("positive", "pps"),
         ("positive", "zero_row"), ("zero", "identity")],
    )
    @pytest.mark.parametrize("m_r", [4, 64])
    @pytest.mark.parametrize("n_users", [1, 4, 32])
    def test_raises_exactly_when_eigenvalues_would(self, n_users, m_r, noise, kind, trials):
        rng = np.random.default_rng([n_users, m_r, len(kind), trials])
        effset, f_i = self._inputs(rng, n_users, m_r, kind, trials)
        sigma_n2 = np.array([1e-3, 10.0] if noise == "positive" else [0.0, 0.0])
        gammas = rng.uniform(0.5, 2.0, size=(2, *f_i.shape[:-2]))
        if trials:  # levels in front of trials
            sigma_n2 = sigma_n2[:, None]
        _assert_agrees_with_oracle(effset, gammas, sigma_n2, 1, f_i)

    @pytest.mark.parametrize("n_users", [1, 4, 32])
    @pytest.mark.parametrize("m_r", [4, 64])
    def test_well_conditioned_one_layer_covariances_take_no_eigenvalues(
        self, monkeypatch, n_users, m_r
    ):
        rng = np.random.default_rng([n_users, m_r])
        effset, f_i = self._inputs(rng, n_users, m_r, "identity", trials=True, n_s=2)
        gammas = rng.uniform(0.5, 2.0, size=(2, *f_i.shape[:-2]))
        calls = []
        real_eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or real_eigvalsh(a))
        _assert_agrees_with_oracle(effset, gammas, np.array([[1e-3], [10.0]]), 2, f_i)
        assert len(calls) == 1 and calls[0].shape == (2, 2, n_users, m_r, m_r)  # the oracle's

    @pytest.mark.parametrize("n_users", [1, 4])
    @pytest.mark.parametrize("m_r", [4, 64])
    @pytest.mark.parametrize(
        "condition, raises", [(1e11, False), (0.98e12, False), (1.02e12, True), (1e13, True)]
    )
    def test_constructed_condition_numbers(self, n_users, m_r, condition, raises):
        # User u's covariance is sigma_n2 Q diag(lam) Q^H plus interference in
        # the span of Q's first m_r - 1 columns, so Q's last column is an
        # eigenvector of both terms, with eigenvalue sigma_n2 * lam[-1]. lam[-1]
        # is set to give the last user's covariance the condition number
        # asked for; the other users' stay far below 1e11. Two levels scale
        # sigma_n2 and gamma^2 alike, so each level has the same conditions.
        rng = np.random.default_rng([n_users, m_r, int(np.log10(condition) * 100)])
        m_t, n_s, sigma_n2 = 4, 1, np.array([0.01, 0.1])
        q, _ = np.linalg.qr(_random_complex(rng, (n_users, m_r, m_r)))
        h_eff = q[:, None, :, :-1] @ _random_complex(rng, (n_users, n_users, m_r - 1, m_t)) * 0.1
        f_i, _ = np.linalg.qr(_random_complex(rng, (n_users, m_t, n_s)))
        gammas = np.sqrt(sigma_n2 / sigma_n2[0])[:, None] * rng.uniform(0.5, 2.0, size=n_users)

        def gram(lam):
            return (q * lam[:, None, :]) @ q.conj().swapaxes(-1, -2)

        lam = np.ones((n_users, m_r))
        lam[:, -1] = 0.0
        steered = h_eff @ f_i[None, :, :, :]
        r_top = sigma_n2[0] * gram(lam) + np.einsum(
            "j,ujik,ujlk->uil", gammas[0] ** 2 / n_s, steered, steered.conj()
        )
        top = np.linalg.eigvalsh(r_top)[:, -1]
        targets = np.full(n_users, 10.0)
        targets[-1] = condition
        lam[:, -1] = top / (targets * sigma_n2[0])
        effset = EffectiveChannelSet(h_eff=h_eff, w_o_gram=gram(lam))
        assert _assert_agrees_with_oracle(effset, gammas, sigma_n2, n_s, f_i) == raises


class TestSingleUserSubspaceAgreement:
    def test_all_schemes_share_the_met_mer_subspaces(self):
        rng = np.random.default_rng(24)
        effset = _random_effset(rng, 1, 5, 5)
        n_s = 2
        mer = met_mer(effset.h_eff[0, 0], n_s)
        bd = met_bd(effset, n_s)[0]
        tx_bd = bd_mer(effset, n_s)[0]
        mmse = met_mmse(effset, np.array([1.0]), sigma_n2=1e8, n_s=n_s)[0]
        for candidate in (bd.w_i, tx_bd.w_i, mmse.w_i):
            assert _max_principal_angle(candidate, mer.w_i) <= 1e-6
        for candidate in (bd.f_i, tx_bd.f_i, mmse.f_i):
            assert _max_principal_angle(candidate, mer.f_i) <= 1e-6


class TestNormalizeGamma:
    @staticmethod
    def _gamma(f_o, f_i, p_t, n_users):
        """normalize_gamma on the norm of the composite precoder F_o @ F_i."""
        return normalize_gamma(composite_precoder(f_o, f_i)[1], p_t, n_users)

    def test_unit_norm_product(self):
        rng = np.random.default_rng(25)
        f_o, _ = np.linalg.qr(_random_complex(rng, (6, 2)))
        f_i = np.zeros((2, 1), dtype=complex)
        f_i[0, 0] = 1.0
        assert abs(self._gamma(f_o, f_i, p_t=3.0, n_users=3) - 1.0) < 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(26)
        f_o = _random_complex(rng, (6, 3))
        f_i = _random_complex(rng, (3, 2))
        gamma = self._gamma(f_o, f_i, 2.0, 4)
        assert abs(self._gamma(f_o, 5.0 * f_i, 2.0, 4) - gamma / 5.0) < 1e-12

    def test_power_contract(self):
        rng = np.random.default_rng(27)
        f_o = _random_complex(rng, (8, 4))
        f_i = _random_complex(rng, (4, 2))
        p_t, n_users = 0.1, 5
        gamma = self._gamma(f_o, f_i, p_t, n_users)
        assert abs(np.linalg.norm(gamma * f_o @ f_i) ** 2 - p_t / n_users) <= 1e-12 * p_t

    def test_total_power_across_users(self):
        rng = np.random.default_rng(28)
        p_t, n_users = 0.4, 6
        total = 0.0
        for _ in range(n_users):
            f_o = _random_complex(rng, (8, 3))
            f_i = _random_complex(rng, (3, 2))
            gamma = self._gamma(f_o, f_i, p_t, n_users)
            total += np.linalg.norm(gamma * f_o @ f_i) ** 2
        assert abs(total - p_t) <= 1e-10 * p_t

    def test_zero_product_rejected(self):
        with pytest.raises(ValueError):
            self._gamma(np.zeros((4, 2)), np.ones((2, 1)), 1.0, 1)

    @pytest.mark.parametrize("offset,rejected", [(1e-8, True), (1e-4, False)])
    def test_cancelled_product_rejected(self, offset, rejected):
        # Two steering vectors `offset` apart, driven in antiphase: F_o F_i
        # is a few times `offset` of ||F_o|| ||F_i||.
        k = np.arange(8)[:, None]
        f_o = np.exp(-1j * np.pi * k * np.array([0.3, 0.3 + offset])) / np.sqrt(8)
        f_i = np.array([[1.0], [-1.0]])
        if rejected:
            with pytest.raises(ValueError, match="cancelled"):
                self._gamma(f_o, f_i, 1.0, 1)
        else:
            assert np.isfinite(self._gamma(f_o, f_i, 1.0, 1))

    def test_one_layer_gamma_uses_the_inner_precoder_alone(self):
        rng = np.random.default_rng(30)
        f_i = _random_complex(rng, (3, 8, 2))
        eye = np.broadcast_to(np.eye(8), (3, 8, 8))
        assert np.array_equal(self._gamma(None, f_i, 0.3, 3), self._gamma(eye, f_i, 0.3, 3))
