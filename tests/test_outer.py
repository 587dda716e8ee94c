import re

import numpy as np
import pytest

from dsmimo import (
    SCENARIOS,
    ArrayGeometry,
    CovariancePair,
    RankDeficiencyError,
    cme,
    cme_basis,
    draw_macroscopic,
    estimate_covariances,
    extract_partial_csi,
    path_columns,
    path_outer_filters,
    pps,
    pps_indices,
    sps,
    sps_indices,
    sps_order,
)
from dsmimo.outer import _SPS_DEGENERATE_RTOL


def _random_manifold(rng, n, n_paths):
    cols = rng.standard_normal((n, n_paths)) + 1j * rng.standard_normal((n, n_paths))
    return cols / np.linalg.norm(cols, axis=0)


def _lone_path_filters(a_t, a_r, powers, m_t, m_r, method):
    """One width's path-selection filters on their own: the two calls composed."""
    return path_outer_filters(path_columns(a_t, a_r, powers, m_t, m_r, method), m_t, m_r, method)


def _sps_reference(manifold, powers, m):
    """Independent transcription of the greedy selection, using an explicit
    pseudo-inverse projector onto the complement of the selected directions."""
    weighted = manifold * np.asarray(powers, dtype=float)[None, :]
    n = manifold.shape[0]
    remaining = list(range(manifold.shape[1]))
    selected = []
    for _ in range(m):
        if selected:
            g = weighted[:, selected]
            projector = np.eye(n) - g @ np.linalg.pinv(g)
        else:
            projector = np.eye(n)
        residual_norms = {l: np.linalg.norm(projector @ weighted[:, l]) ** 2 for l in remaining}
        pick = max(remaining, key=lambda l: (residual_norms[l], -l))
        selected.append(pick)
        remaining.remove(pick)
    return selected


def _sps_reprojection_reference(manifold, powers, m):
    """The per-step re-projection SPS that the incremental update replaced:
    each step rebuilds the residual from the weighted manifold by
    subtracting the projections on every basis vector picked so far."""
    powers = np.asarray(powers, dtype=float)
    n_paths = manifold.shape[1]
    weighted = manifold * powers[None, :]
    init_norms2 = np.sum(np.abs(weighted) ** 2, axis=0)

    selected = []
    basis = []  # residuals g_(1..i-1) at their selection step
    remaining = np.ones(n_paths, dtype=bool)
    for _ in range(m):
        residual = weighted.copy()
        for g in basis:
            residual -= np.outer(g, (g.conj() @ weighted) / np.vdot(g, g).real)
        norms2 = np.sum(np.abs(residual) ** 2, axis=0)
        usable = remaining & (norms2 > _SPS_DEGENERATE_RTOL * init_norms2)
        if not np.any(usable):
            raise RankDeficiencyError(
                f"only {len(selected)} of {m} requested paths are linearly independent"
            )
        norms2[~usable] = -1.0
        pick = int(np.argmax(norms2))
        selected.append(pick)
        basis.append(residual[:, pick])
        remaining[pick] = False
    return np.asarray(selected, dtype=int)


class TestCme:
    def _pair(self, c_ul, c_dl=None):
        # Identity manifold, so the weight is the dense covariance itself.
        if c_dl is None:
            c_dl = c_ul
        c_ul, c_dl = np.asarray(c_ul, dtype=complex), np.asarray(c_dl, dtype=complex)
        return CovariancePair(b_dl=np.eye(len(c_dl), dtype=complex), k_dl=c_dl,
                              b_ul=np.eye(len(c_ul), dtype=complex), k_ul=c_ul)

    def test_identity_covariance_gives_semi_unitary_filters(self):
        # Fully degenerate spectrum: any orthonormal basis is acceptable.
        filters = cme(cme_basis(self._pair(np.eye(6)), 3, 2), m_t=3, m_r=2)
        assert np.allclose(filters.f_o.conj().T @ filters.f_o, np.eye(3), atol=1e-10)
        assert np.allclose(filters.w_o.conj().T @ filters.w_o, np.eye(2), atol=1e-10)

    def test_diagonal_covariance_picks_leading_axis(self):
        filters = cme(cme_basis(self._pair(np.diag([4.0, 1.0, 0.0, 0.0])), 1, 1), m_t=1, m_r=1)
        assert abs(abs(filters.f_o[0, 0]) - 1.0) < 1e-12
        assert np.allclose(np.abs(filters.f_o[1:, 0]), 0.0, atol=1e-12)

    def test_captures_more_energy_than_random_subspaces(self):
        tx = rx = ArrayGeometry(16)
        macro = draw_macroscopic("poor", 1, np.random.default_rng(0))[0]
        a_t, a_r, _ = extract_partial_csi(macro, tx, rx)
        pair = estimate_covariances(50, np.random.default_rng(1), a_t, a_r)
        filters = cme(cme_basis(pair, 8, 8), m_t=8, m_r=8)
        captured = np.trace(filters.f_o.conj().T @ pair.c_ul @ filters.f_o).real
        rng = np.random.default_rng(2)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8)))
            competitor = np.trace(q.conj().T @ pair.c_ul @ q).real
            assert captured >= competitor - 1e-9

    def test_columns_ordered_by_captured_energy(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        cov = a @ a.conj().T
        filters = cme(cme_basis(self._pair(cov), 5, 5), m_t=5, m_r=5)
        energies = [
            (filters.f_o[:, k].conj() @ cov @ filters.f_o[:, k]).real for k in range(5)
        ]
        assert all(energies[k] >= energies[k + 1] - 1e-9 for k in range(4))

    def test_rejects_non_hermitian_covariance(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            cme(cme_basis(self._pair(bad), 1, 1), m_t=1, m_r=1)

    def test_rejects_oversized_request(self):
        with pytest.raises(ValueError):
            cme(cme_basis(self._pair(np.eye(4)), 5, 1), m_t=5, m_r=1)


def _dense_top_eigenvectors(cov, m):
    """The slow, obvious CME: dense eigh of the expanded N x N covariance."""
    _, vecs = np.linalg.eigh(cov)  # eigenvalues ascending
    return vecs[:, ::-1][:, :m]


def _captured_energy(basis, cov):
    return np.einsum("ik,ij,jk->k", basis.conj(), cov, basis).real


class TestCmeMatchesDenseEigh:
    @staticmethod
    def _drops(scenario):
        tx = rx = ArrayGeometry(64)
        for seed in range(3):
            macro = draw_macroscopic(scenario, 1, np.random.default_rng(seed))[0]
            a_t, a_r, _ = extract_partial_csi(macro, tx, rx)
            yield estimate_covariances(100, np.random.default_rng(100 + seed), a_t, a_r)

    @pytest.mark.parametrize("scenario", ["poor", "fair", "rich"])
    @pytest.mark.parametrize("m", [1, 4, "L"])
    def test_same_subspace_and_energies(self, scenario, m):
        m = SCENARIOS[scenario][1] if m == "L" else m
        for pair in self._drops(scenario):
            filters = cme(cme_basis(pair, m, m), m_t=m, m_r=m)
            for fast, cov in ((filters.f_o, pair.c_ul), (filters.w_o, pair.c_dl)):
                dense = _dense_top_eigenvectors(cov, m)
                eigs = np.append(np.linalg.eigvalsh(cov)[::-1], 0.0)
                # Either solver fixes the span only to within about
                # eps * lambda_1 / gap (Davis-Kahan), so 1e-10 holds where the
                # m-th eigengap is resolvable and the bound widens where the
                # trailing eigenvalues sink to rounding level.
                gap = max(eigs[m - 1] - eigs[m], 1e-300)
                tol = max(1e-10, 1e-14 * eigs[0] / gap)
                projector_gap = fast @ fast.conj().T - dense @ dense.conj().T
                assert np.linalg.norm(projector_gap) <= tol
                np.testing.assert_allclose(
                    _captured_energy(fast, cov), _captured_energy(dense, cov),
                    rtol=0, atol=1e-12 * eigs[0],
                )
                if m == SCENARIOS[scenario][1]:
                    residual = cov - fast @ (fast.conj().T @ cov)
                    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(cov)

    def test_request_beyond_path_count_completes_basis(self):
        for pair in self._drops("poor"):
            filters = cme(cme_basis(pair, 16, 16), m_t=16, m_r=16)
            for basis, cov in ((filters.f_o, pair.c_ul), (filters.w_o, pair.c_dl)):
                assert basis.shape == (64, 16)
                assert np.allclose(basis.conj().T @ basis, np.eye(16), atol=1e-12)
                residual = cov - basis @ (basis.conj().T @ cov)
                assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(cov)


def _one_qr_top_eigenvectors(manifold, weight, m):
    """CME's leading eigenvectors from one QR, complete only when m > p: the
    form that built every width on its own before widths shared a basis."""
    p = min(manifold.shape[-2:])
    q, r = np.linalg.qr(manifold, mode="complete" if m > p else "reduced")
    _, vecs = np.linalg.eigh(r[..., :p, :] @ weight @ r[..., :p, :].conj().swapaxes(-1, -2))
    return np.concatenate([q[..., :p] @ vecs[..., ::-1][..., :m], q[..., p:m]], axis=-1)


class TestCmeSharedBasis:
    """Every CME width from one eigenbasis per side, against each width built alone."""

    @staticmethod
    def _pairs(scenario, n_users=1, n_drops=3):
        tx = rx = ArrayGeometry(64)
        for seed in range(n_drops):
            macro = draw_macroscopic(scenario, n_users, np.random.default_rng(seed))
            if n_users == 1:
                macro = macro[0]
            a_t, a_r, _ = extract_partial_csi(macro, tx, rx)
            yield estimate_covariances(100, np.random.default_rng(100 + seed), a_t, a_r)

    @pytest.mark.parametrize("n_users", [1, 3])
    @pytest.mark.parametrize("scenario", ["poor", "fair", "rich"])
    def test_every_width_up_to_p_equals_a_lone_cme(self, scenario, n_users):
        p = min(64, SCENARIOS[scenario][1])
        for pair in self._pairs(scenario, n_users, n_drops=3 if n_users == 1 else 1):
            basis = cme_basis(pair, p, p)
            for m in range(1, p + 1):
                shared, lone = cme(basis, m, m), cme(cme_basis(pair, m, m), m, m)
                assert np.array_equal(shared.f_o, lone.f_o)
                assert np.array_equal(shared.w_o, lone.w_o)
                # and the one-QR form each width used on its own before
                assert np.array_equal(shared.f_o, _one_qr_top_eigenvectors(pair.b_ul, pair.k_ul, m))
                assert np.array_equal(shared.w_o, _one_qr_top_eigenvectors(pair.b_dl, pair.k_dl, m))

    @pytest.mark.parametrize("scenario", ["poor", "fair"])
    def test_widths_beyond_p_continue_into_the_complement(self, scenario):
        # p = L < N: a basis built for N serves every width; beyond p the
        # eigenvectors come from the reduced QR and the complement from the
        # complete one, where the one-QR form took both from the complete QR.
        p = SCENARIOS[scenario][1]
        for pair in self._pairs(scenario):
            basis = cme_basis(pair, 64, 64)
            for m in range(1, 65):
                shared, lone = cme(basis, m, m), cme(cme_basis(pair, m, m), m, m)
                assert np.array_equal(shared.f_o, lone.f_o)
                assert np.array_equal(shared.w_o, lone.w_o)
                for got, (b, k) in ((shared.f_o, (pair.b_ul, pair.k_ul)),
                                    (shared.w_o, (pair.b_dl, pair.k_dl))):
                    old = _one_qr_top_eigenvectors(b, k, m)
                    if m <= p:
                        assert np.array_equal(got, old)
                    else:
                        np.testing.assert_allclose(got, old, rtol=0, atol=1e-12)

    def test_a_basis_serves_no_width_beyond_its_own(self):
        pair = next(self._pairs("poor"))
        with pytest.raises(ValueError):
            cme(cme_basis(pair, 8, 8), 9, 9)  # built without the complement
        with pytest.raises(ValueError):
            cme_basis(pair, 65, 8)


class TestPps:
    def test_descending_power_order(self):
        manifold = np.arange(12, dtype=complex).reshape(4, 3)
        selected = _lone_path_filters(manifold, manifold, [3.0, 1.0, 2.0], 2, 2, "pps").f_o
        assert np.array_equal(selected[:, 0], manifold[:, 0])
        assert np.array_equal(selected[:, 1], manifold[:, 2])

    def test_full_selection_sorts_all(self):
        assert list(pps_indices([1.0, 5.0, 3.0], 3)) == [1, 2, 0]

    def test_ties_break_to_lowest_index(self):
        powers = [2.0, 1.0, 1.0, 0.5]
        assert list(pps_indices(powers, 3)) == sorted(
            range(4), key=lambda i: (-powers[i], i)
        )[:3]

    def test_power_scaling_invariance(self):
        rng = np.random.default_rng(4)
        powers = rng.uniform(0.1, 2.0, 10)
        assert np.array_equal(pps_indices(powers, 6), pps_indices(1e7 * powers, 6))

    def test_too_many_paths_requested(self):
        with pytest.raises(ValueError):
            pps_indices([1.0, 2.0], 3)
        with pytest.raises(ValueError, match="only 4 available"):
            pps_indices(np.ones((5, 4)), 5)

    @pytest.mark.parametrize("users, m", [((3,), 2), ((2,), 3), ((2, 3), 4)])
    def test_stacked_powers_give_one_order_per_user(self, users, m):
        # The paths are on the last axis, whatever the number of users.
        powers = np.random.default_rng(16).uniform(0.1, 2.0, (*users, 4))
        picks = pps_indices(powers, m)
        assert picks.shape == (*users, m)
        for user in np.ndindex(users):
            assert np.array_equal(picks[user], pps_indices(powers[user], m))


class TestSps:
    def test_orthogonal_columns_match_pps(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5)))
        powers = rng.uniform(0.2, 3.0, 5)
        assert set(sps_indices(q, powers, 3)) == set(pps_indices(powers, 3))

    def test_duplicate_column_is_skipped(self):
        rng = np.random.default_rng(6)
        manifold = _random_manifold(rng, 6, 3)
        manifold[:, 2] = manifold[:, 0]
        picked = sps_indices(manifold, [2.0, 1.0, 2.0], 2)
        assert set(picked) == {0, 1}
        assert picked.tolist() == _sps_reference(manifold, [2.0, 1.0, 2.0], 2)

    def test_single_path_is_power_argmax(self):
        rng = np.random.default_rng(7)
        manifold = _random_manifold(rng, 8, 6)
        powers = rng.uniform(0.1, 4.0, 6)
        assert sps_indices(manifold, powers, 1)[0] == int(np.argmax(powers))

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            manifold = _random_manifold(rng, 10, 7)
            powers = rng.uniform(0.05, 3.0, 7)
            m = int(rng.integers(1, 8))
            assert sps_indices(manifold, powers, m).tolist() == _sps_reference(
                manifold, powers, m
            )

    def test_selected_columns_are_independent(self):
        tx = ArrayGeometry(64)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            macro = draw_macroscopic("fair", 1, rng)[0]
            manifold = np.exp(
                -1j * np.pi * np.arange(64)[:, None] * np.cos(macro.aod)[None, :]
            ) / 8.0
            selection = manifold[:, sps_indices(manifold, macro.magnitudes**2, 16)]
            svals = np.linalg.svd(selection, compute_uv=False)
            assert svals[-1] > 1e-8 * svals[0]

    def test_output_is_column_subset(self):
        rng = np.random.default_rng(9)
        manifold = _random_manifold(rng, 8, 5)
        powers = rng.uniform(0.1, 2.0, 5)
        columns, _ = path_columns(manifold, manifold, powers, 3, 3, "sps")
        assert columns.shape == (8, 3)
        picked = sps(columns, 3)
        idx = sps_indices(manifold, powers, 3)
        for k, col in enumerate(idx):
            assert np.array_equal(picked[:, k], manifold[:, col])

    def test_power_scaling_invariance(self):
        rng = np.random.default_rng(10)
        manifold = _random_manifold(rng, 8, 6)
        powers = rng.uniform(0.1, 2.0, 6)
        assert np.array_equal(
            sps_indices(manifold, powers, 4), sps_indices(manifold, powers * 1e-9, 4)
        )

    def test_rank_deficiency_error(self):
        column = _random_manifold(np.random.default_rng(11), 6, 1)
        manifold = np.repeat(column, 3, axis=1)
        with pytest.raises(RankDeficiencyError):
            sps_indices(manifold, [1.0, 1.0, 1.0], 2)

    def test_too_many_paths_requested(self):
        manifold = _random_manifold(np.random.default_rng(12), 6, 3)
        with pytest.raises(ValueError):
            sps_indices(manifold, [1.0, 1.0, 1.0], 4)

    @pytest.mark.parametrize("manifold_shape, powers_shape", [
        ((2, 8, 5), (2, 5)),  # a stack of users
        ((8, 5), (6,)),  # one power too many
        ((8, 5), (1, 5)),  # powers with a user axis
        ((8,), (8,)),  # a single steering vector
    ])
    def test_order_takes_one_manifold_and_its_powers(self, manifold_shape, powers_shape):
        rng = np.random.default_rng(17)
        manifold = rng.standard_normal(manifold_shape) + 0j
        powers = rng.uniform(0.1, 2.0, powers_shape)
        want = f"got {manifold_shape} and {powers_shape}"
        with pytest.raises(ValueError, match=re.escape(want)):
            sps_order(manifold, powers, 1)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="sps_indices repeats directions at zero spread; ROADMAP item 2",
    )
    def test_picks_independent_directions_at_zero_spread(self):
        # Eight clusters of four identical rays: at most 8 independent paths.
        macro = draw_macroscopic("fair", 1, np.random.default_rng(25), sigma_c_deg=0.0)[0]
        a_t, _, powers = extract_partial_csi(macro, ArrayGeometry(64), ArrayGeometry(64))
        try:
            columns = a_t[:, sps_indices(a_t, powers, 16)]
        except RankDeficiencyError:
            return
        assert np.linalg.matrix_rank(columns) == 16


class TestSpsMatchesReprojection:
    """The incremental residual update against the re-projection it replaced,
    on the clustered manifolds the simulator draws, where late picks are
    decided at rounding level."""

    @staticmethod
    def _compare(scenario, sigma_c_deg):
        n_paths = SCENARIOS[scenario][1]
        array = ArrayGeometry(64)
        outcomes = {"picks": 0, "rank_deficient": 0}
        for seed in range(30):
            rng = np.random.default_rng(seed)
            macro = draw_macroscopic(scenario, 1, rng, sigma_c_deg=sigma_c_deg)[0]
            a_t, a_r, powers = extract_partial_csi(macro, array, array)
            for manifold in (a_t, a_r):
                for m in (n_paths // 8, n_paths // 2, n_paths):
                    try:
                        expected = _sps_reprojection_reference(manifold, powers, m)
                    except RankDeficiencyError:
                        outcomes["rank_deficient"] += 1
                        with pytest.raises(RankDeficiencyError):
                            sps_indices(manifold, powers, m)
                        continue
                    outcomes["picks"] += 1
                    assert np.array_equal(sps_indices(manifold, powers, m), expected)
        return outcomes

    @pytest.mark.parametrize("scenario", ["poor", "fair", "rich"])
    def test_same_picks_on_drawn_manifolds(self, scenario):
        assert self._compare(scenario, sigma_c_deg=5.0)["picks"] == 30 * 2 * 3

    @pytest.mark.parametrize("scenario", ["poor", "fair", "rich"])
    def test_same_failures_on_collapsed_clusters(self, scenario):
        # Zero angle spread repeats each cluster's steering vector, so most
        # requests beyond the cluster count fail; both versions must fail on
        # the same ones.
        outcomes = self._compare(scenario, sigma_c_deg=0.0)
        assert outcomes["picks"] > 0 and outcomes["rank_deficient"] > 0


class TestPathOrders:
    """Every width's selection as a prefix of one gathered stack per side."""

    @staticmethod
    def _drops(scenario, sigma_c_deg=5.0, n_users=1, n_drops=10):
        array = ArrayGeometry(64)
        for seed in range(n_drops):
            macro = draw_macroscopic(scenario, n_users, np.random.default_rng(seed), sigma_c_deg)
            yield extract_partial_csi(macro[0] if n_users == 1 else macro, array, array)

    @pytest.mark.parametrize("scenario", ["poor", "fair", "rich"])
    def test_each_width_is_a_prefix_equal_to_a_lone_selection(self, scenario):
        n_paths = SCENARIOS[scenario][1]
        for a_t, a_r, powers in self._drops(scenario, n_users=2, n_drops=3):
            for method, indices, read in (("pps", lambda a, p, m: pps_indices(p, m), pps),
                                          ("sps", sps_indices, sps)):
                columns = path_columns(a_t, a_r, powers, n_paths, n_paths, method)
                assert [side.shape for side in columns] == [(2, 64, n_paths)] * 2
                for m in range(1, n_paths + 1):
                    shared = path_outer_filters(columns, m, m, method)
                    lone = _lone_path_filters(a_t, a_r, powers, m, m, method)
                    assert np.array_equal(shared.f_o, lone.f_o)
                    assert np.array_equal(shared.w_o, lone.w_o)
                    for u in range(2):
                        cols_t, cols_r = (side[u] for side in columns)
                        want_t = a_t[u][:, indices(a_t[u], powers[u], m)]
                        want_r = a_r[u][:, indices(a_r[u], powers[u], m)]
                        assert np.array_equal(read(cols_t, m), want_t)
                        assert np.array_equal(read(cols_r, m), want_r)
                        assert np.array_equal(shared.f_o[u], want_t)
                        assert np.array_equal(shared.w_o[u], want_r)

    @pytest.mark.parametrize("scenario", ["poor", "fair", "rich"])
    def test_a_short_order_fails_only_the_wider_widths(self, scenario):
        # Zero angle spread repeats each cluster's steering vector, so the
        # greedy order stops where the paths' span runs out and the gathered
        # side keeps its length; narrower widths read their prefix, wider
        # ones raise as a lone selection does.
        n_paths = SCENARIOS[scenario][1]
        short = 0
        for a_t, _, powers in self._drops(scenario, sigma_c_deg=0.0):
            order = sps_order(a_t, powers, n_paths)
            short += order.size < n_paths
            columns = path_columns(a_t, a_t, powers, n_paths, n_paths, "sps")
            assert all(side.shape == (64, order.size) for side in columns)
            for m in range(1, n_paths + 1):
                if m <= order.size:
                    assert np.array_equal(sps_indices(a_t, powers, m), order[:m])
                    filters = path_outer_filters(columns, m, m, "sps")
                    assert np.array_equal(filters.f_o, a_t[:, order[:m]])
                    continue
                with pytest.raises(RankDeficiencyError, match=f"only {order.size} of {m}"):
                    sps_indices(a_t, powers, m)
                with pytest.raises(RankDeficiencyError, match=f"only {order.size} of {m}"):
                    path_outer_filters(columns, m, m, "sps")
        assert short > 0

    def test_users_with_ragged_orders_stack_to_the_shortest(self):
        # User 1 repeats three of its transmit paths and user 2 two, so their
        # SPS orders stop at 3 and 4 of 6 picks; every receive order is full.
        rng = np.random.default_rng(15)
        n, n_paths, n_users = 8, 6, 3
        a_t = np.array([_random_manifold(rng, n, n_paths) for _ in range(n_users)])
        a_r = np.array([_random_manifold(rng, n, n_paths) for _ in range(n_users)])
        a_t[1][:, 3:] = a_t[1][:, :3]
        a_t[2][:, 4:] = a_t[2][:, 2:4]
        powers = rng.uniform(0.1, 2.0, (n_users, n_paths))
        lengths = [sps_order(a_t[u], powers[u], n_paths).size for u in range(n_users)]
        assert lengths == [6, 3, 4]
        cols_t, cols_r = path_columns(a_t, a_r, powers, n_paths, n_paths, "sps")
        assert cols_t.shape == (n_users, n, 3) and cols_r.shape == (n_users, n, n_paths)
        for m_t in range(1, n_paths + 1):
            for m_r in range(1, n_paths + 1):
                if m_t > 3:
                    with pytest.raises(RankDeficiencyError, match=f"only 3 of {m_t}"):
                        path_outer_filters((cols_t, cols_r), m_t, m_r, "sps")
                    continue
                filters = path_outer_filters((cols_t, cols_r), m_t, m_r, "sps")
                for u in range(n_users):
                    want_t = a_t[u][:, sps_indices(a_t[u], powers[u], m_t)]
                    want_r = a_r[u][:, sps_indices(a_r[u], powers[u], m_r)]
                    assert np.array_equal(filters.f_o[u], want_t)
                    assert np.array_equal(filters.w_o[u], want_r)


class TestPathOuterFilters:
    def test_builds_both_sides(self):
        rng = np.random.default_rng(13)
        a_t = _random_manifold(rng, 8, 5)
        a_r = _random_manifold(rng, 6, 5)
        powers = rng.uniform(0.1, 2.0, 5)
        for method in ("pps", "sps"):
            filters = _lone_path_filters(a_t, a_r, powers, 3, 2, method)
            assert filters.f_o.shape == (8, 3)
            assert filters.w_o.shape == (6, 2)

    def test_unknown_method(self):
        rng = np.random.default_rng(14)
        a = _random_manifold(rng, 4, 2)
        with pytest.raises(ValueError):
            path_columns(a, a, [1.0, 1.0], 1, 1, "zf")
        with pytest.raises(ValueError):
            path_outer_filters(path_columns(a, a, [1.0, 1.0], 1, 1, "pps"), 1, 1, "zf")
