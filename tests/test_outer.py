import numpy as np
import pytest

from dsmimo import (
    SCENARIOS,
    ArrayGeometry,
    CovariancePair,
    RankDeficiencyError,
    cme,
    draw_macroscopic,
    estimate_covariances,
    extract_partial_csi,
    path_outer_filters,
    pps,
    pps_indices,
    sps,
    sps_indices,
)
from dsmimo.outer import _SPS_DEGENERATE_RTOL


def _random_manifold(rng, n, n_paths):
    cols = rng.standard_normal((n, n_paths)) + 1j * rng.standard_normal((n, n_paths))
    return cols / np.linalg.norm(cols, axis=0)


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
        filters = cme(self._pair(np.eye(6)), m_t=3, m_r=2)
        assert np.allclose(filters.f_o.conj().T @ filters.f_o, np.eye(3), atol=1e-10)
        assert np.allclose(filters.w_o.conj().T @ filters.w_o, np.eye(2), atol=1e-10)

    def test_diagonal_covariance_picks_leading_axis(self):
        filters = cme(self._pair(np.diag([4.0, 1.0, 0.0, 0.0])), m_t=1, m_r=1)
        assert abs(abs(filters.f_o[0, 0]) - 1.0) < 1e-12
        assert np.allclose(np.abs(filters.f_o[1:, 0]), 0.0, atol=1e-12)

    def test_captures_more_energy_than_random_subspaces(self):
        tx = rx = ArrayGeometry(16)
        macro = draw_macroscopic("poor", 1, np.random.default_rng(0))[0]
        a_t, a_r, _ = extract_partial_csi(macro, tx, rx)
        pair = estimate_covariances(50, np.random.default_rng(1), a_t, a_r)
        filters = cme(pair, m_t=8, m_r=8)
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
        filters = cme(self._pair(cov), m_t=5, m_r=5)
        energies = [
            (filters.f_o[:, k].conj() @ cov @ filters.f_o[:, k]).real for k in range(5)
        ]
        assert all(energies[k] >= energies[k + 1] - 1e-9 for k in range(4))

    def test_rejects_non_hermitian_covariance(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            cme(self._pair(bad), m_t=1, m_r=1)

    def test_rejects_oversized_request(self):
        with pytest.raises(ValueError):
            cme(self._pair(np.eye(4)), m_t=5, m_r=1)


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
            filters = cme(pair, m_t=m, m_r=m)
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
            filters = cme(pair, m_t=16, m_r=16)
            for basis, cov in ((filters.f_o, pair.c_ul), (filters.w_o, pair.c_dl)):
                assert basis.shape == (64, 16)
                assert np.allclose(basis.conj().T @ basis, np.eye(16), atol=1e-12)
                residual = cov - basis @ (basis.conj().T @ cov)
                assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(cov)


class TestPps:
    def test_descending_power_order(self):
        manifold = np.arange(12, dtype=complex).reshape(4, 3)
        selected = pps(manifold, [3.0, 1.0, 2.0], 2)
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
            selection = sps(manifold, macro.magnitudes**2, 16)
            svals = np.linalg.svd(selection, compute_uv=False)
            assert svals[-1] > 1e-8 * svals[0]

    def test_output_is_column_subset(self):
        rng = np.random.default_rng(9)
        manifold = _random_manifold(rng, 8, 5)
        powers = rng.uniform(0.1, 2.0, 5)
        picked = sps(manifold, powers, 3)
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


class TestPathOuterFilters:
    def test_builds_both_sides(self):
        rng = np.random.default_rng(13)
        a_t = _random_manifold(rng, 8, 5)
        a_r = _random_manifold(rng, 6, 5)
        powers = rng.uniform(0.1, 2.0, 5)
        for method in ("pps", "sps"):
            filters = path_outer_filters(a_t, a_r, powers, 3, 2, method)
            assert filters.f_o.shape == (8, 3)
            assert filters.w_o.shape == (6, 2)
            assert filters.method == method

    def test_unknown_method(self):
        rng = np.random.default_rng(14)
        a = _random_manifold(rng, 4, 2)
        with pytest.raises(ValueError):
            path_outer_filters(a, a, [1.0, 1.0], 1, 1, "zf")
