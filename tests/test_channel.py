import cmath

import numpy as np
import pytest

from dsmimo import (
    ArrayGeometry,
    FactoredChannel,
    MacroState,
    SCENARIOS,
    draw_macroscopic,
    estimate_covariances,
    extract_partial_csi,
    realize_channel,
    ula_manifold,
    ula_response,
)


def _single_ray_macro(aod, aoa, magnitude=1.0):
    return MacroState(
        aod=np.array([aod]),
        aoa=np.array([aoa]),
        magnitudes=np.array([magnitude]),
        n_clusters=1,
        rays_per_cluster=1,
    )


def _random_macro(rng, n_rays=8, n_clusters=2):
    return MacroState(
        aod=rng.uniform(0.05, np.pi - 0.05, n_rays),
        aoa=rng.uniform(0.05, np.pi - 0.05, n_rays),
        magnitudes=rng.rayleigh(scale=np.sqrt(0.5), size=n_rays),
        n_clusters=n_clusters,
        rays_per_cluster=n_rays // n_clusters,
    )


def _manifolds(macro, tx, rx):
    a_t, a_r, _ = extract_partial_csi(macro, tx, rx)
    return a_t, a_r


class TestUlaResponse:
    def test_single_element(self):
        assert np.allclose(ula_response(ArrayGeometry(1), 0.7), [1.0])

    def test_broadside_four_elements(self):
        vec = ula_response(ArrayGeometry(4), np.pi / 2)
        assert np.allclose(vec, 0.5 * np.ones(4), atol=1e-12)

    def test_entrywise_against_scalar_exponentials(self):
        # cos(pi/3) = 1/2, so entry k is exp(-j*pi*k/2)/2
        vec = ula_response(ArrayGeometry(4), np.pi / 3)
        expected = [0.5 * cmath.exp(-1j * np.pi * k * 0.5) for k in range(4)]
        assert np.allclose(vec, expected, atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for azimuth in rng.uniform(0, np.pi, 50):
            for n in (1, 2, 7, 64):
                assert abs(np.linalg.norm(ula_response(ArrayGeometry(n), azimuth)) - 1.0) < 1e-12

    def test_manifold_stacks_responses(self):
        geom = ArrayGeometry(6)
        azimuths = np.array([0.3, 1.1, 2.9])
        manifold = ula_manifold(geom, azimuths)
        for col, azimuth in enumerate(azimuths):
            assert np.allclose(manifold[:, col], ula_response(geom, azimuth), atol=1e-14)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0)


class TestDrawMacroscopic:
    @pytest.mark.parametrize("scenario", ["poor", "fair", "rich"])
    def test_scenario_sizes(self, scenario):
        clusters, rays = SCENARIOS[scenario]
        states = draw_macroscopic(scenario, 3, np.random.default_rng(1))
        assert states.aod.shape == (3, rays)
        for state in states:
            assert state.n_rays == rays
            assert state.n_clusters == clusters
            assert np.all(state.magnitudes >= 0)
            assert np.all((state.aod >= 0) & (state.aod <= np.pi))
            assert np.all((state.aoa >= 0) & (state.aoa <= np.pi))

    def test_zero_spread_collapses_clusters(self):
        state = draw_macroscopic("poor", 1, np.random.default_rng(2), sigma_c_deg=0.0)[0]
        for c in range(state.n_clusters):
            block = slice(4 * c, 4 * (c + 1))
            assert np.ptp(state.aod[block]) == 0.0
            assert np.ptp(state.aoa[block]) == 0.0

    def test_deterministic_under_fixed_seed(self):
        a = draw_macroscopic("fair", 2, np.random.default_rng(3))
        b = draw_macroscopic("fair", 2, np.random.default_rng(3))
        for x, y in zip(a, b):
            assert np.array_equal(x.aod, y.aod)
            assert np.array_equal(x.aoa, y.aoa)
            assert np.array_equal(x.magnitudes, y.magnitudes)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            draw_macroscopic("urban", 1, np.random.default_rng(0))


class TestRealizeChannel:
    def test_single_path_closed_form(self):
        tx = rx = ArrayGeometry(2)
        macro = _single_ray_macro(aod=0.9, aoa=2.1)
        h = realize_channel(macro, np.zeros(1), *_manifolds(macro, tx, rx))
        outer = 2.0 * np.outer(ula_response(rx, 2.1), ula_response(tx, 0.9))
        assert np.allclose(h, outer, atol=1e-12)
        assert abs(np.linalg.norm(h) - 2.0) < 1e-12

    def test_rank_equals_path_count(self):
        # Full rank holds with probability 1 for independently uniform
        # angles; clustered draws compress the spectrum instead.
        tx = rx = ArrayGeometry(64)
        for seed in range(100):
            macro = _random_macro(np.random.default_rng(seed))
            h = realize_channel(macro, np.zeros(8), *_manifolds(macro, tx, rx))
            svals = np.linalg.svd(h, compute_uv=False)
            assert svals[7] > 1e-8 * svals[0]
            assert svals[8] < 1e-8 * svals[0]  # rank never exceeds L

    def test_linearity_in_single_ray_gain(self):
        tx = rx = ArrayGeometry(8)
        rng = np.random.default_rng(5)
        macro = _random_macro(rng, n_rays=4, n_clusters=1)
        phases = rng.uniform(-np.pi, np.pi, 4)
        boosted = MacroState(
            aod=macro.aod,
            aoa=macro.aoa,
            magnitudes=macro.magnitudes * np.array([3.0, 1.0, 1.0, 1.0]),
            n_clusters=1,
            rays_per_cluster=4,
        )
        diff = (
            realize_channel(boosted, phases, *_manifolds(boosted, tx, rx)).dense()
            - realize_channel(macro, phases, *_manifolds(macro, tx, rx)).dense()
        )
        scale = np.sqrt(8 * 8 / 4)
        term = (
            scale
            * macro.magnitudes[0]
            * np.exp(1j * phases[0])
            * np.outer(ula_response(rx, macro.aoa[0]), ula_response(tx, macro.aod[0]))
        )
        assert np.allclose(diff, 2.0 * term, atol=1e-10)

    def test_mean_square_norm_over_phases(self):
        # E||H||_F^2 = (Nt*Nr/L) * sum magnitudes^2 when phases are uniform;
        # cross terms vanish in expectation.
        tx = rx = ArrayGeometry(8)
        rng = np.random.default_rng(6)
        macro = _random_macro(rng, n_rays=4, n_clusters=1)
        draws = 10_000
        acc = 0.0
        for _ in range(draws):
            phases = rng.uniform(-np.pi, np.pi, 4)
            h = realize_channel(macro, phases, *_manifolds(macro, tx, rx))
            acc += np.linalg.norm(h) ** 2
        expected = (8 * 8 / 4) * np.sum(macro.magnitudes**2)
        assert abs(acc / draws - expected) < 0.02 * expected

    @pytest.mark.parametrize("scenario,factored", [("poor", True), ("fair", True), ("rich", False)])
    def test_factored_while_the_factors_are_no_larger(self, scenario, factored):
        # At 64 x 64, L (N_r + N_t) <= N_r N_t holds up to L = 32 paths.
        tx = rx = ArrayGeometry(64)
        rng = np.random.default_rng(15)
        macro = draw_macroscopic(scenario, 3, rng)
        phases = rng.uniform(-np.pi, np.pi, macro.aod.shape)
        a_t, a_r, _ = extract_partial_csi(macro, tx, rx)
        h = realize_channel(macro, phases, a_t, a_r)
        assert isinstance(h, FactoredChannel) is factored
        assert h.shape == (3, 64, 64)
        scale = np.sqrt(64 * 64 / macro.n_rays)
        for u in range(3):
            terms = [
                scale * macro.magnitudes[u, l] * np.exp(1j * phases[u, l])
                * np.outer(ula_response(rx, macro.aoa[u, l]), ula_response(tx, macro.aod[u, l]))
                for l in range(macro.n_rays)
            ]
            assert np.allclose(np.asarray(h)[u], sum(terms), atol=1e-10)

    def test_factored_channel_has_no_array_view(self):
        array = ArrayGeometry(4)
        macro = _single_ray_macro(0.9, 2.1)
        h = realize_channel(macro, np.zeros(1), *_manifolds(macro, array, array))
        assert np.array_equal(np.asarray(h), h.dense())
        with pytest.raises(ValueError):
            np.asarray(h, copy=False)

    def test_phase_count_mismatch(self):
        macro = _single_ray_macro(1.0, 1.0)
        manifolds = _manifolds(macro, ArrayGeometry(2), ArrayGeometry(2))
        with pytest.raises(ValueError):
            realize_channel(macro, np.zeros(3), *manifolds)


class TestEstimateCovariances:
    def test_matches_brute_force_slot_average(self):
        # Recompute the per-slot gains from a cloned generator and accumulate
        # the Gram matrices explicitly.
        tx, rx = ArrayGeometry(8), ArrayGeometry(6)
        macro = _random_macro(np.random.default_rng(7), n_rays=4, n_clusters=1)
        n_slots = 5
        rng = np.random.default_rng(11)
        pair = estimate_covariances(macro, n_slots, rng, *_manifolds(macro, tx, rx))

        clone = np.random.default_rng(11)
        scale = np.sqrt(8 * 6 / 4 * 1.0 / 2.0)
        gains = scale * (
            clone.standard_normal((n_slots, 4)) + 1j * clone.standard_normal((n_slots, 4))
        )
        a_t = ula_manifold(tx, macro.aod)
        a_r = ula_manifold(rx, macro.aoa)
        c_dl = np.zeros((6, 6), dtype=complex)
        c_ul = np.zeros((8, 8), dtype=complex)
        for s in range(n_slots):
            h = (a_r * gains[s]) @ a_t.T
            c_dl += h @ h.conj().T
            c_ul += h.conj().T @ h
        assert np.allclose(pair.c_dl, c_dl / n_slots, atol=1e-12 * np.linalg.norm(c_dl))
        assert np.allclose(pair.c_ul, c_ul / n_slots, atol=1e-12 * np.linalg.norm(c_ul))

    def test_single_slot_is_one_gram_matrix(self):
        tx = rx = ArrayGeometry(4)
        macro = _random_macro(np.random.default_rng(8), n_rays=4, n_clusters=1)
        rng = np.random.default_rng(9)
        pair = estimate_covariances(macro, 1, rng, *_manifolds(macro, tx, rx))
        clone = np.random.default_rng(9)
        scale = np.sqrt(4 * 4 / 4 / 2.0)
        gains = scale * (clone.standard_normal((1, 4)) + 1j * clone.standard_normal((1, 4)))
        h = (ula_manifold(rx, macro.aoa) * gains[0]) @ ula_manifold(tx, macro.aod).T
        assert np.allclose(pair.c_dl, h @ h.conj().T, atol=1e-12)
        assert np.allclose(pair.c_ul, h.conj().T @ h, atol=1e-12)

    def test_hermitian_psd_and_trace_match(self):
        tx, rx = ArrayGeometry(16), ArrayGeometry(12)
        rng = np.random.default_rng(10)
        for seed in range(10):
            macro = _random_macro(np.random.default_rng(seed))
            pair = estimate_covariances(macro, 13, rng, *_manifolds(macro, tx, rx))
            for c in (pair.c_dl, pair.c_ul):
                assert np.linalg.norm(c - c.conj().T) <= 1e-10 * np.linalg.norm(c)
                eigs = np.linalg.eigvalsh(c)
                assert eigs.min() >= -1e-10 * np.trace(c).real
            assert abs(np.trace(pair.c_dl) - np.trace(pair.c_ul)) <= 1e-10 * abs(
                np.trace(pair.c_ul)
            )

    def test_energy_concentrates_in_path_subspace(self):
        # With fixed angles the channel lives in an L-dimensional subspace,
        # so the top-L eigenvalues carry essentially the whole trace.
        tx = rx = ArrayGeometry(64)
        macro = draw_macroscopic("poor", 1, np.random.default_rng(12))[0]
        rng = np.random.default_rng(13)
        pair = estimate_covariances(macro, 100, rng, *_manifolds(macro, tx, rx))
        eigs = np.sort(np.linalg.eigvalsh(pair.c_ul))[::-1]
        assert eigs[:8].sum() >= 0.99 * eigs.sum()

    def test_slot_count_validation(self):
        macro = _single_ray_macro(1.0, 1.0)
        manifolds = _manifolds(macro, ArrayGeometry(2), ArrayGeometry(2))
        with pytest.raises(ValueError):
            estimate_covariances(macro, 0, np.random.default_rng(0), *manifolds)


class TestExtractPartialCsi:
    def test_single_ray(self):
        a_t, a_r, powers = extract_partial_csi(
            _single_ray_macro(0.8, 1.4, magnitude=2.0), ArrayGeometry(4), ArrayGeometry(4)
        )
        assert a_t.shape == (4, 1) and a_r.shape == (4, 1)
        assert abs(np.linalg.norm(a_t[:, 0]) - 1.0) < 1e-12
        assert np.allclose(powers, [4.0])

    def test_columns_are_steering_vectors(self):
        tx, rx = ArrayGeometry(8), ArrayGeometry(6)
        macro = _random_macro(np.random.default_rng(14))
        a_t, a_r, powers = extract_partial_csi(macro, tx, rx)
        for col in range(macro.n_rays):
            assert np.allclose(a_t[:, col], ula_response(tx, macro.aod[col]), atol=1e-14)
            assert np.allclose(a_r[:, col], ula_response(rx, macro.aoa[col]), atol=1e-14)
        assert np.allclose(powers, macro.magnitudes**2)

    def test_equal_magnitudes_give_constant_powers(self):
        macro = MacroState(
            aod=np.array([0.5, 1.0]),
            aoa=np.array([0.4, 2.0]),
            magnitudes=np.array([1.5, 1.5]),
            n_clusters=1,
            rays_per_cluster=2,
        )
        _, _, powers = extract_partial_csi(macro, ArrayGeometry(4), ArrayGeometry(4))
        assert np.ptp(powers) == 0.0

    def test_identical_angles_give_identical_columns(self):
        macro = MacroState(
            aod=np.array([0.9, 0.9]),
            aoa=np.array([1.2, 2.2]),
            magnitudes=np.array([1.0, 0.5]),
            n_clusters=1,
            rays_per_cluster=2,
        )
        a_t, _, _ = extract_partial_csi(macro, ArrayGeometry(8), ArrayGeometry(8))
        assert np.array_equal(a_t[:, 0], a_t[:, 1])


class TestMacroStateInvariants:
    def test_ray_count_consistency(self):
        with pytest.raises(ValueError):
            MacroState(
                aod=np.zeros(3),
                aoa=np.zeros(3),
                magnitudes=np.ones(3),
                n_clusters=1,
                rays_per_cluster=4,
            )

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            MacroState(
                aod=np.zeros(1),
                aoa=np.zeros(1),
                magnitudes=np.array([-1.0]),
                n_clusters=1,
                rays_per_cluster=1,
            )

    def test_arrays_are_read_only(self):
        macro = _single_ray_macro(1.0, 1.0)
        with pytest.raises(ValueError):
            macro.aod[0] = 2.0
