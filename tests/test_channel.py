import cmath
import tracemalloc
from types import SimpleNamespace

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
from dsmimo.channel import RAYS_PER_CLUSTER, _fold_azimuth_deg


def _single_ray_macro(aod, aoa, magnitude=1.0):
    return MacroState(
        aod=np.array([aod]),
        aoa=np.array([aoa]),
        magnitudes=np.array([magnitude]),
    )


def _random_macro(rng, n_rays=8):
    return MacroState(
        aod=rng.uniform(0.05, np.pi - 0.05, n_rays),
        aoa=rng.uniform(0.05, np.pi - 0.05, n_rays),
        magnitudes=rng.rayleigh(scale=np.sqrt(0.5), size=n_rays),
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
        assert rays == clusters * RAYS_PER_CLUSTER
        states = draw_macroscopic(scenario, 3, np.random.default_rng(1))
        assert states.aod.shape == (3, rays)
        for state in states:
            assert state.n_rays == rays
            assert np.all(state.magnitudes >= 0)
            assert np.all((state.aod >= 0) & (state.aod <= np.pi))
            assert np.all((state.aoa >= 0) & (state.aoa <= np.pi))

    def test_zero_spread_collapses_clusters(self):
        state = draw_macroscopic("poor", 1, np.random.default_rng(2), sigma_c_deg=0.0)[0]
        for c in range(SCENARIOS["poor"][0]):
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

    @staticmethod
    def _reference_draw(scenario, n_users, rng, sigma_c_deg):
        """The per-user loop of five generator calls that the bulk draw replaced."""
        n_clusters, n_rays = SCENARIOS[scenario]
        dep = np.empty((n_users, n_rays))
        arr = np.empty((n_users, n_rays))
        magnitudes = np.empty((n_users, n_rays))
        for u in range(n_users):
            mean_dep = rng.uniform(0.0, 180.0, size=n_clusters)
            mean_arr = rng.uniform(0.0, 180.0, size=n_clusters)
            dep[u] = rng.normal(np.repeat(mean_dep, RAYS_PER_CLUSTER), sigma_c_deg)
            arr[u] = rng.normal(np.repeat(mean_arr, RAYS_PER_CLUSTER), sigma_c_deg)
            magnitudes[u] = rng.rayleigh(scale=np.sqrt(0.5), size=n_rays)
        return (
            np.deg2rad(_fold_azimuth_deg(dep)),
            np.deg2rad(_fold_azimuth_deg(arr)),
            magnitudes,
        )

    @pytest.mark.parametrize("sigma_c_deg", [0.0, 2.5, 5.0])
    @pytest.mark.parametrize("n_users", [1, 2, 5, 32])
    @pytest.mark.parametrize("scenario", ["poor", "fair", "rich"])
    def test_bulk_draw_matches_per_user_generator_calls(self, scenario, n_users, sigma_c_deg):
        # Equal values and an equal generator state afterwards: the bulk
        # draw consumes the stream exactly as the per-user calls did.
        for seed in range(40):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            state = draw_macroscopic(scenario, n_users, rng, sigma_c_deg)
            aod, aoa, magnitudes = self._reference_draw(scenario, n_users, ref_rng, sigma_c_deg)
            assert np.array_equal(state.aod, aod)
            assert np.array_equal(state.aoa, aoa)
            assert np.array_equal(state.magnitudes, magnitudes)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


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
        macro = _random_macro(rng, n_rays=4)
        phases = rng.uniform(-np.pi, np.pi, 4)
        boosted = MacroState(
            aod=macro.aod,
            aoa=macro.aoa,
            magnitudes=macro.magnitudes * np.array([3.0, 1.0, 1.0, 1.0]),
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
        macro = _random_macro(rng, n_rays=4)
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

    @pytest.mark.parametrize("users_t,users_r", [(1, 2), (2, 1), (1, 1)])
    def test_manifolds_must_cover_the_state_users(self, users_t, users_r):
        # One user's manifold would otherwise broadcast to both users.
        macro = draw_macroscopic("poor", 2, np.random.default_rng(17))
        a_t, a_r = _manifolds(macro, ArrayGeometry(16), ArrayGeometry(16))
        with pytest.raises(ValueError, match="do not match"):
            realize_channel(macro, np.zeros(macro.aod.shape), a_t[:users_t], a_r[:users_r])


class TestEstimateCovariances:
    def test_matches_brute_force_slot_average(self):
        # Recompute the per-slot gains from a cloned generator and accumulate
        # the Gram matrices explicitly.
        tx, rx = ArrayGeometry(8), ArrayGeometry(6)
        macro = _random_macro(np.random.default_rng(7), n_rays=4)
        n_slots = 5
        rng = np.random.default_rng(11)
        pair = estimate_covariances(n_slots, rng, *_manifolds(macro, tx, rx))

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
        macro = _random_macro(np.random.default_rng(8), n_rays=4)
        rng = np.random.default_rng(9)
        pair = estimate_covariances(1, rng, *_manifolds(macro, tx, rx))
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
            pair = estimate_covariances(13, rng, *_manifolds(macro, tx, rx))
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
        pair = estimate_covariances(100, rng, *_manifolds(macro, tx, rx))
        eigs = np.sort(np.linalg.eigvalsh(pair.c_ul))[::-1]
        assert eigs[:8].sum() >= 0.99 * eigs.sum()

    def test_slot_gains_need_no_full_size_temporaries(self):
        # The slot gains are filled in place from the normal draws, so the
        # call's heap peak is the draws plus the gains (or the gains plus
        # their conjugate in the Gram product) and a few (U, L, L) matrices.
        # 32 users, 8 paths and 100 slots: draws and gains are 410 KB each.
        n_users, n_slots = 32, 100
        macro = draw_macroscopic("poor", n_users, np.random.default_rng(1))
        manifolds = _manifolds(macro, ArrayGeometry(64), ArrayGeometry(64))
        estimate_covariances(n_slots, np.random.default_rng(2), *manifolds)
        n_rays = macro.n_rays
        draws_bytes = n_users * 2 * n_slots * n_rays * np.dtype(float).itemsize
        gains_bytes = n_users * n_slots * n_rays * np.dtype(complex).itemsize
        slack = 4 * n_users * n_rays * n_rays * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            estimate_covariances(n_slots, np.random.default_rng(2), *manifolds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < draws_bytes + gains_bytes + slack

    def test_draw_is_sized_by_the_manifolds(self):
        # Three users' manifolds take three users' slot gains, whatever state
        # they came from; each user's pair equals a one-user estimate on its
        # own block of the draws.
        tx, rx = ArrayGeometry(8), ArrayGeometry(6)
        macro = draw_macroscopic("poor", 3, np.random.default_rng(15))
        a_t, a_r = _manifolds(macro, tx, rx)
        n_slots = 7
        rng, clone = np.random.default_rng(16), np.random.default_rng(16)
        pair = estimate_covariances(n_slots, rng, a_t, a_r)
        draws = clone.standard_normal((3, 2, n_slots, macro.n_rays))
        assert rng.bit_generator.state == clone.bit_generator.state
        assert pair.k_ul.shape == pair.k_dl.shape == (3, macro.n_rays, macro.n_rays)
        for u in range(3):
            replay = SimpleNamespace(standard_normal=lambda shape, block=draws[u]: block)
            one = estimate_covariances(n_slots, replay, a_t[u], a_r[u])
            for got, want in ((pair.k_ul[u], one.k_ul), (pair.k_dl[u], one.k_dl)):
                assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())

    def test_manifolds_must_have_the_same_users(self):
        macro = draw_macroscopic("poor", 2, np.random.default_rng(18))
        a_t, a_r = _manifolds(macro, ArrayGeometry(16), ArrayGeometry(16))
        for pair in ((a_t, a_r[:1]), (a_t[:1], a_r), (a_t, a_r[0])):
            with pytest.raises(ValueError, match="different user axes"):
                estimate_covariances(10, np.random.default_rng(0), *pair)

    def test_slot_count_validation(self):
        macro = _single_ray_macro(1.0, 1.0)
        manifolds = _manifolds(macro, ArrayGeometry(2), ArrayGeometry(2))
        with pytest.raises(ValueError):
            estimate_covariances(0, np.random.default_rng(0), *manifolds)


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
        )
        _, _, powers = extract_partial_csi(macro, ArrayGeometry(4), ArrayGeometry(4))
        assert np.ptp(powers) == 0.0

    def test_identical_angles_give_identical_columns(self):
        macro = MacroState(
            aod=np.array([0.9, 0.9]),
            aoa=np.array([1.2, 2.2]),
            magnitudes=np.array([1.0, 0.5]),
        )
        a_t, _, _ = extract_partial_csi(macro, ArrayGeometry(8), ArrayGeometry(8))
        assert np.array_equal(a_t[:, 0], a_t[:, 1])


class TestMacroStateInvariants:
    def test_ray_count_consistency(self):
        # The arrays alone give the ray count, so they must agree on it and
        # on the user axis.
        for aoa, magnitudes in [
            (np.zeros(4), np.ones(3)),
            (np.zeros(3), np.ones(4)),
            (np.zeros((2, 3)), np.ones((2, 3))),
        ]:
            with pytest.raises(ValueError, match="equal shapes"):
                MacroState(aod=np.zeros(3), aoa=aoa, magnitudes=magnitudes)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            MacroState(
                aod=np.zeros(1),
                aoa=np.zeros(1),
                magnitudes=np.array([-1.0]),
            )

    def test_arrays_are_read_only(self):
        macro = _single_ray_macro(1.0, 1.0)
        with pytest.raises(ValueError):
            macro.aod[0] = 2.0
