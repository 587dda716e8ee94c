"""Tour of the clustered channel model and the two CSI products.

Draws macroscopic states for each scattering scenario, realizes channel
matrices, and shows how the estimated covariances concentrate their energy
in the low-dimensional path subspace that the outer filters exploit.
"""

import numpy as np

from dsmimo import (
    ArrayGeometry,
    SCENARIOS,
    draw_macroscopic,
    estimate_covariances,
    extract_partial_csi,
    realize_channel,
)

tx = rx = ArrayGeometry(64)
rng = np.random.default_rng(7)

print("=== scattering scenarios ===")
for scenario, (clusters, n_rays) in SCENARIOS.items():
    macro = draw_macroscopic(scenario, 1, rng)[0]
    phases = rng.uniform(-np.pi, np.pi, macro.n_rays)
    a_t, a_r, _ = extract_partial_csi(macro, tx, rx)
    h = realize_channel(macro, phases, a_t, a_r).dense()
    svals = np.linalg.svd(h, compute_uv=False)
    strong = int(np.sum(svals > 0.1 * svals[0]))
    print(
        f"{scenario:5s}: {clusters:2d} clusters, L={n_rays:2d} rays, "
        f"||H||_F = {np.linalg.norm(h):7.2f}, "
        f"singular values within 10 dB of peak: {strong}"
    )

print()
print("=== statistical CSI: covariance energy concentration ===")
macro = draw_macroscopic("poor", 1, rng)[0]
a_t, a_r, powers = extract_partial_csi(macro, tx, rx)
for n_slots in (1, 10, 100):
    pair = estimate_covariances(macro, n_slots, rng, a_t, a_r)
    eigs = np.sort(np.linalg.eigvalsh(pair.c_ul))[::-1]
    captured = eigs[:8].sum() / eigs.sum()
    print(
        f"n_slots={n_slots:3d}: top-8 eigenvalues hold {captured * 100:6.2f}% "
        f"of trace (channel has L=8 paths)"
    )

print()
print("=== partial CSI: per-path powers and steering vectors ===")
order = np.argsort(powers)[::-1]
print(f"manifold shapes: A_t {a_t.shape}, A_r {a_r.shape}")
print("path powers, strongest first:", np.array2string(powers[order], precision=3))
gram = np.abs(a_t.conj().T @ a_t)
np.fill_diagonal(gram, 0.0)
print(f"largest |<a_i, a_j>| between distinct departure vectors: {gram.max():.3f}")
print("(same-cluster paths stay correlated; that is what SPS guards against)")
