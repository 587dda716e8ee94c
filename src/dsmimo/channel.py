"""Clustered mmWave channel model for double-sided massive MIMO links.

Angles are azimuths in radians internally; scenario parameters are quoted in
degrees where that is the natural unit. All randomness flows through an
explicit ``numpy.random.Generator`` so that every draw is reproducible and
callers can run independent substreams concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Scattering scenarios: name -> (number of clusters, total number of rays).
SCENARIOS = {
    "poor": (2, 8),
    "fair": (8, 32),
    "rich": (16, 64),
}

RAYS_PER_CLUSTER = 4


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array of omnidirectional elements at half-wavelength spacing."""

    n_elements: int

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")


@dataclass(frozen=True)
class MacroState:
    """Macroscopic channel state of one link: ray angles and magnitudes.

    Phases are deliberately absent; they are redrawn per realization.
    Shapes: ``aod``, ``aoa`` and ``magnitudes`` are all (L,) with
    L = n_clusters * rays_per_cluster.
    """

    aod: np.ndarray
    aoa: np.ndarray
    magnitudes: np.ndarray
    n_clusters: int
    rays_per_cluster: int = RAYS_PER_CLUSTER

    def __post_init__(self):
        for name in ("aod", "aoa", "magnitudes"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        expected = self.n_clusters * self.rays_per_cluster
        if not (self.aod.shape == self.aoa.shape == self.magnitudes.shape == (expected,)):
            raise ValueError(
                f"expected {expected} rays, got shapes "
                f"{self.aod.shape}/{self.aoa.shape}/{self.magnitudes.shape}"
            )
        if np.any(self.magnitudes < 0):
            raise ValueError("ray magnitudes must be nonnegative")

    @property
    def n_rays(self) -> int:
        return self.aod.shape[0]


@dataclass(frozen=True)
class CovariancePair:
    """Estimated downlink/uplink channel covariances in factored form.

    Each side is a manifold B (N x L) and a Hermitian PSD weight K (L x L)
    with covariance C = B K B^H: ``c_dl`` averages H H^H over slots
    (N_r x N_r), ``c_ul`` averages H^H H (N_t x N_t). The dense matrices
    are derived on demand and never needed to design filters.
    """

    b_dl: np.ndarray
    k_dl: np.ndarray
    b_ul: np.ndarray
    k_ul: np.ndarray

    @property
    def c_dl(self) -> np.ndarray:
        return self.b_dl @ self.k_dl @ self.b_dl.conj().T

    @property
    def c_ul(self) -> np.ndarray:
        return self.b_ul @ self.k_ul @ self.b_ul.conj().T


def ula_response(geometry: ArrayGeometry, azimuth: float) -> np.ndarray:
    """Unit-norm ULA steering vector at the given azimuth.

    Entry k equals exp(-j*pi*k*cos(azimuth)) / sqrt(N) at half-wavelength
    spacing.
    """
    n = geometry.n_elements
    k = np.arange(n)
    phase = np.pi * np.cos(azimuth)
    return np.exp(-1j * phase * k) / np.sqrt(n)


def ula_manifold(geometry: ArrayGeometry, azimuths: np.ndarray) -> np.ndarray:
    """Stack steering vectors column-wise: shape (n_elements, len(azimuths))."""
    azimuths = np.asarray(azimuths, dtype=float)
    k = np.arange(geometry.n_elements)[:, None]
    phase = np.pi * np.cos(azimuths)[None, :]
    return np.exp(-1j * k * phase) / np.sqrt(geometry.n_elements)


def _fold_azimuth_deg(angles: np.ndarray) -> np.ndarray:
    """Reflect arbitrary angles (degrees) back into [0, 180].

    cos() is even and 2*pi-periodic, so reflection leaves every steering
    vector unchanged while keeping the angle distribution free of boundary
    atoms (a hard clamp would create exactly duplicated rays).
    """
    folded = np.mod(angles, 360.0)
    return np.where(folded > 180.0, 360.0 - folded, folded)


def draw_macroscopic(
    scenario: str,
    n_users: int,
    rng: np.random.Generator,
    sigma_c_deg: float = 5.0,
) -> list[MacroState]:
    """Draw the slow-timescale state of every user for one experiment drop.

    Per user and cluster, a mean azimuth is drawn uniformly in (0, 180) deg,
    independently for departure and arrival; each of the cluster's rays gets
    a Gaussian offset with standard deviation ``sigma_c_deg``. Magnitudes are
    |CN(0, 1)| draws, i.e. Rayleigh with scale sqrt(1/2), held fixed for the
    whole drop.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {sorted(SCENARIOS)}")
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
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
                n_clusters=n_clusters,
            )
        )
    return states


def realize_channel(
    macro: MacroState,
    phases: np.ndarray,
    tx: ArrayGeometry,
    rx: ArrayGeometry,
) -> np.ndarray:
    """One fading realization of the (N_r, N_t) downlink channel matrix.

    H = sqrt(N_t N_r / L) * sum_l m_l e^{j theta_l} a_r(aoa_l) a_t(aod_l)^T.
    Note the plain transpose on the departure steering vector.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (macro.n_rays,):
        raise ValueError(f"expected {macro.n_rays} phases, got shape {phases.shape}")
    a_t = ula_manifold(tx, macro.aod)
    a_r = ula_manifold(rx, macro.aoa)
    scale = np.sqrt(tx.n_elements * rx.n_elements / macro.n_rays)
    gains = scale * macro.magnitudes * np.exp(1j * phases)
    return (a_r * gains) @ a_t.T


def estimate_covariances(
    macro: MacroState,
    n_slots: int,
    rng: np.random.Generator,
    tx: ArrayGeometry,
    rx: ArrayGeometry,
) -> CovariancePair:
    """Estimate downlink/uplink covariances by averaging over fading slots.

    Each slot redraws the L complex path gains as CN(0, 1)
    (consumed from ``rng`` as two standard-normal blocks of shape
    (n_slots, L)) while the ray angles stay fixed, so the estimate carries
    the drop's angular structure but only the ensemble path power. This
    keeps statistical CSI coarser than partial CSI, which knows the drop's
    realized per-path powers. The slot average of H H^H and H^H H is kept
    in factored form on the L x L gain correlation: uplink B = conj(A_t),
    K = gram(A_r) o corr; downlink B = A_r, K = conj(gram(A_t) o corr).
    This is algebraically identical to accumulating per-slot Gram matrices
    but independent of the antenna counts.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    n_rays = macro.n_rays
    scale = np.sqrt(tx.n_elements * rx.n_elements / n_rays / 2.0)
    gains = scale * (
        rng.standard_normal((n_slots, n_rays)) + 1j * rng.standard_normal((n_slots, n_rays))
    )

    a_t = ula_manifold(tx, macro.aod)
    a_r = ula_manifold(rx, macro.aoa)
    gram_r = a_r.conj().T @ a_r
    gram_t = a_t.conj().T @ a_t
    corr = gains.conj().T @ gains / n_slots  # [k,l] = avg conj(g_k) g_l

    k_ul = gram_r * corr
    k_dl = (gram_t * corr).conj()
    return CovariancePair(
        b_dl=a_r, k_dl=0.5 * (k_dl + k_dl.conj().T),
        b_ul=a_t.conj(), k_ul=0.5 * (k_ul + k_ul.conj().T),
    )


def extract_partial_csi(
    macro: MacroState,
    tx: ArrayGeometry,
    rx: ArrayGeometry,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact macroscopic CSI: manifold matrices and per-path powers.

    Returns (A_t, A_r, powers) with shapes (N_t, L), (N_r, L), (L,);
    powers are squared gain magnitudes.
    """
    a_t = ula_manifold(tx, macro.aod)
    a_r = ula_manifold(rx, macro.aoa)
    return a_t, a_r, macro.magnitudes**2
