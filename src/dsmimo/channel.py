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
    """Macroscopic channel state of one link or of every user: ray angles and magnitudes.

    Phases are deliberately absent; they are redrawn per realization.
    Shapes: ``aod``, ``aoa`` and ``magnitudes`` are all (..., L); a drop of
    U users stacks them as (U, L), and ``state[u]`` is user u's own state.
    """

    aod: np.ndarray
    aoa: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self):
        for name in ("aod", "aoa", "magnitudes"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not self.aod.shape == self.aoa.shape == self.magnitudes.shape:
            shapes = (self.aod.shape, self.aoa.shape, self.magnitudes.shape)
            raise ValueError(f"aod, aoa and magnitudes need equal shapes, got {shapes}")
        if np.any(self.magnitudes < 0):
            raise ValueError("ray magnitudes must be nonnegative")

    @property
    def n_rays(self) -> int:
        return self.aod.shape[-1]

    def __getitem__(self, user) -> "MacroState":
        return MacroState(aod=self.aod[user], aoa=self.aoa[user], magnitudes=self.magnitudes[user])


@dataclass(frozen=True)
class CovariancePair:
    """Estimated downlink/uplink channel covariances in factored form.

    Each side is a manifold B (..., N, L) and a Hermitian PSD weight K
    (..., L, L) with covariance C = B K B^H: ``c_dl`` averages H H^H over
    slots (N_r x N_r), ``c_ul`` averages H^H H (N_t x N_t). Leading axes
    index users. The dense matrices are derived on demand and never needed
    to design filters.
    """

    b_dl: np.ndarray
    k_dl: np.ndarray
    b_ul: np.ndarray
    k_ul: np.ndarray

    @property
    def c_dl(self) -> np.ndarray:
        return self.b_dl @ self.k_dl @ _hermitian(self.b_dl)

    @property
    def c_ul(self) -> np.ndarray:
        return self.b_ul @ self.k_ul @ _hermitian(self.b_ul)


@dataclass(frozen=True)
class FactoredChannel:
    """Downlink channels H = (A_r D) A_t^T kept as their two factors.

    ``rx_gains`` (..., N_r, L) is the arrival manifold with each path's
    column scaled by its complex gain, ``a_t`` (..., N_t, L) the departure
    manifold; leading axes index users. H has rank at most L, and the
    two-layer path reads it only through products with filters, so the
    dense (..., N_r, N_t) matrices are formed only by :meth:`dense`, or
    where an array is expected.
    """

    rx_gains: np.ndarray
    a_t: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return (*self.rx_gains.shape[:-1], self.a_t.shape[-2])

    def dense(self) -> np.ndarray:
        return self.rx_gains @ self.a_t.swapaxes(-1, -2)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a factored channel has no dense array to view without a copy")
        return np.asarray(self.dense(), dtype=dtype)


def _hermitian(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _check_user_stacks(filters, channels) -> None:
    """Reject operands that are not matrix stacks of one user count on axis -3.

    ``filters`` may carry leading level axes (..., U, ...), which the
    products broadcast; ``channels`` carries no more of them.
    """
    shapes = (filters.shape, channels.shape)
    if not 3 <= len(shapes[1]) <= len(shapes[0]):
        raise ValueError(f"expected (U, ...) stacks or per-user lists of matrices, got {shapes}")
    # Checked before any product: matmul would broadcast a stack of one user to all of them.
    if shapes[0][-3] != shapes[1][-3]:
        raise ValueError(f"filters and channels must describe the same user set, got {shapes}")


def _combine(w: np.ndarray, channels: FactoredChannel | np.ndarray) -> np.ndarray:
    """Each user's channel seen through its own combiner, W_u^H H_u: (..., U, a, N_t).

    From combiners (..., U, N_r, a) and channels (U, N_r, N_t) or their
    :class:`FactoredChannel`; a factored channel is combined as
    (W_u^H A_r,u D_u) A_t,u^T, so no N_r x N_t matrix is formed. Channels
    given as a list of matrices are stacked.
    """
    if not isinstance(channels, FactoredChannel):
        channels = np.asarray(channels)
    _check_user_stacks(w, channels)
    if isinstance(channels, FactoredChannel):
        return (_hermitian(w) @ channels.rx_gains) @ channels.a_t.swapaxes(-1, -2)
    return _hermitian(w) @ channels


def _cross_products(combined: np.ndarray, f: np.ndarray) -> np.ndarray:
    """All (combiner owner, precoder owner) products, out[..., u, :, j, :] = (W_u^H H_u) F_j.

    From combined channels (..., U, a, N_t), as :func:`_combine` makes them,
    and precoders (..., U, N_t, b), as one product per level of the stacked
    combined channels (U a, N_t) with the stacked precoders (N_t, U b):
    (..., U, a, U, b).
    """
    _check_user_stacks(f, combined)
    *_, n_users, n_t, b = f.shape
    if combined.shape[-1] != n_t:
        raise ValueError(f"combined channels {combined.shape} do not match precoders {f.shape}")
    stacked = combined.reshape(*combined.shape[:-3], -1, n_t)
    products = stacked @ f.swapaxes(-3, -2).reshape(*f.shape[:-3], n_t, n_users * b)
    return products.reshape(*products.shape[:-2], n_users, -1, n_users, b)


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
    """Steering vectors as columns: azimuths (..., L) give shape (..., n_elements, L)."""
    azimuths = np.asarray(azimuths, dtype=float)
    k = np.arange(geometry.n_elements)[:, None]
    phase = np.pi * np.cos(azimuths)[..., None, :]
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
) -> MacroState:
    """Draw the slow-timescale state of every user for one experiment drop.

    Per user and cluster, a mean azimuth is drawn uniformly in (0, 180) deg,
    independently for departure and arrival; each of the cluster's rays gets
    a Gaussian offset with standard deviation ``sigma_c_deg``. Magnitudes are
    |CN(0, 1)| draws, i.e. Rayleigh with scale sqrt(1/2), held fixed for the
    whole drop. Users are drawn one after another and stacked: the arrays of
    the returned state are (n_users, L).

    Per user the stream gives, in order, 2 n_clusters uniforms (departure,
    then arrival means), 2 L standard normals (offsets, same order) and L
    standard exponentials: ziggurat draws take a variable number of raw
    outputs per value, so users cannot share a call. The transforms of
    ``Generator.uniform``, ``normal`` and ``rayleigh`` then run once on all
    users (low + range u, loc + scale z, mode sqrt(2 e)), bit for bit.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {sorted(SCENARIOS)}")
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    n_clusters, n_rays = SCENARIOS[scenario]

    means = np.empty((n_users, 2, n_clusters))
    offsets = np.empty((n_users, 2, n_rays))
    exponentials = np.empty((n_users, n_rays))
    for u in range(n_users):
        rng.random(out=means[u])
        rng.standard_normal(out=offsets[u])
        rng.standard_exponential(out=exponentials[u])
    angles = np.repeat(180.0 * means, RAYS_PER_CLUSTER, axis=-1) + sigma_c_deg * offsets
    angles = np.deg2rad(_fold_azimuth_deg(angles))
    return MacroState(
        aod=angles[:, 0],
        aoa=angles[:, 1],
        magnitudes=np.sqrt(0.5) * np.sqrt(2.0 * exponentials),
    )


def realize_channel(
    macro: MacroState, phases: np.ndarray, a_t: np.ndarray, a_r: np.ndarray
) -> FactoredChannel | np.ndarray:
    """One fading realization of the (..., N_r, N_t) downlink channel matrices.

    H = sqrt(N_t N_r / L) * sum_l m_l e^{j theta_l} a_r(aoa_l) a_t(aod_l)^T
    for a state of shape (..., L) and phases of the same shape. Note the
    plain transpose on the departure steering vector. ``a_t`` and ``a_r``
    are the state's manifolds, as :func:`extract_partial_csi` returns them;
    the rays stay fixed for the whole drop, so one pair serves its CSI and
    every realization. H is returned factored as (A_r D) A_t^T while the
    factors hold no more entries than H, L (N_r + N_t) <= N_r N_t, and as
    the dense matrices otherwise (rich scattering on small arrays).
    """
    if not a_t.shape[:-2] == a_r.shape[:-2] == macro.aod.shape[:-1]:
        raise ValueError(
            f"manifolds {a_t.shape}, {a_r.shape} do not match a state of {macro.aod.shape}"
        )
    phases = np.asarray(phases, dtype=float)
    if phases.shape != macro.aod.shape:
        raise ValueError(f"expected phases of shape {macro.aod.shape}, got {phases.shape}")
    n_t, n_r = a_t.shape[-2], a_r.shape[-2]
    gains = np.sqrt(n_t * n_r / macro.n_rays) * macro.magnitudes * np.exp(1j * phases)
    rx_gains = a_r * gains[..., None, :]
    if macro.n_rays * (n_r + n_t) > n_r * n_t:
        return rx_gains @ a_t.swapaxes(-1, -2)
    return FactoredChannel(rx_gains=rx_gains, a_t=a_t)


def estimate_covariances(
    n_slots: int, rng: np.random.Generator, a_t: np.ndarray, a_r: np.ndarray
) -> CovariancePair:
    """Estimate downlink/uplink covariances by averaging over fading slots.

    Each slot redraws the L complex path gains as CN(0, 1) while the ray
    angles stay fixed. Gains are consumed from ``rng`` as standard normals
    of shape (..., 2, n_slots, L) for manifolds of shape (..., N, L): per
    user a real and an imaginary block. So the estimate carries the drop's
    angular structure but only the ensemble path power. This keeps
    statistical CSI coarser than partial CSI, which knows the drop's
    realized per-path powers. The slot average of H H^H and H^H H is kept
    in factored form on the L x L gain correlation: uplink B = conj(A_t),
    K = gram(A_r) o corr; downlink B = A_r, K = conj(gram(A_t) o corr).
    This is algebraically identical to accumulating per-slot Gram matrices
    but independent of the antenna counts. The drop's manifolds ``a_t`` and
    ``a_r``, as :func:`extract_partial_csi` returns them, alone size the draw.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    if a_t.shape[:-2] != a_r.shape[:-2]:
        raise ValueError(f"manifolds {a_t.shape} and {a_r.shape} have different user axes")
    *users, n_t, n_rays = a_t.shape
    scale = np.sqrt(n_t * a_r.shape[-2] / n_rays / 2.0)
    draws = rng.standard_normal((*users, 2, n_slots, n_rays))
    gains = np.empty(draws[..., 0, :, :].shape, dtype=complex)
    np.multiply(scale, draws[..., 0, :, :], out=gains.real)
    np.multiply(scale, draws[..., 1, :, :], out=gains.imag)
    del draws  # only the gains and their conjugate are alive in the Gram product
    corr = _hermitian(gains) @ gains / n_slots  # [k,l] = avg conj(g_k) g_l

    k_ul = (_hermitian(a_r) @ a_r) * corr
    k_dl = ((_hermitian(a_t) @ a_t) * corr).conj()
    return CovariancePair(
        b_dl=a_r, k_dl=0.5 * (k_dl + _hermitian(k_dl)),
        b_ul=a_t.conj(), k_ul=0.5 * (k_ul + _hermitian(k_ul)),
    )


def extract_partial_csi(
    macro: MacroState,
    tx: ArrayGeometry,
    rx: ArrayGeometry,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact macroscopic CSI: manifold matrices and per-path powers.

    Returns (A_t, A_r, powers) with shapes (..., N_t, L), (..., N_r, L),
    (..., L) for a state of shape (..., L); powers are squared gain
    magnitudes. The manifolds also serve :func:`estimate_covariances` and
    :func:`realize_channel`.
    """
    a_t = ula_manifold(tx, macro.aod)
    a_r = ula_manifold(rx, macro.aoa)
    return a_t, a_r, macro.magnitudes**2
