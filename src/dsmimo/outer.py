"""Outer-layer (slow-timescale) filter design.

Three strategies: covariance matrix eigenfilters from statistical CSI, and
two geometric selections (power-dominant and semi-orthogonal) that pick
steering vectors out of the array manifold using exact macroscopic CSI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CovariancePair, _hermitian

_HERMITIAN_RTOL = 1e-10

# A residual below this fraction of the path's own weighted norm (squared) is
# numerical noise left by the projections, i.e. the path is a duplicate of
# the selected span. Clustered manifolds are routinely ill conditioned as a
# whole when all paths are requested, and the selection must still complete
# there, so only genuinely null residuals abort it.
_SPS_DEGENERATE_RTOL = 1e-24


class RankDeficiencyError(RuntimeError):
    """Semi-orthogonal selection ran out of linearly independent paths."""


@dataclass(frozen=True)
class OuterFilters:
    """Outer filter pairs: f_o is (..., N_t, M_t), w_o is (..., N_r, M_r).

    A trial stacks its users on the leading axis.
    """

    f_o: np.ndarray
    w_o: np.ndarray


def _top_eigenvectors(manifold: np.ndarray, weight: np.ndarray, m: int) -> np.ndarray:
    """Leading m eigenvectors of each B K B^H without forming the N x N matrix.

    With B = QR, B K B^H = Q (R K R^H) Q^H, so the eigenvectors are Q times
    those of the p x p matrix R K R^H, p = min(N, L). Beyond p the
    covariance is null; those columns come from the complete QR, which
    spans the orthogonal complement of range(B). B (..., N, L) and
    K (..., L, L) may stack users on leading axes.
    """
    n, n_paths = manifold.shape[-2:]
    if m > n:
        raise ValueError(f"cannot extract {m} eigenvectors from a {n}-dim covariance")
    hermitian_gap = np.linalg.norm(weight - _hermitian(weight), axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(weight, axis=(-2, -1)), 1e-300)
    if np.any(hermitian_gap > _HERMITIAN_RTOL * scale):
        raise ValueError("covariance weight matrix is not Hermitian")
    p = min(n, n_paths)
    q, r = np.linalg.qr(manifold, mode="complete" if m > p else "reduced")
    r = r[..., :p, :]
    _, vecs = np.linalg.eigh(r @ weight @ _hermitian(r))  # eigenvalues ascending
    return np.concatenate([q[..., :p] @ vecs[..., ::-1][..., :m], q[..., p:m]], axis=-1)


def cme(cov: CovariancePair, m_t: int, m_r: int) -> OuterFilters:
    """Covariance matrix eigenfilter: dominant eigenvectors of each covariance.

    f_o holds the m_t leading eigenvectors of the uplink covariance and w_o
    the m_r leading eigenvectors of the downlink covariance, in descending
    eigenvalue order, for every user at once. Columns are orthonormal.
    """
    return OuterFilters(
        f_o=_top_eigenvectors(cov.b_ul, cov.k_ul, m_t),
        w_o=_top_eigenvectors(cov.b_dl, cov.k_dl, m_r),
    )


def pps_indices(powers: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m strongest paths, descending power, ties to lowest index."""
    powers = np.asarray(powers, dtype=float)
    if m > powers.shape[0]:
        raise ValueError(f"requested {m} paths but only {powers.shape[0]} available")
    order = np.argsort(-powers, kind="stable")
    return order[:m]


def pps(manifold: np.ndarray, powers: np.ndarray, m: int) -> np.ndarray:
    """Power-dominant path selection: manifold columns of the m strongest paths."""
    return manifold[:, pps_indices(powers, m)]


def sps_indices(manifold: np.ndarray, powers: np.ndarray, m: int) -> np.ndarray:
    """Greedy semi-orthogonal path selection.

    At step i every remaining power-weighted steering vector is projected
    onto the orthogonal complement of the directions picked so far, and the
    path with the largest residual norm wins. The picked residuals are
    mutually orthogonal, so the complement projection is a sum of rank-1
    terms: one residual matrix is kept across steps, and each pick g
    subtracts g (g^H W) / ||g||^2 once, for O(m N L) work in total
    (Yoo & Goldsmith, JSAC 2006). Every term projects the original weighted
    manifold W (classical Gram-Schmidt), never the running residual: the
    two differ at rounding level, and on clustered manifolds the late picks
    are decided at that level.
    """
    powers = np.asarray(powers, dtype=float)
    n_paths = manifold.shape[1]
    if m > n_paths:
        raise ValueError(f"requested {m} paths but only {n_paths} available")

    weighted = manifold * powers[None, :]
    init_norms2 = np.sum(np.abs(weighted) ** 2, axis=0)

    selected: list[int] = []
    residual = weighted
    remaining = np.ones(n_paths, dtype=bool)
    for _ in range(m):
        if selected:
            # Fold in the newest pick. g stays a view; residual is rebound,
            # never written in place: a copy of g rounds np.vdot differently
            # and flips late picks.
            g = residual[:, selected[-1]]
            residual = residual - np.outer(g, (g.conj() @ weighted) / np.vdot(g, g).real)
        norms2 = np.sum(np.abs(residual) ** 2, axis=0)
        usable = remaining & (norms2 > _SPS_DEGENERATE_RTOL * init_norms2)
        if not np.any(usable):
            raise RankDeficiencyError(
                f"only {len(selected)} of {m} requested paths are linearly independent"
            )
        norms2[~usable] = -1.0
        pick = int(np.argmax(norms2))
        selected.append(pick)
        remaining[pick] = False
    return np.asarray(selected, dtype=int)


def sps(manifold: np.ndarray, powers: np.ndarray, m: int) -> np.ndarray:
    """Semi-orthogonal path selection: manifold columns in selection order."""
    return manifold[:, sps_indices(manifold, powers, m)]


def path_outer_filters(
    a_t: np.ndarray,
    a_r: np.ndarray,
    powers: np.ndarray,
    m_t: int,
    m_r: int,
    method: str,
) -> OuterFilters:
    """Build both outer filters from partial CSI with ``pps`` or ``sps``.

    Manifolds (..., N, L) and powers (..., L) may stack users on leading
    axes; the greedy selection runs user by user.
    """
    select = {"pps": pps, "sps": sps}.get(method)
    if select is None:
        raise ValueError(f"unknown path-selection method {method!r}")
    powers = np.asarray(powers, dtype=float)
    # Column-major per user, as ``manifold[:, idx]`` is: products with F_o
    # then run the same BLAS kernel for every user count, which matters
    # where an inner filter (BD-MER) nulls F_o F_i down to rounding level.
    f_o = np.empty((*a_t.shape[:-2], m_t, a_t.shape[-2]), dtype=a_t.dtype).swapaxes(-1, -2)
    w_o = np.empty((*a_r.shape[:-2], m_r, a_r.shape[-2]), dtype=a_r.dtype).swapaxes(-1, -2)
    for user in np.ndindex(powers.shape[:-1]):
        f_o[user] = select(a_t[user], powers[user], m_t)
        w_o[user] = select(a_r[user], powers[user], m_r)
    return OuterFilters(f_o=f_o, w_o=w_o)
