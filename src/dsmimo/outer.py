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


def _eigenbasis(manifold: np.ndarray, weight: np.ndarray, m: int) -> tuple:
    """The width-free part of CME for each B K B^H, for up to m leading eigenvectors.

    With B = QR, B K B^H = Q (R K R^H) Q^H, so the eigenvectors are Q times
    those of the p x p matrix R K R^H, p = min(N, L): no N x N matrix is
    formed. Returns (q, vecs, complement): the reduced QR's Q (..., N, p),
    the eigenvectors of R K R^H (..., p, p) in descending eigenvalue order
    and, if m > p, the complete QR's basis (..., N, N - p) of the orthogonal
    complement of range(B), where the covariance is null (else None).
    B (..., N, L) and K (..., L, L) may stack users on leading axes.
    """
    n, n_paths = manifold.shape[-2:]
    if m > n:
        raise ValueError(f"cannot extract {m} eigenvectors from a {n}-dim covariance")
    hermitian_gap = np.linalg.norm(weight - _hermitian(weight), axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(weight, axis=(-2, -1)), 1e-300)
    if np.any(hermitian_gap > _HERMITIAN_RTOL * scale):
        raise ValueError("covariance weight matrix is not Hermitian")
    p = min(n, n_paths)
    q, r = np.linalg.qr(manifold)
    _, vecs = np.linalg.eigh(r @ weight @ _hermitian(r))  # eigenvalues ascending
    complement = np.linalg.qr(manifold, mode="complete")[0][..., p:] if m > p else None
    return q, vecs[..., ::-1], complement


def _leading(basis: tuple, m: int) -> np.ndarray:
    """The m leading eigenvectors from an :func:`_eigenbasis`: Q times those of R K R^H.

    Each width makes its own product: the first columns of a wider product
    need not match a narrower one bit for bit.
    """
    q, vecs, complement = basis
    p = q.shape[-1]
    held = p if complement is None else p + complement.shape[-1]
    if m > held:
        raise ValueError(f"cannot extract {m} eigenvectors from a basis of {held}")
    head = q @ vecs[..., :m]
    return head if m <= p else np.concatenate([head, complement[..., : m - p]], axis=-1)


def cme_basis(cov: CovariancePair, m_t: int, m_r: int) -> tuple[tuple, tuple]:
    """CME's width-free work for filters up to m_t/m_r wide: the (uplink, downlink) eigenbases."""
    b_dl, k_dl = cov.b_dl, cov.k_dl
    uplink = _eigenbasis(cov.b_ul, cov.k_ul, m_t)
    del cov  # a pair that only this call holds frees its uplink factors before the downlink QR
    return uplink, _eigenbasis(b_dl, k_dl, m_r)


def cme(basis: tuple[tuple, tuple], m_t: int, m_r: int) -> OuterFilters:
    """Covariance matrix eigenfilter: dominant eigenvectors of each covariance.

    f_o holds the m_t leading eigenvectors of the uplink covariance and w_o
    the m_r leading eigenvectors of the downlink covariance, in descending
    eigenvalue order, for every user at once. Columns are orthonormal.
    ``basis`` is the covariances' :func:`cme_basis` for widths at least as
    wide, which several widths may share: ``cme(cme_basis(pair, m, m), m, m)``.
    """
    ul, dl = basis
    return OuterFilters(f_o=_leading(ul, m_t), w_o=_leading(dl, m_r))


def _prefix(picks: np.ndarray, m: int) -> np.ndarray:
    """The first m picks on the last axis; fewer picks ran out of independent paths."""
    if picks.shape[-1] < m:
        raise RankDeficiencyError(
            f"only {picks.shape[-1]} of {m} requested paths are linearly independent"
        )
    return picks[..., :m]


def pps_indices(powers: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m strongest paths per user of powers (..., L), ties to lowest index."""
    powers = np.asarray(powers, dtype=float)
    if m > powers.shape[-1]:
        raise ValueError(f"requested {m} paths but only {powers.shape[-1]} available")
    return np.argsort(-powers, axis=-1, kind="stable")[..., :m]


def pps(columns: np.ndarray, m: int) -> np.ndarray:
    """Power-dominant path selection of width m: the first m of one side's :func:`path_columns`."""
    return _prefix(columns, m)


def sps_order(manifold: np.ndarray, powers: np.ndarray, m: int) -> np.ndarray:
    """Greedy semi-orthogonal selection order, m picks deep or up to the last independent path.

    At step i every remaining power-weighted steering vector is projected
    onto the orthogonal complement of the directions picked so far, and the
    path with the largest residual norm wins. No step depends on m, so the
    picks for any narrower width are a prefix of these. The picked
    residuals are mutually orthogonal, so the complement projection is a
    sum of rank-1 terms: one residual matrix is kept across steps, and each
    pick g subtracts g (g^H W) / ||g||^2 once, for O(m N L) work in total
    (Yoo & Goldsmith, JSAC 2006). Every term projects the original weighted
    manifold W (classical Gram-Schmidt), never the running residual: the
    two differ at rounding level, and on clustered manifolds the late picks
    are decided at that level. The order stops short, without raising,
    once no remaining path has a residual above rounding level.
    """
    powers = np.asarray(powers, dtype=float)
    if np.ndim(manifold) != 2 or powers.shape != np.shape(manifold)[1:]:
        shapes = f"{np.shape(manifold)} and {powers.shape}"
        raise ValueError(f"expected one (N, L) manifold and (L,) powers, got {shapes}")
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
            break
        norms2[~usable] = -1.0
        pick = int(np.argmax(norms2))
        selected.append(pick)
        remaining[pick] = False
    return np.asarray(selected, dtype=int)


def sps_indices(manifold: np.ndarray, powers: np.ndarray, m: int) -> np.ndarray:
    """Greedy semi-orthogonal path selection: the first m picks of :func:`sps_order`.

    Raises :class:`RankDeficiencyError` when fewer than m paths are linearly independent.
    """
    return _prefix(sps_order(manifold, powers, m), m)


def sps(columns: np.ndarray, m: int) -> np.ndarray:
    """Semi-orthogonal path selection of width m: the first m of one side's :func:`path_columns`."""
    return _prefix(columns, m)


def path_columns(
    a_t: np.ndarray, a_r: np.ndarray, powers: np.ndarray, m_t: int, m_r: int, method: str
) -> tuple[np.ndarray, np.ndarray]:
    """The (transmit, receive) manifold columns in ``pps`` or ``sps`` selection order.

    Manifolds (..., N, L) and powers (..., L) may stack users on leading
    axes; the selection runs user by user, m_t/m_r picks deep. Each side is
    gathered into one (..., N, depth) array, as deep as its users' shortest
    order (an SPS order stops short once the paths' span runs out), and
    reading a wider width raises :class:`RankDeficiencyError`. The gather
    copies without arithmetic, so a filter of any width up to the depth, a
    prefix of its side, equals each user's columns at its own selection.
    """
    select = {"pps": lambda _, p, m: pps_indices(p, m), "sps": sps_order}.get(method)
    if select is None:
        raise ValueError(f"unknown path-selection method {method!r}")
    powers = np.asarray(powers, dtype=float)
    users = powers.shape[:-1]

    def side(manifold, m):
        orders = [select(manifold[user], powers[user], m) for user in np.ndindex(users)]
        depth = min(order.size for order in orders)
        picks = np.array([order[:depth] for order in orders]).reshape(*users, 1, depth)
        return np.take_along_axis(manifold, picks, axis=-1)

    return side(a_t, m_t), side(a_r, m_r)


def path_outer_filters(
    columns: tuple[np.ndarray, np.ndarray], m_t: int, m_r: int, method: str
) -> OuterFilters:
    """Both outer filters of widths m_t/m_r from the method's :func:`path_columns`.

    ``columns``, at least m_t/m_r deep, may serve several widths: each
    filter is a prefix of its side, read by ``pps`` or ``sps``.
    A lone width composes the two calls:
    ``path_outer_filters(path_columns(a_t, a_r, powers, m, m, method), m, m, method)``.
    """
    select = {"pps": pps, "sps": sps}.get(method)
    if select is None:
        raise ValueError(f"unknown path-selection method {method!r}")
    cols_t, cols_r = columns
    return OuterFilters(f_o=select(cols_t, m_t), w_o=select(cols_r, m_r))
