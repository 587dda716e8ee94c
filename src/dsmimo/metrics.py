"""Achievable sum-rate evaluation for full (already normalized) transceivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import FactoredChannel, _combine, _cross_products, _hermitian

_LN2 = np.log(2.0)


class EvaluationError(RuntimeError):
    """The rate expression is undefined for these filters."""


@dataclass(frozen=True)
class LinkFilters:
    """Full per-user filters: f[u] is (N_t, N_s) with ||f[u]||_F^2 = P_t / U,
    w[u] is (N_r, N_s). Either a stacked (U, ...) array or one matrix per user;
    ``w`` is None where :func:`sum_rate` gets the combiners' :class:`ReceiveSide`."""

    f: np.ndarray | Sequence[np.ndarray]
    w: np.ndarray | Sequence[np.ndarray] | None


@dataclass(frozen=True)
class ReceiveSide:
    """Q_u^H H_u (..., U, a, N_t), each channel through an orthonormal basis of its combiner."""

    combined: np.ndarray


def snr_to_power(snr_db: float, sigma_n2: float) -> float:
    """Total transmit power for a system SNR (dB) at noise variance sigma_n2."""
    return sigma_n2 * 10.0 ** (snr_db / 10.0)


def _combiner_basis(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis of each combiner's numerically resolvable column space.

    The per-user rate is invariant under right-multiplication of W_u by any
    invertible matrix, so it can be evaluated in an orthonormal basis, where
    the noise covariance is a multiple of the identity no matter how ill
    conditioned the combiner is. Directions whose singular values sit at
    roundoff level relative to the largest carry no usable combining gain
    (they arise when nearly parallel steering vectors are selected) and are
    zeroed, which keeps every user's basis the same shape: a zero column
    adds the same factor to both determinants of the rate. A combiner with
    no resolvable direction at all is rejected.
    """
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    if s.size == 0 or np.any(s[..., 0] <= 0.0):
        raise EvaluationError("combiner is zero")
    keep = s > max(w.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    return u * keep[..., None, :]


def receive_side(channels: FactoredChannel | np.ndarray | Sequence[np.ndarray], w) -> ReceiveSide:
    """The combiners' half of :func:`sum_rate`: free of the precoders and so of the SNR.

    Combiners (..., U, N_r, N_s) with leading level axes give one receive side per level.
    """
    return ReceiveSide(_combine(_combiner_basis(np.asarray(w)), channels))


def _logdet_hermitian(a: np.ndarray) -> np.ndarray:
    """log det of each Hermitian positive definite matrix via Cholesky."""
    try:
        chol = np.linalg.cholesky(0.5 * (a + _hermitian(a)))
    except np.linalg.LinAlgError as exc:
        raise EvaluationError("covariance is not positive definite") from exc
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)


def sum_rate(
    channels: ReceiveSide | FactoredChannel | np.ndarray | Sequence[np.ndarray],
    filters: LinkFilters,
    sigma_n2: float | np.ndarray,
    n_s: int,
) -> float | np.ndarray:
    """Achievable sum rate in bit/s/Hz: sum_u log2 det(I + C_u^{-1} R_u).

    C_u collects noise plus cross-user interference after combining and R_u
    the intended signal, both carrying the 1/N_s symbol covariance factor.
    The two log-determinants are evaluated separately in the log domain and
    in an orthonormal basis of each combiner's resolvable column space,
    which leaves the rate unchanged for well-conditioned combiners but keeps
    C_u positive definite when combiner columns become nearly parallel.
    All users are evaluated as one stack: channels (U, N_r, N_t), dense or
    factored, every user's combined channel in one product with the stacked
    precoders. Channels given as the combiners' :class:`ReceiveSide` (see
    :func:`receive_side`) skip the combining, and ``filters.w`` is not read.

    Precoders (and combiners or receive side) may carry leading level axes,
    (..., U, N_t, N_s) with ``sigma_n2`` (...,): every level is evaluated
    in the same stacked operations, and the result holds one rate per
    level, each equal to that level's own evaluation. A (U, ...) stack or
    per-user lists give one float.
    """
    f = np.asarray(filters.f)
    if not isinstance(channels, ReceiveSide):
        channels = receive_side(channels, filters.w)
    received = _cross_products(channels.combined, f) / np.sqrt(n_s)
    *levels, n_users, _, _ = f.shape
    blocks = received.reshape(*levels, n_users, n_s, n_users * n_s)  # [u, i, (j, k)]
    users = np.arange(n_users)
    signal = received.swapaxes(-3, -2)[..., users, users, :, :]
    r = signal @ _hermitian(signal)
    noise = np.asarray(sigma_n2)[..., None, None, None] * np.eye(n_s)
    c = noise + (blocks @ _hermitian(blocks) - r)
    del received, blocks, signal  # else alive through the log-dets, a trial's heap peak at U = 1
    # det(C+R) >= det(C) holds exactly; the max() only absorbs roundoff.
    rates = np.maximum(0.0, _logdet_hermitian(c + r) - _logdet_hermitian(c))
    totals = [float(sum(user_rates)) / _LN2 for user_rates in rates.reshape(-1, n_users).tolist()]
    return np.array(totals).reshape(levels) if levels else totals[0]
