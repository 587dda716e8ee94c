"""Inner-layer (fast-timescale) transceiver schemes on effective channels.

All four schemes start from the truncated SVD of each user's serving
effective channel. The block-diagonalizing variants additionally project
one side onto the null space of the stacked cross-user interference, and
the MMSE combiner whitens interference plus noise instead. A caller that
already holds a deeper SVD of the serving channels passes it, and each
scheme reads its first n_s triplets instead of decomposing them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import FactoredChannel, _combine, _cross_products, _hermitian
from .outer import OuterFilters

# Singular values below this fraction of the largest are treated as zero
# when sizing null spaces, so rank-deficient interference stacks still get
# a valid projector.
_RANK_RTOL = 1e-10

_MMSE_MAX_CONDITION = 1e12
# met_mmse certifies a covariance without eigenvalues when its bounds on the
# condition number stay this far below _MMSE_MAX_CONDITION.
_MMSE_CERT_MARGIN = 1e3

# Below this fraction of ||F_o|| ||F_i||, F_o's nearly parallel steering
# vectors have cancelled F_i: the rounding error F_i carries from its SVDs and
# projections, amplified by the inverse ratio, is the composite's direction.
_GAMMA_RTOL = 1e-6


class InfeasibleError(ValueError):
    """Block diagonalization cannot serve this many users/streams."""


class SolverError(RuntimeError):
    """A required linear system is numerically singular."""


@dataclass(frozen=True)
class TruncatedSvd:
    """Leading n_s singular triplets: h ~ u_s @ diag(sigma_s) @ v_s^H, per matrix of a stack."""

    u_s: np.ndarray
    sigma_s: np.ndarray
    v_s: np.ndarray

    def leading(self, n_s: int) -> "TruncatedSvd":
        """The first n_s triplets, as views: ``==`` to ``truncated_svd`` of the stack at n_s."""
        if n_s > self.sigma_s.shape[-1]:
            raise ValueError(f"n_s={n_s} exceeds the {self.sigma_s.shape[-1]} triplets held")
        return TruncatedSvd(self.u_s[..., :n_s], self.sigma_s[..., :n_s], self.v_s[..., :n_s])


@dataclass(frozen=True)
class EffectiveChannelSet:
    """All cross-user effective channels plus combiner-side noise grams.

    ``h_eff[..., u, j, :, :]`` is the (M_r, M_t) channel seen by user u's
    combiner from user j's precoder; ``w_o_gram[..., u, :, :]`` is
    W_o,u^H W_o,u, which colors the noise after outer combining. Leading
    axes, if any, stack trials.
    """

    h_eff: np.ndarray
    w_o_gram: np.ndarray

    @property
    def n_users(self) -> int:
        return self.h_eff.shape[-4]

    @property
    def serving(self) -> np.ndarray:
        """Each user's own effective channel, h_eff[u, u]: (..., U, M_r, M_t)."""
        users = np.arange(self.n_users)
        return self.h_eff[..., users, users, :, :]


@dataclass(frozen=True)
class InnerFilters:
    """Inner pairs: f_i is (..., M_t, N_s), w_i is (..., M_r, N_s).

    The schemes stack users on the leading axis; ``filters[u]`` is user u's
    pair.
    """

    f_i: np.ndarray
    w_i: np.ndarray

    def __getitem__(self, user) -> "InnerFilters":
        return InnerFilters(f_i=self.f_i[user], w_i=self.w_i[user])


def truncated_svd(h: np.ndarray, n_s: int) -> TruncatedSvd:
    """Top-n_s singular triplets of each matrix in h (..., m, n), singular values descending."""
    if n_s > min(h.shape[-2:]):
        raise ValueError(f"n_s={n_s} exceeds min dimension of {h.shape[-2:]} matrix")
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    return TruncatedSvd(u_s=u[..., :n_s], sigma_s=s[..., :n_s], v_s=_hermitian(vh[..., :n_s, :]))


def effective_channels(
    channels: FactoredChannel | np.ndarray | Sequence[np.ndarray],
    outers: OuterFilters | Sequence[OuterFilters] | None,
) -> EffectiveChannelSet:
    """Compress every (combiner owner, precoder owner) pair through the outer filters.

    h_eff[u, j] = W_o,u^H H_u F_o,j, from channels (U, N_r, N_t), dense or
    factored, and stacked outer filters (or one pair per user) in a single
    product of the stacked compressed channels (U M_r, N_t) with the
    stacked precoders (N_t, U M_t). Without outer filters (``None``, one
    layer) every precoder sees the full channel: h_eff[u, j] = H_u, and the
    noise stays white. Channels and filters with a leading trial axis,
    (T, U, ...), give one set per trial, (T, U, U, M_r, M_t), each ``==``
    to its trial's own.
    """
    if outers is None:
        channels = np.asarray(channels)
        if channels.ndim < 3:
            raise ValueError(f"expected a (U, N_r, N_t) stack or per-user list, got {channels.shape}")
        *lead, n_users, n_r, n_t = channels.shape
        return EffectiveChannelSet(
            h_eff=np.broadcast_to(channels[..., None, :, :], (*lead, n_users, n_users, n_r, n_t)),
            w_o_gram=np.broadcast_to(np.eye(n_r), (*lead, n_users, n_r, n_r)),
        )
    if not isinstance(outers, OuterFilters):  # one pair per user
        outers = OuterFilters(
            f_o=np.array([o.f_o for o in outers]), w_o=np.array([o.w_o for o in outers])
        )
    w_o_gram = _hermitian(outers.w_o) @ outers.w_o
    h_eff = _cross_products(_combine(outers.w_o, channels), outers.f_o).swapaxes(-3, -2)
    return EffectiveChannelSet(h_eff=h_eff, w_o_gram=w_o_gram)


def _null_projector(matrix: np.ndarray, side: str) -> np.ndarray:
    """Projectors onto null(matrix^H) ('left') or null(matrix) ('right'), per matrix of a stack."""
    u, s, vh = np.linalg.svd(matrix, full_matrices=True)
    basis = u if side == "left" else _hermitian(vh)
    # Zero each matrix's range directions, the leading singular vectors of its own rank.
    basis[..., : s.shape[-1]] *= (s <= _RANK_RTOL * s[..., :1])[..., None, :]
    return basis @ _hermitian(basis)


def _other_users(blocks: np.ndarray) -> np.ndarray:
    """blocks[u, j] for all j != u, ascending, stacked per u.

    (..., U, U, a, b) -> (..., U, (U - 1) a, b), leading axes kept.
    """
    *lead, n_users, _, a, b = blocks.shape
    others = blocks[..., ~np.eye(n_users, dtype=bool), :, :]
    return others.reshape(*lead, n_users, (n_users - 1) * a, b)


def check_feasible(inner: str, n_users: int, n_s: int, m_t: int, m_r: int) -> None:
    """Raise :class:`InfeasibleError` if ``inner`` cannot serve U * n_s streams in M_t x M_r.

    Block diagonalization nulls the other users' (U - 1) n_s streams on one
    side, which leaves a user its own n_s only if U * n_s fits that side:
    M_r for MET-BD's combiners, M_t for BD-MER's precoders. It depends on
    shapes alone; MET-MER and MET-MMSE serve any U * n_s.
    """
    if inner == "met_bd" and n_users * n_s > m_r:
        raise InfeasibleError(f"BD reception needs U*N_s <= M_r, got {n_users}*{n_s} > {m_r}")
    if inner == "bd_mer" and n_users * n_s > m_t:
        raise InfeasibleError(f"BD transmission needs U*N_s <= M_t, got {n_users}*{n_s} > {m_t}")


def met_mer(serving: np.ndarray | TruncatedSvd, n_s: int) -> InnerFilters:
    """Maximum eigenmode transmission and reception on serving channels (..., M_r, M_t).

    Given the channels' SVD instead, of at least n_s triplets, it reads the first n_s.
    """
    if isinstance(serving, TruncatedSvd):
        svd = serving.leading(n_s)
    else:
        svd = truncated_svd(serving, n_s)
    return InnerFilters(f_i=svd.v_s, w_i=svd.u_s)


def met_bd(effset: EffectiveChannelSet, n_s: int, svd: TruncatedSvd | None = None) -> InnerFilters:
    """MET precoding with block-diagonalizing reception.

    Each combiner is the MER filter projected onto the null space of the
    stacked cross-user effective channels (all built from the other users'
    MET precoders), which zeroes multi-user interference when
    U * n_s <= M_r (else :func:`check_feasible` raises). ``svd``, the
    serving channels' SVD of at least n_s triplets, is read instead of
    decomposing them again. A set with a leading trial axis gives filters
    (T, U, ...), each trial's ``==`` to its own.
    """
    check_feasible("met_bd", effset.n_users, n_s, *effset.h_eff.shape[:-3:-1])  # M_t, M_r
    svd = truncated_svd(effset.serving, n_s) if svd is None else svd.leading(n_s)
    steered = effset.h_eff @ svd.v_s[..., None, :, :, :]  # [u, j] = h_eff[u, j] @ v_j
    interference = _other_users(steered.swapaxes(-1, -2)).swapaxes(-1, -2)  # side by side
    return InnerFilters(f_i=svd.v_s, w_i=_null_projector(interference, "left") @ svd.u_s)


def bd_mer(effset: EffectiveChannelSet, n_s: int, svd: TruncatedSvd | None = None) -> InnerFilters:
    """Block-diagonalizing transmission with MER combining.

    The transmit-side dual of :func:`met_bd`: each MET precoder is projected
    onto the null space of the interference its user would cause at the
    other users' MER combiners. Requires U * n_s <= M_t
    (:func:`check_feasible`). ``svd`` and a trial axis are read as in
    :func:`met_bd`.
    """
    check_feasible("bd_mer", effset.n_users, n_s, *effset.h_eff.shape[:-3:-1])  # M_t, M_r
    svd = truncated_svd(effset.serving, n_s) if svd is None else svd.leading(n_s)
    received = _hermitian(svd.u_s)[..., :, None, :, :] @ effset.h_eff  # [j, u] = u_j^H h_eff[j, u]
    interference = _other_users(received.swapaxes(-4, -3))  # [u] = received[j != u, u] stacked
    return InnerFilters(f_i=_null_projector(interference, "right") @ svd.v_s, w_i=svd.u_s)


def met_mmse(
    effset: EffectiveChannelSet,
    gammas: np.ndarray,
    sigma_n2: float | np.ndarray,
    n_s: int,
    f_i: np.ndarray | None = None,
) -> InnerFilters:
    """MET precoding with interference-aware MMSE combining.

    ``f_i`` (U, M_t, N_s) are the MET precoders, the right singular vectors
    of the serving channels; a caller that already holds them passes them,
    otherwise they are computed here. ``gammas`` are the per-user transmit
    normalizations of these precoders; they weight each user's contribution
    to the received covariance
    R_yy = sigma_n2 * W_o^H W_o + sum_j (gamma_j^2 / N_s) * (H_eff,u,j f_j)(...)^H,
    and the combiner is w_i = (gamma_u / N_s) * R_yy^{-1} H_eff,u f_u.
    The sum is one Gram product: user u's U N_s steered columns, each scaled
    by sqrt(gamma_j^2 / N_s), side by side (..., U, M_r, U N_s), times their
    conjugate transpose. Unlike BD this does not constrain U * N_s. All users'
    covariances are formed, checked and solved as one stack; a condition
    number above 1e12 raises :class:`SolverError`. The check takes eigenvalues
    only of the covariances its Weyl and Gershgorin bounds leave in doubt. Gammas
    (..., U) and ``sigma_n2`` (...,) with leading level axes give combiners
    (..., U, M_r, N_s), one per level, from the same stacked operations;
    one singular covariance in any level raises for all of them. A set
    with a leading trial axis takes gammas (S, T, U) and ``sigma_n2``
    (S, 1), levels in front of trials, and gives combiners (S, T, U, M_r, N_s).
    """
    n_users = effset.n_users
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape[-1:] != (n_users,):
        raise ValueError(f"expected {n_users} gammas, got shape {gammas.shape}")
    if f_i is None:
        f_i = truncated_svd(effset.serving, n_s).v_s
    steered = effset.h_eff @ f_i[..., None, :, :, :]  # [u, j] = h_eff[u, j] @ f_j
    # [u] = the columns sqrt(gamma_j^2 / N_s) h_eff[u, j] f_j side by side, all j.
    scaled = np.sqrt(gammas**2 / n_s)[..., None, :, None, None] * steered
    columns = scaled.swapaxes(-3, -2).reshape(*scaled.shape[:-3], scaled.shape[-2], -1)
    del scaled  # at N_s > 1 columns is a copy; the level-sized temporaries die once used
    interference = columns @ _hermitian(columns)
    del columns
    r_yy = np.asarray(sigma_n2)[..., None, None, None] * effset.w_o_gram + interference
    del interference
    r_yy = 0.5 * (r_yy + _hermitian(r_yy))
    # The interference term is PSD, so (Weyl) lambda_min >= sigma_n2 * g, g the Gershgorin
    # lower bound of W_o^H W_o (1 at one layer), and lambda_max <= ||R_yy||_inf. Rounding
    # moves R_yy, g and eigvalsh's eigenvalues by at most about (U N_s + M_r) M_r^1.5 eps
    # ||R_yy||_inf, under 1e-10 ||R_yy||_inf at the sizes simulated, so a certified
    # lambda_min > 1e-9 ||R_yy||_inf keeps eigvalsh's ratio below 2e9 < 1e12. The rest,
    # NaN included, take the exact test: the eigenvalues, without cond()'s singular vectors.
    gram = effset.w_o_gram
    g = (2 * np.diagonal(gram, axis1=-2, axis2=-1).real - np.abs(gram).sum(axis=-1)).min(axis=-1)
    bound = np.asarray(sigma_n2)[..., None] * g * (_MMSE_MAX_CONDITION / _MMSE_CERT_MARGIN)
    certified = (g > 0) & (bound > np.abs(r_yy).sum(axis=-1).max(axis=-1))
    if not certified.all():
        eigvals = np.linalg.eigvalsh(r_yy[~certified])  # ascending
        if not np.all(eigvals[..., 0] * _MMSE_MAX_CONDITION > eigvals[..., -1]):
            raise SolverError("received-signal covariance is numerically singular")
    users = np.arange(n_users)
    serving = steered[..., users, users, :, :]
    w_i = (gammas / n_s)[..., None, None] * np.linalg.solve(r_yy, serving)
    return InnerFilters(f_i=f_i, w_i=w_i)


def composite_precoder(f_o: np.ndarray | None, f_i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each user's composite precoder F_o @ F_i and its Frobenius norm, the SNR-free half of gamma.

    Stacked (..., N_t, M_t) and (..., M_t, N_s) filters give one composite
    and one norm per user; without outer filters (``None``, one layer) the
    composite is F_i. A composite whose norm has cancelled to below
    ``_GAMMA_RTOL`` times ||F_o|| ||F_i|| carries no reliable direction, so
    it is rejected like a zero one instead of being scaled up.
    """
    f_i_norm = np.linalg.norm(f_i, axis=(-2, -1))
    composite, norm, floor = f_i, f_i_norm, 0.0
    if f_o is not None:
        composite = f_o @ f_i
        norm = np.linalg.norm(composite, axis=(-2, -1))
        floor = _GAMMA_RTOL * np.linalg.norm(f_o, axis=(-2, -1)) * f_i_norm
    if np.any(norm <= floor):
        raise ValueError("composite precoder F_o @ F_i has zero or cancelled Frobenius norm")
    return composite, norm


def normalize_gamma(norm: np.ndarray, p_t: float | np.ndarray, n_users: int) -> np.ndarray:
    """Scaling that gives composite precoders of norms ``norm`` (see above) the budget P_t / U.

    Budgets ``p_t`` (S, 1), one per level, give one row of scalings per level: (S, U);
    budgets (S, 1, 1) and norms (T, U) of a trial stack give (S, T, U).
    """
    return np.sqrt(p_t / n_users) / norm
