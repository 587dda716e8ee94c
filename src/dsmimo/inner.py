"""Inner-layer (fast-timescale) transceiver schemes on effective channels.

All four schemes start from the truncated SVD of each user's serving
effective channel. The block-diagonalizing variants additionally project
one side onto the null space of the stacked cross-user interference, and
the MMSE combiner whitens interference plus noise instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .outer import OuterFilters

# Singular values below this fraction of the largest are treated as zero
# when sizing null spaces, so rank-deficient interference stacks still get
# a valid projector.
_RANK_RTOL = 1e-10

_MMSE_MAX_CONDITION = 1e12


class InfeasibleError(ValueError):
    """Block diagonalization cannot serve this many users/streams."""


class SolverError(RuntimeError):
    """A required linear system is numerically singular."""


@dataclass(frozen=True)
class TruncatedSvd:
    """Leading n_s singular triplets: h ~ u_s @ diag(sigma_s) @ v_s^H."""

    u_s: np.ndarray
    sigma_s: np.ndarray
    v_s: np.ndarray


@dataclass(frozen=True)
class EffectiveChannelSet:
    """All cross-user effective channels plus combiner-side noise grams.

    ``h_eff[u, j]`` is the (M_r, M_t) channel seen by user u's combiner from
    user j's precoder; ``w_o_gram[u]`` is W_o,u^H W_o,u, which colors the
    noise after outer combining.
    """

    h_eff: np.ndarray
    w_o_gram: np.ndarray

    @property
    def n_users(self) -> int:
        return self.h_eff.shape[0]


@dataclass(frozen=True)
class InnerFilters:
    """Per-user inner pair: f_i is (M_t, N_s), w_i is (M_r, N_s)."""

    f_i: np.ndarray
    w_i: np.ndarray


def truncated_svd(h: np.ndarray, n_s: int) -> TruncatedSvd:
    """Top-n_s singular triplets of a matrix, singular values descending."""
    if n_s > min(h.shape):
        raise ValueError(f"n_s={n_s} exceeds min dimension of {h.shape} matrix")
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    return TruncatedSvd(u_s=u[:, :n_s], sigma_s=s[:n_s], v_s=vh[:n_s].conj().T)


def effective_channels(
    channels: list[np.ndarray],
    outers: list[OuterFilters],
) -> EffectiveChannelSet:
    """Compress every (combiner owner, precoder owner) pair through the outer filters.

    h_eff[u, j] = W_o,u^H H_u F_o,j.
    """
    n_users = len(channels)
    if len(outers) != n_users:
        raise ValueError("one outer filter pair per channel is required")
    m_r = outers[0].w_o.shape[1]
    m_t = outers[0].f_o.shape[1]
    f_stack = np.concatenate([o.f_o for o in outers], axis=1)

    h_eff = np.empty((n_users, n_users, m_r, m_t), dtype=complex)
    w_o_gram = np.empty((n_users, m_r, m_r), dtype=complex)
    for u in range(n_users):
        compressed = outers[u].w_o.conj().T @ channels[u]
        h_eff[u] = (compressed @ f_stack).reshape(m_r, n_users, m_t).transpose(1, 0, 2)
        w_o_gram[u] = outers[u].w_o.conj().T @ outers[u].w_o
    return EffectiveChannelSet(h_eff=h_eff, w_o_gram=w_o_gram)


def _null_projector(matrix: np.ndarray, side: str) -> np.ndarray:
    """Orthogonal projector onto null(matrix^H) ('left') or null(matrix) ('right')."""
    u, s, vh = np.linalg.svd(matrix, full_matrices=True)
    rank = int(np.count_nonzero(s > _RANK_RTOL * s[0])) if s.size else 0
    basis = u[:, rank:] if side == "left" else vh[rank:].conj().T
    return basis @ basis.conj().T


def met_mer(h_eff_u: np.ndarray, n_s: int) -> InnerFilters:
    """Maximum eigenmode transmission and reception on one serving channel."""
    svd = truncated_svd(h_eff_u, n_s)
    return InnerFilters(f_i=svd.v_s, w_i=svd.u_s)


def met_bd(effset: EffectiveChannelSet, n_s: int) -> list[InnerFilters]:
    """MET precoding with block-diagonalizing reception.

    Each combiner is the MER filter projected onto the null space of the
    stacked cross-user effective channels (all built from the other users'
    MET precoders), which zeroes multi-user interference when
    U * n_s <= M_r.
    """
    n_users = effset.n_users
    m_r = effset.h_eff.shape[2]
    if n_users * n_s > m_r:
        raise InfeasibleError(
            f"BD reception needs U*N_s <= M_r, got {n_users}*{n_s} > {m_r}"
        )
    svds = [truncated_svd(effset.h_eff[u, u], n_s) for u in range(n_users)]
    filters = []
    for u in range(n_users):
        if n_users == 1:
            w_i = svds[u].u_s
        else:
            interference = np.concatenate(
                [effset.h_eff[u, j] @ svds[j].v_s for j in range(n_users) if j != u],
                axis=1,
            )
            w_i = _null_projector(interference, side="left") @ svds[u].u_s
        filters.append(InnerFilters(f_i=svds[u].v_s, w_i=w_i))
    return filters


def bd_mer(effset: EffectiveChannelSet, n_s: int) -> list[InnerFilters]:
    """Block-diagonalizing transmission with MER combining.

    The transmit-side dual of :func:`met_bd`: each MET precoder is projected
    onto the null space of the interference its user would cause at the
    other users' MER combiners. Requires U * n_s <= M_t.
    """
    n_users = effset.n_users
    m_t = effset.h_eff.shape[3]
    if n_users * n_s > m_t:
        raise InfeasibleError(
            f"BD transmission needs U*N_s <= M_t, got {n_users}*{n_s} > {m_t}"
        )
    svds = [truncated_svd(effset.h_eff[u, u], n_s) for u in range(n_users)]
    filters = []
    for u in range(n_users):
        if n_users == 1:
            f_i = svds[u].v_s
        else:
            interference = np.concatenate(
                [svds[j].u_s.conj().T @ effset.h_eff[j, u] for j in range(n_users) if j != u],
                axis=0,
            )
            f_i = _null_projector(interference, side="right") @ svds[u].v_s
        filters.append(InnerFilters(f_i=f_i, w_i=svds[u].u_s))
    return filters


def met_mmse(
    effset: EffectiveChannelSet,
    gammas: np.ndarray,
    sigma_n2: float,
    n_s: int,
) -> list[InnerFilters]:
    """MET precoding with interference-aware MMSE combining.

    ``gammas`` are the per-user transmit normalizations of the MET precoders;
    they weight each user's contribution to the received covariance
    R_yy = sigma_n2 * W_o^H W_o + sum_j (gamma_j^2 / N_s) * (H_eff,u,j f_j)(...)^H,
    and the combiner is w_i = (gamma_u / N_s) * R_yy^{-1} H_eff,u f_u.
    Unlike BD this does not constrain U * N_s.
    """
    n_users = effset.n_users
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape != (n_users,):
        raise ValueError(f"expected {n_users} gammas, got shape {gammas.shape}")
    svds = [truncated_svd(effset.h_eff[u, u], n_s) for u in range(n_users)]
    filters = []
    for u in range(n_users):
        steered = np.stack([effset.h_eff[u, j] @ svds[j].v_s for j in range(n_users)])
        r_yy = sigma_n2 * effset.w_o_gram[u] + np.einsum(
            "j,jik,jlk->il", gammas**2 / n_s, steered, steered.conj()
        )
        r_yy = 0.5 * (r_yy + r_yy.conj().T)
        if np.linalg.cond(r_yy) > _MMSE_MAX_CONDITION:
            raise SolverError("received-signal covariance is numerically singular")
        w_i = (gammas[u] / n_s) * np.linalg.solve(r_yy, steered[u])
        filters.append(InnerFilters(f_i=svds[u].v_s, w_i=w_i))
    return filters


def normalize_gamma(f_o: np.ndarray, f_i: np.ndarray, p_t: float, n_users: int) -> float:
    """Scaling that gives the composite precoder its power budget P_t / U."""
    norm = np.linalg.norm(f_o @ f_i)
    if norm <= 0.0:
        raise ValueError("composite precoder F_o @ F_i has zero Frobenius norm")
    return float(np.sqrt(p_t / n_users) / norm)
