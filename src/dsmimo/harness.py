"""Config-driven Monte Carlo sum-rate experiments with seeded reproducibility.

A run is one sweep: :func:`run_sweep` takes every config of the run,
expands each over its list-valued axes (scenario, SNR, number of users),
groups the resulting grid points by drop (the points whose draws agree)
and maps one worker pool over the groups. A group runs in chunks of
trials, sized by its shapes, each point's whole pipeline in
:func:`run_trial` once per trial; a cache per chunk builds the drops,
each outer method's width-free work (CME's eigenbasis, the manifold
columns a path selection picks), each outer filter with its effective
channels and the SVD of their serving channels, and each inner design
with the rates of all its SNR levels, once for all the points that share
them and all the chunk's trials, stacked on a leading trial axis (levels
in front of it). Only the channel and the width-free builds read the
drops.
All randomness is derived from the master seed and the point's channel-
relevant content, never from its position in the grid or the method under
test, so different methods, SNRs and layer counts see identical channel
draws (paired comparisons) and results do not depend on scheduling.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .channel import (
    SCENARIOS,
    ArrayGeometry,
    MacroState,
    draw_macroscopic,
    estimate_covariances,
    extract_partial_csi,
    realize_channel,
)
from .inner import (
    InfeasibleError, bd_mer, composite_precoder, effective_channels, met_bd, met_mer, met_mmse,
    normalize_gamma, truncated_svd,
)
from .metrics import LinkFilters, receive_side, snr_to_power, sum_rate
from .outer import cme, cme_basis, path_columns, path_outer_filters

OUTER_METHODS = ("cme", "pps", "sps", "none")
INNER_METHODS = ("met_mer", "met_bd", "met_mmse", "bd_mer")

_SCENARIO_CODE = {"poor": 0, "fair": 1, "rich": 2}
_SUBSTREAM_MACRO = 0
_SUBSTREAM_SLOTS = 1
_SUBSTREAM_EVAL = 2


class ConfigError(ValueError):
    """The experiment configuration violates a static constraint."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment definition; scenario, snr_db and n_users may be lists.

    ``m_t``/``m_r`` are the outer filter widths and are ignored when
    ``layers`` is 1 (the inner stage then works on the raw channel with
    effective dimensions n_t/n_r). ``layers=1`` requires ``outer='none'``.
    """

    scenario: str | Sequence[str] = "poor"
    n_t: int = 64
    n_r: int = 64
    m_t: int = 4
    m_r: int = 4
    n_s: int = 1
    n_users: int | Sequence[int] = 1
    snr_db: float | Sequence[float] = 20.0
    outer: str = "cme"
    inner: str = "met_mer"
    layers: int = 2
    n_trials: int = 1000
    n_slots: int = 100
    sigma_n2: float = 1e-3
    sigma_c_deg: float = 5.0
    seed: int = 0

    def effective_dims(self) -> tuple[int, int]:
        """(M_t, M_r) seen by the inner layer."""
        if self.layers == 1:
            return self.n_t, self.n_r
        return self.m_t, self.m_r

    def validate(self) -> None:
        scenarios = _as_tuple(self.scenario)
        users = _as_tuple(self.n_users)
        snrs = _as_tuple(self.snr_db)
        if not scenarios or not users or not snrs:
            raise ConfigError("sweep axes must be nonempty")
        counts = [(n, getattr(self, n)) for n in ("n_t", "n_r", "n_s", "n_trials", "n_slots")]
        counts += [("n_users", u) for u in users]
        integers = counts + [(n, getattr(self, n)) for n in ("m_t", "m_r", "layers", "seed")]
        reals = [("sigma_n2", self.sigma_n2), ("sigma_c_deg", self.sigma_c_deg)]
        for name, value in integers:
            if type(value) is not int and not _is_a(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name, value in reals + [("snr_db", x) for x in snrs]:
            if type(value) is not float and not _is_a(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            try:
                finite = math.isfinite(value) if type(value) is float else np.isfinite(value)
            except TypeError:  # numpy holds it as an object: a Fraction, a 400-digit int
                raise ConfigError(
                    f"{name} must be a float or a 64-bit integer, got {value!r}"
                ) from None
            if not finite:
                raise ConfigError(f"{name} must be finite, got {value!r}")
        for s in scenarios:
            if s not in tuple(SCENARIOS):  # a tuple, so unhashable YAML values compare unequal
                raise ConfigError(f"unknown scenario {s!r}")
        if self.outer not in OUTER_METHODS:
            raise ConfigError(f"outer must be one of {OUTER_METHODS}, got {self.outer!r}")
        if self.inner not in INNER_METHODS:
            raise ConfigError(f"inner must be one of {INNER_METHODS}, got {self.inner!r}")
        if self.layers not in (1, 2):
            raise ConfigError("layers must be 1 or 2")
        if self.layers == 1 and self.outer != "none":
            raise ConfigError("layers=1 requires outer='none'")
        if self.layers == 2 and self.outer == "none":
            raise ConfigError("layers=2 requires an outer method")
        for name, value in counts:
            if value < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.sigma_n2 <= 0:
            raise ConfigError("sigma_n2 must be positive")
        if self.sigma_c_deg < 0:
            raise ConfigError("sigma_c_deg must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        m_t, m_r = self.effective_dims()
        if self.layers == 2:
            if self.m_t < 1 or self.m_r < 1:
                raise ConfigError("m_t and m_r must be >= 1")
            if self.m_t > self.n_t or self.m_r > self.n_r:
                raise ConfigError("outer filters cannot be wider than the arrays")
            if self.outer in ("pps", "sps"):
                for s in scenarios:
                    n_paths = SCENARIOS[s][1]
                    if self.m_t > n_paths or self.m_r > n_paths:
                        raise ConfigError(
                            f"path selection needs m_t, m_r <= L={n_paths} for scenario {s!r}"
                        )
        if self.n_s > min(m_t, m_r):
            raise ConfigError("n_s cannot exceed the effective channel dimensions")

    def grid(self) -> list["ExperimentConfig"]:
        """Single-point configs in order scenario, snr, users; a normalized point is its own."""
        if (type(self.scenario), type(self.snr_db), type(self.n_users)) == (str, float, int):
            return [self]
        return [
            replace(self, scenario=s, snr_db=float(x), n_users=int(u))
            for s in _as_tuple(self.scenario)
            for x in _as_tuple(self.snr_db)
            for u in _as_tuple(self.n_users)
        ]


@dataclass(frozen=True)
class RateRecord:
    """One grid-point result row.

    ``m_t``/``m_r`` are the effective inner-layer dimensions (the array
    sizes themselves for 1-layer runs). ``mean_rate``/``stderr`` are None
    unless the status is ``ok``, and ``stderr`` is also None for a single
    trial, whose standard error is undefined. ``n_trials`` is the number of
    trials averaged into ``mean_rate``: 0 unless ``ok``, even if some ran.
    """

    outer: str
    inner: str
    layers: int
    scenario: str
    snr_db: float
    n_users: int
    n_streams: int
    m_t: int
    m_r: int
    n_trials: int
    mean_rate: float | None
    stderr: float | None
    status: str


def _as_tuple(value) -> tuple:
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(value)
    return (value,)


def _is_a(value, kind) -> bool:
    """isinstance() that refuses bools, which Python and YAML count as integers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (purpose, point content, trial) slot."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def _record(cfg: ExperimentConfig, status: str, mean_rate=None, stderr=None) -> RateRecord:
    """The CSV row of a single-point config; an ``ok`` row averages all its trials."""
    m_t, m_r = cfg.effective_dims()
    n_trials = cfg.n_trials if status == "ok" else 0
    return RateRecord(
        outer=cfg.outer, inner=cfg.inner, layers=cfg.layers, scenario=cfg.scenario,
        snr_db=cfg.snr_db, n_users=cfg.n_users, n_streams=cfg.n_s, m_t=m_t, m_r=m_r,
        n_trials=n_trials, mean_rate=mean_rate, stderr=stderr, status=status,
    )


def _drop_key(cfg: ExperimentConfig, seed: int | None) -> tuple:
    """Everything a point's draws depend on: points with equal keys share every trial's drop.

    ``layers`` is part of it so that each group has one layer count, to
    which per-layer timing attributes the stages the group shares.
    """
    return (
        cfg.seed if seed is None else seed, cfg.scenario, cfg.n_users, cfg.n_t, cfg.n_r,
        cfg.n_slots, cfg.sigma_c_deg, cfg.layers, cfg.n_trials,
    )


def _stage_keys(cfg: ExperimentConfig) -> tuple:
    """(outer, rate) keys of a point: a trial's points with equal keys share that stage."""
    # The effective channels and their serving SVD take the outer key; a rate key fixes its design.
    outer = None if cfg.layers == 1 else (cfg.outer, cfg.m_t, cfg.m_r)
    return outer, (outer, cfg.inner, cfg.n_s)


def _level(cfg: ExperimentConfig) -> tuple[float, float]:
    """The point's level, (snr_db, sigma_n2): what the points of one rate key differ in."""
    return cfg.snr_db, cfg.sigma_n2


def _chunk_size(cfg: ExperimentConfig) -> int:
    """Levels per stacked rate evaluation, sized by its precoders and cross products.

    Per level and trial, the evaluation holds each user's scaled precoder
    (N_t, N_s) and its row of cross products (N_s, U N_s). A chunk holds no
    more of them than the trials' drop manifolds, (N_t + N_r, L) per user
    and trial, which are freed before the rate stage; at least one level.
    Both sides scale with the trials stacked, so the rule needs no trial
    count. It counts nothing else: not MET-MMSE's per-level covariances
    (U, M_r, M_r) with the absolute values of their condition bound, nor
    the scaled columns (U, M_r, U N_s) and their conjugate that form them,
    nor its per-level receive side, so it does not hold the heap peak to the
    manifolds' bytes (README: with one trial per cache, the grouped
    ``snr_poor`` peaks rose 32 and 47 %; README also weighs counting the
    trials).
    """
    level = cfg.n_s * (cfg.n_t + cfg.n_users * cfg.n_s)
    return max(1, (cfg.n_t + cfg.n_r) * SCENARIOS[cfg.scenario][1] // level)


# Complex entries a chunk of trials may hold in its per-trial arrays (512 KiB).
_TRIAL_CHUNK_ENTRIES = 2**15


def _trial_chunk(points: Sequence[ExperimentConfig]) -> int:
    """Trials per chunk of a drop group, from its shapes alone; at least one.

    Per trial, the chunk holds the drop's manifolds, U (N_t + N_r) L
    complex entries, and at two layers the group's widest outer filters,
    U (N_t m_t + N_r m_r), and their effective channels, U^2 m_r m_t; at
    one layer the dense channels, U N_r N_t, and MET-MMSE's covariances,
    U N_r^2, instead. A chunk stacks as many trials as keep that within
    ``_TRIAL_CHUNK_ENTRIES``. The rule counts nothing else, such as CME's
    QR factors or the stacked levels, so a chunked group's heap peak is a
    few times that (README).
    """
    cfg = points[0]  # the points of a group agree on all but the filter widths
    n_users, n_t, n_r = cfg.n_users, cfg.n_t, cfg.n_r
    entries = n_users * (n_t + n_r) * SCENARIOS[cfg.scenario][1]
    if cfg.layers == 1:
        entries += n_users * n_r * (n_t + n_r)
    else:
        m_t, m_r = max(p.m_t for p in points), max(p.m_r for p in points)
        entries += n_users * (n_t * m_t + n_r * m_r) + n_users**2 * m_r * m_t
    return max(1, _TRIAL_CHUNK_ENTRIES // entries)


class _TrialCache:
    """The stages that a chunk of trials' points share, each holding its latest key's value.

    The six stages are the drop, each outer method's width-free work, the
    outer filters, the channel, the effective channels with their serving
    SVD, and a design's rates. Each is built once for all ``trials`` of
    the chunk, stacked on a leading trial axis. ``points`` are the points
    that will run, in run order, each outer method's points back to back
    and equal stage keys together. From them the cache knows ``widest``,
    each outer method's widest (m_t, m_r), for which its width-free stage
    is built; ``streams``, each outer key's most streams, to which its
    serving SVD is kept; ``levels``, each rate key's levels, which its rate
    stage evaluates at once; and when a stage is spent: a method's
    width-free stage once its last filter is built, the drops and their
    partial CSI once the channel and each method's width-free stage, their
    only readers, are built. So only one chunk's drops are alive at a time.
    A new outer key frees the stages keyed under the old one before its
    filters are built.
    """

    def __init__(self, points: Sequence[ExperimentConfig], trials: range):
        self.trials = trials
        self._held: dict[str, tuple] = {}
        self.levels: dict[tuple, dict[tuple[float, float], None]] = {}  # levels in run order
        self.streams: dict[tuple | None, int] = {}
        outer_keys = []
        for cfg in points:
            outer_key, rate_key = _stage_keys(cfg)
            outer_keys.append(outer_key)
            self.levels.setdefault(rate_key, {})[_level(cfg)] = None
            self.streams[outer_key] = max(self.streams.get(outer_key, 0), cfg.n_s)
        self._last = {key[0]: key for key in outer_keys if key}  # each method's last key
        self.widest: dict[str, tuple[int, int]] = {}
        for method, m_t, m_r in filter(None, set(outer_keys)):
            widest_t, widest_r = self.widest.get(method, (0, 0))
            self.widest[method] = (max(widest_t, m_t), max(widest_r, m_r))
        self._drop_reads = 1 + len(self.widest)  # the channel and each width-free build

    def get(self, stage: str, key, build):
        """The stage's value for ``key``, built unless held; the old value is freed first.

        A failed build is held as the row status it implies, not as its
        exception: the reader that built it gets the exception, and every
        later reader of the key fails at once with that status.
        """
        held = self._held.get(stage)
        if held is None or held[0] != key:
            del held  # so that the old value is freed before the new one is built
            self._held.pop(stage, None)
            if stage == "outer":  # the stages keyed under the old outer key are stale
                for stale in ("effective", "rates"):
                    self._held.pop(stale, None)
            try:
                held = (key, build(), None)
            except Exception as exc:
                self._hold(stage, (key, None, _status(exc)))
                raise
            self._hold(stage, held)
        if held[2] is not None:
            raise _FailedStage(held[2])
        return held[1]

    def _hold(self, stage: str, held: tuple) -> None:
        """Hold a build's (key, value, status), and free what the build was the last to read."""
        self._held[stage] = held
        key = held[0]
        if stage in ("channel", "width_free"):  # a read of the drop
            self._drop_reads -= 1
            if not self._drop_reads:
                self._held.pop("drop", None)
        elif stage == "outer" and key is not None and key == self._last[key[0]]:
            self._held.pop("width_free", None)


class _FailedStage(Exception):
    """A read of a stage whose build failed for an earlier reader; ``args[0]`` is its status."""


def _stack_drops(drops: Sequence[MacroState]) -> MacroState:
    """Drops of equal shape stacked on a leading axis."""
    names = [f.name for f in fields(MacroState)]
    return MacroState(**{name: np.stack([getattr(d, name) for d in drops]) for name in names})


def run_trial(
    cfg: ExperimentConfig, seed: int, trial: int, shared: _TrialCache | None = None
) -> float:
    """Execute one trial of one point: CSI acquisition, both filter layers, rate evaluation.

    The outer filters see only the drop's macroscopic state (via estimated
    covariances or exact path parameters); the rate is then evaluated on a
    fresh phase realization of the same drop, which the inner filters know
    perfectly through the effective channels. The drop's path manifolds
    are built once, by ``extract_partial_csi``; CME reads them only to
    simulate its training slots. Every stage works on all users at once,
    stacked on a (U, ...) axis, and on all trials of the cache's chunk,
    stacked in front of it, (T, U, ...).

    Every stage comes from ``shared``, the cache of the chunk of trials
    that :func:`run_point` hands to each point of a group and each of the
    chunk's trials: each is built once for the points that agree on it and
    for all the chunk's trials, and its failure fails each of them.
    Each trial draws its own substreams (macroscopic state, training
    slots, phases), which are stacked after drawing, so every draw is the
    one the trial makes alone. Before its filters, an outer method builds
    its width-free work once for the group's widest filters: CME the
    eigenbasis of each side's estimated covariances, PPS/SPS each side's
    manifold columns in selection order, stacked over trials and users.
    Each width then makes its own eigenvector product or reads a prefix of
    the columns, so no filter reads the drop. Each outer filter's effective
    channels (at one layer, the full channel) are built with one SVD of
    their serving channels, kept to the most streams of the filter's
    points. The last stage, the rates, serves every point of a design: it
    builds the inner design, which reads the SVD's first ``n_s`` triplets
    (MET-MMSE's precoders are MET-MER's), and its SNR-free rate factors
    (the composite precoder, its norm and, but for MMSE, the sum rate's
    receive side), then evaluates the group's levels of the design (SNR
    and noise pairs) stacked on a leading axis in front of the trials, in
    chunks of :func:`_chunk_size`: power normalization, the MMSE combiner
    and the sum rate. A chunk of levels that raises fails the stage, like
    any stage's failure. The trial returns its own rate of the chunk's. A
    lone trial makes a one-point, one-trial cache, and raises the
    exception of the first stage that fails.
    """
    outer_key, rate_key = _stage_keys(cfg)
    stages = _TrialCache([cfg], range(trial, trial + 1)) if shared is None else shared
    trials = stages.trials
    slot = trials.index(trial)

    def substreams(purpose):  # each trial's own generator for one purpose
        code = _SCENARIO_CODE[cfg.scenario]
        return [_substream(seed, code, cfg.n_users, t, purpose) for t in trials]

    def draw():  # the drops and their partial CSI
        drops = [
            draw_macroscopic(cfg.scenario, cfg.n_users, rng, cfg.sigma_c_deg)
            for rng in substreams(_SUBSTREAM_MACRO)
        ]
        macro = _stack_drops(drops)
        return macro, *extract_partial_csi(macro, ArrayGeometry(cfg.n_t), ArrayGeometry(cfg.n_r))

    def outer_filters():
        if outer_key is None:  # one layer: the inner stage works on the full channel
            return None
        work = stages.get("width_free", cfg.outer, width_free)
        if cfg.outer == "cme":
            return cme(work, cfg.m_t, cfg.m_r)
        return path_outer_filters(work, cfg.m_t, cfg.m_r, cfg.outer)

    def width_free():  # built for the widest filters of the method; the covariances die here
        m_t, m_r = stages.widest[cfg.outer]
        _, a_t, a_r, powers = stages.get("drop", trials, draw)
        if cfg.outer != "cme":
            return path_columns(a_t, a_r, powers, m_t, m_r, cfg.outer)
        slots = substreams(_SUBSTREAM_SLOTS)
        return cme_basis(estimate_covariances(cfg.n_slots, slots, a_t, a_r), m_t, m_r)

    def channel():
        macro, a_t, a_r, _ = stages.get("drop", trials, draw)
        shape = macro.magnitudes.shape[1:]
        phases = np.stack([
            rng.uniform(-np.pi, np.pi, size=shape) for rng in substreams(_SUBSTREAM_EVAL)
        ])
        channels = realize_channel(macro, phases, a_t, a_r)
        # The 1-layer baseline designs on the dense channels; the 2-layer path
        # reads factored ones only through products with filters.
        return channels if outer_key else np.asarray(channels)

    def effective():  # the effective channels and the SVD of their serving channels
        effset = effective_channels(channels, outers)
        return effset, truncated_svd(effset.serving, stages.streams[outer_key])

    def design():  # MET-MMSE's precoders are MET-MER's, views of the serving SVD
        if cfg.inner == "met_bd":
            return met_bd(effset, cfg.n_s, svd)
        if cfg.inner == "bd_mer":
            return bd_mer(effset, cfg.n_s, svd)
        return met_mer(svd, cfg.n_s)

    def receiving(w_i):  # the sum rate's receive side for composite combiners W_o @ w_i
        return receive_side(channels, w_i if outers is None else outers.w_o @ w_i)

    def rates():  # each level of the rate key: its trials' rates
        inners = design()
        f, norm = composite_precoder(None if outers is None else outers.f_o, inners.f_i)
        received = None if cfg.inner == "met_mmse" else receiving(inners.w_i)

        def evaluate(levels):  # one stacked evaluation of a chunk of levels: (S, T) rates
            p_t = np.array([[[snr_to_power(snr_db, sigma_n2)]] for snr_db, sigma_n2 in levels])
            sigma_n2 = np.array([[sigma_n2] for _, sigma_n2 in levels])
            gammas = normalize_gamma(norm, p_t, cfg.n_users)
            side = received
            if side is None:  # the MMSE combiner depends on the SNR
                side = receiving(met_mmse(effset, gammas, sigma_n2, cfg.n_s, f_i=inners.f_i).w_i)
            precoders = LinkFilters(f=gammas[..., None, None] * f, w=None)
            return sum_rate(side, precoders, sigma_n2, cfg.n_s)

        levels, size, rates = list(stages.levels[rate_key]), _chunk_size(cfg), {}
        for start in range(0, len(levels), size):
            chunk = levels[start:start + size]
            rates.update(zip(chunk, evaluate(chunk).tolist()))
        return rates

    # The channel is realized after the first outer filter, so a lone CME width's eigenbasis
    # is freed first.
    outers = stages.get("outer", outer_key, outer_filters)
    channels = stages.get("channel", trials, channel)
    effset, svd = stages.get("effective", outer_key, effective)
    return stages.get("rates", rate_key, rates)[_level(cfg)][slot]


def _status(exc: Exception) -> str:
    """A failed row's status: ``infeasible`` for a BD design's InfeasibleError, else the error.

    A read of a failed stage has the status of the stage's failure.
    """
    if isinstance(exc, _FailedStage):
        return exc.args[0]
    if isinstance(exc, InfeasibleError):
        return "infeasible"
    return f"error:{type(exc).__name__.lower()}"


def _run_chunks(points, order, seed, trials: range, size: int, rates, statuses) -> None:
    """Run the points ``order`` indexes over ``trials``, ``size`` trials per shared cache.

    A point whose trial raises runs no further trials; its status is that of
    its first failing trial run alone. A stacked stage raises for all the
    trials of its chunk and all the points that read it, so a point whose
    chunk raises runs that chunk's trials again alone, one
    :func:`run_trial` call per trial, after the chunk's cache has been
    freed. An infeasible design is final at once: it follows from shapes
    alone, after every shared stage of the chunk has been built, so the
    chunk's first trial alone would raise it again.
    """
    for start in range(trials.start, trials.stop, size):
        chunk = range(start, min(start + size, trials.stop))
        live = [i for i in order if i not in statuses]
        if not live:
            return
        stages, failed = _TrialCache([points[i] for i in live], chunk), []
        for i in live:
            try:
                for trial in chunk:
                    rates[i, trial] = run_trial(points[i], seed, trial, stages)
            except Exception as exc:  # per-row capture is part of the sweep contract
                if _status(exc) == "infeasible":
                    statuses[i] = "infeasible"
                else:
                    failed.append(i)
        del stages  # the failed chunk's stages are freed before its trials run again
        for i in failed:
            try:
                for trial in chunk:
                    rates[i, trial] = run_trial(points[i], seed, trial)
            except Exception as exc:
                statuses[i] = _status(exc)


def run_point(*points: ExperimentConfig, seed: int | None = None) -> list[RateRecord]:
    """Run all trials of grid points that share one drop, and aggregate each one's rates.

    The points must agree on every field their draws depend on (seed,
    scenario, n_users, array sizes, n_slots, sigma_c_deg, layers and
    n_trials); :func:`run_sweep` groups a sweep's points so. They run in
    chunks of trials (:func:`_trial_chunk`, sized by the group's shapes),
    through one cache per chunk, point by point, sorted so that points
    with equal stage keys run back to back and CME's points last: each
    chunk's drops and the stages the points agree on are made once for all
    of them and all the chunk's trials, stacked, and the cache, made from
    the chunk's live points, knows each design's live levels, which its
    rate stage evaluates at once. The order does not change any result,
    only the heap peak: the drops live until the last method's width-free
    build, and CME's eigenbasis, the largest width-free work, is then held
    without them. A failed row has one rule: its status is that of its
    first failing trial run alone, ``run_trial(point, seed, trial)``. So a
    point whose chunk raises runs that chunk's trials again alone, after
    the chunk's cache is freed, up to its first failing trial; an
    infeasible design, whose failure depends on no trial, fails at once.
    A point whose trial raises runs no further trials, so its level drops
    out of its design's later rate stages; the others go on. Its row reads
    ``infeasible`` for a BD design's :class:`InfeasibleError` (raised in
    its first chunk by its rate stage, before the design's own null-space
    SVD, though its outer filter's serving SVD is built first), else
    ``error:<name>``, also when a shared stage fails before the design.
    No stage holds an exception, so none outlives its handler with the
    cache in its frames. The ``ok`` rows' means and standard errors come
    from one reduction over all of them (:func:`_trial_stats`); a failed
    row's unwritten trials are never read. The records come back in
    argument order; ``[record] = run_point(cfg)`` runs one.
    """
    singles = []
    for cfg in points:
        cfg.validate()
        grid = cfg.grid()
        if len(grid) != 1:
            raise ConfigError("run_point needs single grid points; use run_sweep for lists")
        singles += grid
    points = singles
    drop_keys = {_drop_key(cfg, seed) for cfg in points}
    if len(drop_keys) != 1:
        raise ConfigError("run_point needs points that share one drop; use run_sweep")
    [drop_key] = drop_keys
    seed, n_trials = drop_key[0], drop_key[-1]

    keys = [_stage_keys(cfg) for cfg in points]
    # CME's points last, so its eigenbasis, the largest width-free work, never waits
    # beside the drop for another method's build.
    order = sorted(range(len(points)), key=lambda i: (points[i].outer == "cme", keys[i]))
    rates = np.empty((len(points), n_trials))
    statuses: dict[int, str] = {}
    _run_chunks(points, order, seed, range(n_trials), _trial_chunk(points), rates, statuses)
    ok = [i for i in range(len(points)) if i not in statuses]
    stats = dict(zip(ok, _trial_stats(rates[ok])))
    return [_record(cfg, statuses.get(i, "ok"), *stats.get(i, ())) for i, cfg in enumerate(points)]


def _trial_stats(rates: np.ndarray) -> list[tuple[float, float | None]]:
    """Each row's mean and standard error (None for one trial), one reduction per statistic.

    numpy reduces each row of a C-ordered array along its contiguous axis as it reduces the
    row alone, so each row's bits are its own ``mean()`` and ``std(ddof=1) / sqrt(n)``.
    """
    n = rates.shape[1]
    means = rates.mean(axis=1).tolist()
    stderrs = (rates.std(axis=1, ddof=1) / np.sqrt(n)).tolist() if n > 1 else [None] * len(means)
    return list(zip(means, stderrs))


def run_sweep(
    *configs: ExperimentConfig,
    seed: int | None = None,
    workers: int = 1,
) -> list[RateRecord]:
    """Run every grid point of every config, in config order, as one sweep.

    All configs are validated before any point runs. The points are
    grouped by drop (see :func:`run_point`), and the workers run over the
    groups: no more threads than groups, and none beside the caller's for
    one group. Per-point failures become error rows and never abort the
    sweep. Results are identical for any ``workers`` count because every
    point's substreams are fixed by its content.
    """
    for cfg in configs:
        cfg.validate()
    points = [point for cfg in configs for point in cfg.grid()]
    by_drop: dict[tuple, list[int]] = {}
    for i, point in enumerate(points):
        by_drop.setdefault(_drop_key(point, seed), []).append(i)
    groups = list(by_drop.values())

    def one(group: list[int]) -> list[RateRecord]:
        return run_point(*(points[i] for i in group), seed=seed)

    workers = min(workers, len(groups))
    if workers <= 1:
        results = map(one, groups)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, groups))
    records = [None] * len(points)
    for group, group_records in zip(groups, results):
        for i, record in zip(group, group_records):
            records[i] = record
    return records


def _fmt(value: object) -> str:
    if value is None:
        return ""
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def emit_csv(records: Sequence[RateRecord]) -> str:
    """Render records as CSV text in the given (deterministic) order.

    The columns are the fields of :class:`RateRecord`, in declaration order.
    """
    if not records:
        raise ValueError("no records to emit")
    names = [f.name for f in fields(RateRecord)]
    lines = [names] + [[_fmt(getattr(r, name)) for name in names] for r in records]
    return "".join(",".join(line) + "\n" for line in lines)


def load_config(path: str) -> ExperimentConfig:
    """Load a flat YAML mapping into an :class:`ExperimentConfig`.

    A file that cannot be read, is not UTF-8 text or is not valid YAML
    raises :class:`ConfigError`, like a config that fails validation.
    """
    import yaml  # only config files need it, and it is a tenth of `import dsmimo`

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot load config file {path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must be a flat key/value mapping")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(map(str, unknown))}")
    cfg = ExperimentConfig(**data)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Figure-reproduction presets. Each preset is a list of configs whose sweep
# grids together cover one figure of the simulation campaign.
# ---------------------------------------------------------------------------

_SNR_GRID = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
_USER_GRID = tuple(range(2, 65, 2))


def _outer_comparison(scenario: str) -> list[ExperimentConfig]:
    # Outer methods in isolation: U=1, M_t=M_r=N_s swept over N_s/L. With
    # square inner dimensions the MET-MER factors are unitary and leave the
    # sum rate of the bare outer filters unchanged.
    n_paths = SCENARIOS[scenario][1]
    streams = [n_paths * k // 8 for k in range(1, 9)]
    return [
        ExperimentConfig(
            scenario=scenario, m_t=n_s, m_r=n_s, n_s=n_s, n_users=1,
            snr_db=20.0, outer=method, inner="met_mer",
        )
        for method in ("cme", "pps", "sps")
        for n_s in streams
    ]


def _inner_comparison(
    scenario: str, m: int, n_users=_USER_GRID, snr_db=20.0
) -> list[ExperimentConfig]:
    # The four inner schemes behind the same CME outer layer, N_s = 1.
    return [
        ExperimentConfig(
            scenario=scenario, m_t=m, m_r=m, n_s=1, n_users=n_users,
            snr_db=snr_db, outer="cme", inner=method,
        )
        for method in INNER_METHODS
    ]


def _benchmark(method: str) -> list[ExperimentConfig]:
    configs = []
    for n_s in (1, 2):
        configs.append(
            ExperimentConfig(
                scenario="poor", m_t=4, m_r=4, n_s=n_s, n_users=2,
                snr_db=20.0, outer="cme", inner=method, layers=2,
            )
        )
        configs.append(
            ExperimentConfig(
                scenario="poor", n_s=n_s, n_users=2, snr_db=20.0,
                outer="none", inner=method, layers=1,
            )
        )
    return configs


PRESETS: dict[str, tuple[str, list[ExperimentConfig]]] = {
    "outer_poor": ("outer methods, poor scattering, U=1, N_s/L sweep", _outer_comparison("poor")),
    "outer_fair": ("outer methods, fair scattering, U=1, N_s/L sweep", _outer_comparison("fair")),
    "outer_rich": ("outer methods, rich scattering, U=1, N_s/L sweep", _outer_comparison("rich")),
    "snr_poor_4users": (
        "inner methods vs SNR, poor, U=4, M=4, N_s=1", _inner_comparison("poor", 4, 4, _SNR_GRID)
    ),
    "snr_poor_32users": (
        "inner methods vs SNR, poor, U=32, M=4, N_s=1", _inner_comparison("poor", 4, 32, _SNR_GRID)
    ),
    "inner_poor": ("inner methods vs U, poor, M=4, 20 dB", _inner_comparison("poor", 4)),
    "inner_fair": ("inner methods vs U, fair, M=16, 20 dB", _inner_comparison("fair", 16)),
    "inner_rich": ("inner methods vs U, rich, M=32, 20 dB", _inner_comparison("rich", 32)),
    "bench_met_mer": ("1-layer vs 2-layer, MET-MER, poor, U=2, M=4", _benchmark("met_mer")),
    "bench_met_bd": ("1-layer vs 2-layer, MET-BD, poor, U=2, M=4", _benchmark("met_bd")),
    "bench_met_mmse": ("1-layer vs 2-layer, MET-MMSE, poor, U=2, M=4", _benchmark("met_mmse")),
    "bench_bd_mer": ("1-layer vs 2-layer, BD-MER, poor, U=2, M=4", _benchmark("bd_mer")),
}


def preset_configs(name: str) -> list[ExperimentConfig]:
    """Configs belonging to a named figure preset."""
    try:
        return list(PRESETS[name][1])
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; see list-presets") from None
