"""Config-driven Monte Carlo sum-rate experiments with seeded reproducibility.

A run is one sweep: :func:`run_sweep` takes every config of the run,
expands each over its list-valued axes (scenario, SNR, number of users)
and maps one worker pool over all of the resulting grid points, each of
which runs independently.
All randomness is derived from the master seed and the point's channel-
relevant content, never from its position in the grid or the method under
test, so different methods, SNRs and layer counts see identical channel
draws (paired comparisons) and results do not depend on scheduling.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .channel import (
    SCENARIOS,
    ArrayGeometry,
    draw_macroscopic,
    estimate_covariances,
    extract_partial_csi,
    realize_channel,
)
from .inner import bd_mer, effective_channels, met_bd, met_mer, met_mmse, normalize_gamma
from .metrics import LinkFilters, snr_to_power, sum_rate
from .outer import cme, path_outer_filters

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
            if not _is_a(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name, value in reals + [("snr_db", x) for x in snrs]:
            if not _is_a(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not np.isfinite(value):
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
        """Single-point configs in deterministic order: scenario, snr, users."""
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
    trial, whose standard error is undefined; ``n_trials`` counts executed
    trials.
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


def _record(cfg: ExperimentConfig, status: str, rates: np.ndarray | None = None) -> RateRecord:
    """The CSV row of a single-point config; ``rates`` only for ``ok`` rows."""
    m_t, m_r = cfg.effective_dims()
    mean_rate = stderr = None
    if rates is not None:
        mean_rate = float(rates.mean())
        stderr = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else None
    return RateRecord(
        outer=cfg.outer, inner=cfg.inner, layers=cfg.layers, scenario=cfg.scenario,
        snr_db=cfg.snr_db, n_users=cfg.n_users, n_streams=cfg.n_s, m_t=m_t, m_r=m_r,
        n_trials=0 if rates is None else rates.size, mean_rate=mean_rate, stderr=stderr,
        status=status,
    )


def run_trial(cfg: ExperimentConfig, seed: int, trial: int) -> float:
    """Execute one trial: CSI acquisition, both filter layers, rate evaluation.

    The outer filters see only the drop's macroscopic state (via estimated
    covariances or exact path parameters); the rate is then evaluated on a
    fresh phase realization of the same drop, which the inner filters know
    perfectly through the effective channels. The drop's path manifolds
    are built once, by ``extract_partial_csi``; CME reads them only to
    simulate its training slots. Every stage works on all users at once,
    stacked on a leading (U, ...) axis.
    """
    tx = ArrayGeometry(cfg.n_t)
    rx = ArrayGeometry(cfg.n_r)
    p_t = snr_to_power(cfg.snr_db, cfg.sigma_n2)
    n_users = cfg.n_users
    point_key = (_SCENARIO_CODE[cfg.scenario], n_users, trial)

    macro_rng = _substream(seed, *point_key, _SUBSTREAM_MACRO)
    macro = draw_macroscopic(cfg.scenario, n_users, macro_rng, cfg.sigma_c_deg)
    a_t, a_r, powers = extract_partial_csi(macro, tx, rx)

    outers = None  # one layer: the inner stage works on the full channel
    if cfg.layers == 2 and cfg.outer == "cme":
        slots_rng = _substream(seed, *point_key, _SUBSTREAM_SLOTS)
        outers = cme(estimate_covariances(cfg.n_slots, slots_rng, a_t, a_r), cfg.m_t, cfg.m_r)
    elif cfg.layers == 2:
        outers = path_outer_filters(a_t, a_r, powers, cfg.m_t, cfg.m_r, cfg.outer)

    eval_rng = _substream(seed, *point_key, _SUBSTREAM_EVAL)
    phases = eval_rng.uniform(-np.pi, np.pi, size=macro.magnitudes.shape)
    channels = realize_channel(macro, phases, a_t, a_r)
    del a_t, a_r  # what the channel needs of them, it holds
    if outers is None:
        # The 1-layer baseline designs on the dense channels; the 2-layer
        # path reads factored ones only through products with filters.
        channels = np.asarray(channels)
    effset = effective_channels(channels, outers)

    if cfg.inner == "met_bd":
        inners = met_bd(effset, cfg.n_s)
    elif cfg.inner == "bd_mer":
        inners = bd_mer(effset, cfg.n_s)
    else:
        inners = met_mer(effset.serving, cfg.n_s)
    gammas = normalize_gamma(None if outers is None else outers.f_o, inners.f_i, p_t, n_users)
    if cfg.inner == "met_mmse":
        inners = met_mmse(effset, gammas, cfg.sigma_n2, cfg.n_s, f_i=inners.f_i)

    f, w = inners.f_i, inners.w_i
    if outers is not None:
        f, w = outers.f_o @ f, outers.w_o @ w
    f = gammas[:, None, None] * f  # rebound, so no unscaled copy stays alive
    return sum_rate(channels, LinkFilters(f=f, w=w), cfg.sigma_n2, cfg.n_s)


def run_point(cfg: ExperimentConfig, seed: int | None = None) -> RateRecord:
    """Run all trials of a single grid point and aggregate mean and stderr."""
    cfg.validate()
    points = cfg.grid()
    if len(points) != 1:
        raise ConfigError("run_point needs a single grid point; use run_sweep for lists")
    cfg = points[0]
    if seed is None:
        seed = cfg.seed
    m_t, m_r = cfg.effective_dims()
    streams = cfg.n_users * cfg.n_s
    if (cfg.inner == "met_bd" and streams > m_r) or (cfg.inner == "bd_mer" and streams > m_t):
        return _record(cfg, "infeasible")
    return _record(cfg, "ok", np.array([run_trial(cfg, seed, t) for t in range(cfg.n_trials)]))


def run_sweep(
    *configs: ExperimentConfig,
    seed: int | None = None,
    workers: int = 1,
) -> list[RateRecord]:
    """Run every grid point of every config, in config order, as one sweep.

    All configs are validated before any point runs. Per-point failures
    become error rows and never abort the sweep. Results are identical for
    any ``workers`` count because every point's substreams are fixed by its
    content.
    """
    for cfg in configs:
        cfg.validate()
    points = [point for cfg in configs for point in cfg.grid()]

    def one(point: ExperimentConfig) -> RateRecord:
        try:
            return run_point(point, seed)
        except Exception as exc:  # per-row capture is part of the sweep contract
            return _record(point, f"error:{type(exc).__name__.lower()}")

    if workers <= 1:
        return [one(p) for p in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, points))


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
