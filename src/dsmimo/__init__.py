"""Layered transceiver design and sum-rate simulation for double-sided massive MIMO."""

from .channel import (
    RAYS_PER_CLUSTER,
    SCENARIOS,
    ArrayGeometry,
    CovariancePair,
    FactoredChannel,
    MacroState,
    draw_macroscopic,
    estimate_covariances,
    extract_partial_csi,
    realize_channel,
    ula_manifold,
    ula_response,
)
from .harness import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    RateRecord,
    emit_csv,
    load_config,
    preset_configs,
    run_point,
    run_sweep,
    run_trial,
)
from .inner import (
    EffectiveChannelSet,
    InfeasibleError,
    InnerFilters,
    SolverError,
    TruncatedSvd,
    bd_mer,
    composite_precoder,
    effective_channels,
    met_bd,
    met_mer,
    met_mmse,
    normalize_gamma,
    truncated_svd,
)
from .metrics import EvaluationError, LinkFilters, ReceiveSide, receive_side, snr_to_power, sum_rate
from .outer import (
    OuterFilters,
    RankDeficiencyError,
    cme,
    cme_basis,
    path_columns,
    path_outer_filters,
    pps,
    pps_indices,
    sps,
    sps_indices,
    sps_order,
)

__version__ = "0.1.0"
