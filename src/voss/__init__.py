"""Voltage-only loss estimation for radial distribution feeders.

Estimate the fractional technical loss of a line span from voltage
magnitudes at its two ends, correct multi-segment spans for load tapped
off in between, and benchmark both against a built-in unbalanced
three-phase power-flow solver on the bundled IEEE test feeders.
"""

from .benchmark import (
    ComparisonRow,
    excluded_lines,
    run_multi_segment_study,
    run_single_segment_study,
)
from .estimator import (
    CorrectionParams,
    EstimateFlag,
    LossEstimate,
    SegmentVoltages,
    clamp_rho,
    correction_factor,
    correction_factor_hat,
    loss_fraction_exact,
    rho_from_ratios,
    small_angle_error_bound,
    voss_corrected,
    voss_single,
)
from .feeder import (
    FeederFormatError,
    FeederModel,
    LoadDef,
    NodeDef,
    NotRadialError,
    SegmentDef,
    SegmentKind,
    bundled_feeder_path,
    expand_distributed_loads,
    parse_feeder,
    serialize_feeder,
    split_distributed_loads_to_ends,
)
from .line_oracle import UniformLineModel, simulate_uniform_line, sweep_rho
from .sensors import (
    ChainConfig,
    LossCurve,
    SensorChain,
    SensorFormatError,
    VoltageSeries,
    align,
    ingest_csv,
    loss_curve,
    parse_chain_config,
    rolling_median,
    write_loss_curve_csv,
)
from .powerflow import (
    PowerFlowError,
    PowerFlowSolution,
    SolveOptions,
    solve,
    true_loss_fractions,
)

__all__ = [
    "ChainConfig",
    "ComparisonRow",
    "CorrectionParams",
    "EstimateFlag",
    "FeederFormatError",
    "FeederModel",
    "LoadDef",
    "LossCurve",
    "LossEstimate",
    "NodeDef",
    "NotRadialError",
    "PowerFlowError",
    "PowerFlowSolution",
    "SegmentDef",
    "SegmentKind",
    "SegmentVoltages",
    "SensorChain",
    "SensorFormatError",
    "SolveOptions",
    "UniformLineModel",
    "VoltageSeries",
    "align",
    "bundled_feeder_path",
    "clamp_rho",
    "correction_factor",
    "correction_factor_hat",
    "excluded_lines",
    "expand_distributed_loads",
    "ingest_csv",
    "loss_curve",
    "loss_fraction_exact",
    "parse_chain_config",
    "parse_feeder",
    "rho_from_ratios",
    "rolling_median",
    "run_multi_segment_study",
    "run_single_segment_study",
    "serialize_feeder",
    "simulate_uniform_line",
    "small_angle_error_bound",
    "solve",
    "split_distributed_loads_to_ends",
    "sweep_rho",
    "true_loss_fractions",
    "voss_corrected",
    "voss_single",
    "write_loss_curve_csv",
]

__version__ = "0.1.0"
