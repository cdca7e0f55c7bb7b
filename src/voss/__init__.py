"""Voltage-only loss estimation for radial distribution feeders.

Estimate the fractional technical loss of a line span from voltage
magnitudes at its two ends, correct multi-segment spans for load tapped
off in between, and benchmark both against a built-in unbalanced
three-phase power-flow solver on the bundled IEEE test feeders.
"""

from .benchmark import (
    ComparisonRow,
    run_multi_segment_study,
    run_single_segment_study,
)
from .estimator import (
    EstimateFlag,
    LossEstimate,
    SegmentVoltages,
    correction_factor,
    loss_fraction_exact,
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
    parse_feeder,
    split_distributed_loads_to_ends,
)
from .line_oracle import sweep_rho
from .sensors import (
    LossCurve,
    SensorChain,
    SensorFormatError,
    VoltageSeries,
    ingest_csv,
    loss_curve,
    parse_chain_config,
    write_loss_curve_csv,
)
from .powerflow import (
    PowerFlowError,
    PowerFlowSolution,
    SolveOptions,
    solve,
)

__all__ = [
    "ComparisonRow",
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
    "VoltageSeries",
    "bundled_feeder_path",
    "correction_factor",
    "ingest_csv",
    "loss_curve",
    "loss_fraction_exact",
    "parse_chain_config",
    "parse_feeder",
    "run_multi_segment_study",
    "run_single_segment_study",
    "small_angle_error_bound",
    "solve",
    "split_distributed_loads_to_ends",
    "sweep_rho",
    "voss_corrected",
    "voss_single",
    "write_loss_curve_csv",
]

__version__ = "0.1.0"
