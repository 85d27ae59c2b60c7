"""Battery trading in the intraday market: SDDP policies and indifference prices."""

__version__ = "0.1.0"

from .config import (
    RunConfig,
    build_chain_for,
    build_problem,
    config_from_dict,
    default_day_ahead,
    load_config,
)
from .discretization import MarkovChain, QuadratureRule, build_chain, gauss_hermite, nearest_node
from .price_model import (
    PriceModel,
    PriceSeries,
    RegressionFit,
    bid_ask,
    deviations_from_series,
    fit_ar,
    read_price_csv,
    simulate_deviation_path,
    simulate_deviation_paths,
)
from .sddp import CutPool, Policy, StorageProblem, TrainingLog, train
from .simulation import (
    DensityEstimate,
    SimulationReport,
    evaluate_out_of_sample,
    kernel_density,
)
from .stage_solver import (
    CutSet,
    NodeSolution,
    NodeSubproblem,
    StageLanes,
    solve_stage,
)
from .storage import (
    BatterySpec,
    StageData,
    UtilitySpec,
    check_spread_condition,
    stage_data_for,
    terminal_cost,
)
from .valuation import ValuationResult, price_storage, price_sweep

__all__ = [
    "BatterySpec",
    "CutPool",
    "CutSet",
    "DensityEstimate",
    "MarkovChain",
    "NodeSolution",
    "NodeSubproblem",
    "Policy",
    "PriceModel",
    "PriceSeries",
    "QuadratureRule",
    "RegressionFit",
    "RunConfig",
    "SimulationReport",
    "StageData",
    "StageLanes",
    "StorageProblem",
    "TrainingLog",
    "UtilitySpec",
    "ValuationResult",
    "bid_ask",
    "build_chain",
    "build_chain_for",
    "build_problem",
    "check_spread_condition",
    "config_from_dict",
    "default_day_ahead",
    "deviations_from_series",
    "evaluate_out_of_sample",
    "fit_ar",
    "gauss_hermite",
    "kernel_density",
    "load_config",
    "nearest_node",
    "price_storage",
    "price_sweep",
    "read_price_csv",
    "simulate_deviation_path",
    "simulate_deviation_paths",
    "solve_stage",
    "stage_data_for",
    "terminal_cost",
    "train",
]
