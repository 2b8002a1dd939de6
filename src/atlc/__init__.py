"""Event-triggered adaptive Taylor-Lagrange control for input-constrained
affine systems, with fixed-time-scale and second-order-barrier baselines
and an adaptive-cruise-control case study."""

from .controller import (
    ControlDecision,
    ControllerConfig,
    ControllerKind,
    EventRecord,
    SimulationError,
    TrajectoryLog,
    ZenoError,
    compute_control,
    simulate_closed_loop,
)
from .margin import MarginMap, tau_star_scan
from .model import (
    AccParams,
    SystemModel,
    acc_clf_terms,
    acc_dynamics_rhs,
    acc_lie_stack,
    acc_model,
    make_state,
    resistance_force,
)
from .qp import QpInstance, QpSolution, solve_qp
from .robust_bounds import BoundConfig, Box, make_box
from .sim import IntegratorConfig, IntegrationError, Segment, integrate_until_trigger
from .tau_select import TauSelectConfig, rollout_min_h, select_tau

__version__ = "0.1.0"

__all__ = [
    "AccParams",
    "BoundConfig",
    "Box",
    "ControlDecision",
    "ControllerConfig",
    "ControllerKind",
    "EventRecord",
    "IntegrationError",
    "IntegratorConfig",
    "MarginMap",
    "QpInstance",
    "QpSolution",
    "Segment",
    "SimulationError",
    "SystemModel",
    "TauSelectConfig",
    "TrajectoryLog",
    "ZenoError",
    "acc_clf_terms",
    "acc_dynamics_rhs",
    "acc_lie_stack",
    "acc_model",
    "compute_control",
    "integrate_until_trigger",
    "make_box",
    "make_state",
    "resistance_force",
    "rollout_min_h",
    "select_tau",
    "simulate_closed_loop",
    "solve_qp",
    "tau_star_scan",
]
