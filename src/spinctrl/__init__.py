"""Sparse piecewise-constant control pulses for Heisenberg spin chains.

Synthesizes x/y control fields on the first spin of a Heisenberg chain that
realize a target gate with high fidelity while keeping the total pulse
magnitude small, and compares the robustness of penalized and unpenalized
solutions against a pulse-coupled environment qubit via Choi trace distances.
Every propagation, with or without the environment qubit, runs through the
one slice kernel of ``spinctrl.model``, ``SliceKernel``. The
fidelity and penalty that ``optimize_controls`` reports are recomputed from
the best pulses with ``propagate`` and ``penalty``.
"""

from .channels import (
    ChoiMatrix,
    RobustnessReport,
    choi_distance,
    choi_of_env_channel,
    choi_of_unitary,
    robustness_experiment,
)
from .model import (
    ChainSpec,
    ControlSequence,
    TargetGate,
    bloch_trajectories,
    propagate,
    propagate_with_env,
    target_unitary,
)
from .objective import (
    ObjectiveConfig,
    fidelity,
    penalty,
    surrogate_abs,
)
from .optimizer import (
    BfgsInfo,
    OptimizationResult,
    OptimizerConfig,
    bfgs_minimize,
    optimize_controls,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "ChoiMatrix",
    "ControlSequence",
    "BfgsInfo",
    "ObjectiveConfig",
    "OptimizationResult",
    "OptimizerConfig",
    "RobustnessReport",
    "TargetGate",
    "bfgs_minimize",
    "bloch_trajectories",
    "choi_distance",
    "choi_of_env_channel",
    "choi_of_unitary",
    "fidelity",
    "optimize_controls",
    "penalty",
    "propagate",
    "propagate_with_env",
    "robustness_experiment",
    "surrogate_abs",
    "target_unitary",
]
