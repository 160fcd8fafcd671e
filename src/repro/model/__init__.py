"""The paper's linearly constrained IP model and its exact solver."""

from repro.model.formulation import BuiltModel, ModelConfig, build_model
from repro.model.solver import MilpResult, MilpSolver, lp_relaxation_bound

__all__ = [
    "ModelConfig",
    "BuiltModel",
    "build_model",
    "MilpSolver",
    "MilpResult",
    "lp_relaxation_bound",
]
