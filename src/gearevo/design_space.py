"""Gear-ratio design vectors and their mapping onto actuator limits.

A design is a vector of positive gear-ratio factors, one per joint group.
A factor d trades torque for speed at constant mechanical power:

    tau_max_i  = tau_default_i  * d_i
    qdot_max_i = qdot_default_i / d_i

so tau_max_i * qdot_max_i is invariant in d.  The evolutionary layer works
on raw real vectors; designs are clamped to box bounds before evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .tables import write_table


@dataclass(eq=False)
class DesignVector:
    """A point in design space: one positive scale factor per joint group."""

    factors: np.ndarray

    def __post_init__(self):
        self.factors = np.asarray(self.factors, dtype=np.float64)
        if self.factors.ndim != 1 or self.factors.size == 0:
            raise DimensionError("design factors must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.factors)):
            raise ContractError("design factors must be finite")

    @property
    def dim(self) -> int:
        return self.factors.size


@dataclass(frozen=True)
class DesignSpace:
    """Box-bounded design space with identical bounds on every axis."""

    dim: int = 2
    lower_bound: float = 0.5
    upper_bound: float = 4.0

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("design space dim must be >= 1")
        if not (0.0 < self.lower_bound < self.upper_bound):
            raise ConfigError(
                f"design bounds must satisfy 0 < lower < upper, got "
                f"[{self.lower_bound}, {self.upper_bound}]"
            )


@dataclass(frozen=True)
class ActuatorLimits:
    """Per-joint torque and velocity limits induced by a design."""

    tau_max: np.ndarray
    qdot_max: np.ndarray


@dataclass
class ExpansionPlan:
    """Assignment of a design population onto a bank of environments.

    Environment k (1-based) evaluates design ceil(k / n_exp), so the
    population partitions the bank into contiguous blocks of n_exp
    environments each.
    """

    n_pop: int
    n_env: int
    n_exp: int = field(init=False)
    env_to_design: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n_pop < 1 or self.n_env < 1:
            raise ConfigError("n_pop and n_env must be positive")
        if self.n_env % self.n_pop != 0:
            raise ConfigError(
                f"n_env must be an exact multiple of n_pop, got "
                f"n_env={self.n_env}, n_pop={self.n_pop}"
            )
        self.n_exp = self.n_env // self.n_pop
        # 0-based array form of the 1-based ceil(k / n_exp) rule.
        self.env_to_design = np.arange(self.n_env) // self.n_exp

    def design_index(self, k: int) -> int:
        """1-based design index for 1-based environment index k."""
        if not 1 <= k <= self.n_env:
            raise DimensionError(f"environment index {k} outside 1..{self.n_env}")
        return int(self.env_to_design[k - 1]) + 1


def scale_actuator_limits(
    design: DesignVector | np.ndarray, tau_default: np.ndarray, qdot_default: np.ndarray
) -> ActuatorLimits:
    """Map a design vector, or an (n, dim) matrix of designs, to actuator
    limits at constant per-joint power."""
    factors = design.factors if isinstance(design, DesignVector) else np.asarray(design, float)
    tau_default = np.asarray(tau_default, dtype=np.float64)
    qdot_default = np.asarray(qdot_default, dtype=np.float64)
    dim = factors.shape[-1:]
    if tau_default.shape != dim or qdot_default.shape != dim:
        raise DimensionError(
            f"default limits must match design dim {dim[0]}, got "
            f"tau {tau_default.shape}, qdot {qdot_default.shape}"
        )
    return ActuatorLimits(tau_max=tau_default * factors, qdot_max=qdot_default / factors)


def clamp_to_bounds(factors: np.ndarray, space: DesignSpace) -> np.ndarray:
    """Project factors of shape (..., dim) onto the box bounds, coordinate-wise."""
    if np.shape(factors)[-1:] != (space.dim,):
        raise DimensionError(f"factors of shape {np.shape(factors)} != space dim {space.dim}")
    return np.clip(factors, space.lower_bound, space.upper_bound)


def expand_designs(n_pop: int, n_env: int) -> ExpansionPlan:
    """Partition n_env environments evenly over an n_pop design population."""
    return ExpansionPlan(n_pop=n_pop, n_env=n_env)


def grid_slice(
    space: DesignSpace,
    axis_a: int,
    axis_b: int,
    resolution: int,
    fixed: DesignVector,
) -> list[DesignVector]:
    """Regular 2-D grid over (axis_a, axis_b) with other axes held at `fixed`.

    Returns resolution**2 designs in row-major order (axis_a outer, axis_b
    inner) with inclusive bound endpoints.
    """
    for name, axis in (("axis_a", axis_a), ("axis_b", axis_b)):
        if not 0 <= axis < space.dim:
            raise DimensionError(f"{name}={axis} outside design space of dim {space.dim}")
    if axis_a == axis_b:
        raise ConfigError("grid axes must be distinct")
    if resolution < 2:
        raise ConfigError("grid resolution must be >= 2")
    if fixed.dim != space.dim:
        raise DimensionError(f"fixed design dim {fixed.dim} != space dim {space.dim}")

    values = np.linspace(space.lower_bound, space.upper_bound, resolution)
    grid = []
    for va in values:
        for vb in values:
            factors = fixed.factors.copy()
            factors[axis_a] = va
            factors[axis_b] = vb
            grid.append(DesignVector(factors))
    return grid


def write_designs_csv(designs: list[DesignVector], path) -> None:
    """Write designs as rows design_id,factor_0,... with 6 significant digits."""
    if not designs:
        raise ContractError("cannot write an empty design list")
    dim = designs[0].dim
    if any(d.dim != dim for d in designs):
        raise DimensionError("all designs in a CSV must share one dim")
    write_table(
        path,
        ["design_id"] + [f"factor_{i}" for i in range(dim)],
        ([idx] + [f"{x:.6g}" for x in d.factors] for idx, d in enumerate(designs)),
    )
