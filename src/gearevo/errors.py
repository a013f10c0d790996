"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration value."""


class DimensionError(ValueError):
    """Array or vector dimension does not match the declared contract."""


class ContractError(ValueError):
    """An operation was called outside its documented precondition."""


class NumericError(RuntimeError):
    """A numeric computation produced non-finite values."""


class OptimizerDegenerateError(RuntimeError):
    """The search distribution collapsed or lost positive definiteness."""

    def __init__(self, message: str, generation: int):
        super().__init__(f"{message} (generation {generation})")
        self.generation = generation


class CheckpointError(RuntimeError):
    """A run directory or checkpoint failed an integrity check."""
