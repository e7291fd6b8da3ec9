"""Exception hierarchy shared by all hyperrag modules, and the shared config checks.

Every error carries a short machine-readable ``category`` used by the CLI
to produce structured error records and exit codes.
"""

import math
from dataclasses import fields


class HyperRagError(Exception):
    """Base class for all library errors."""

    category = "error"
    exit_code = 1


class ContractViolation(HyperRagError):
    """A documented precondition of an operation was violated by the caller."""

    category = "contract"
    exit_code = 2


class ConfigurationError(HyperRagError):
    """Invalid configuration: bad hyperparameter, unknown modality, shape mismatch."""

    category = "config"
    exit_code = 3


def config_values(cls, raw, source, error=ConfigurationError) -> dict:
    """The values of JSON object ``raw`` for fields of config class ``cls``,
    other keys skipped: an ``int`` field takes an int, a ``float`` field an
    int or a float (stored as ``float``), and neither takes a bool."""
    if not isinstance(raw, dict):
        raise error(f"{source}: expected a JSON object")
    values = {}
    for f in (f for f in fields(cls) if f.name in raw):
        value, kinds = raw[f.name], ((int, float) if f.type == "float" else int)
        if not isinstance(value, kinds) or isinstance(value, bool):
            raise error(f"{source}: key {f.name!r} must be of type {f.type}")
        try:
            values[f.name] = float(value) if f.type == "float" else value
        except OverflowError:  # an int past the float range
            raise error(f"{source}: key {f.name!r} must be finite") from None
    return values


def check_config_fields(config) -> None:
    """Finite ``float`` fields and a nonnegative ``seed``."""
    floats = (f.name for f in fields(config) if f.type == "float")
    bad = [name for name in floats if not math.isfinite(getattr(config, name))]
    if bad:
        raise ConfigurationError(f"{', '.join(bad)} must be finite")
    if config.seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {config.seed}")


class InvalidPointError(HyperRagError):
    """A vector does not satisfy the hyperboloid (or tangency) constraint."""

    category = "invalid_point"
    exit_code = 4


class DivergenceError(HyperRagError):
    """An optimizer produced a non-finite loss or gradient."""

    category = "divergence"
    exit_code = 5

    def __init__(self, message, step=None):
        super().__init__(message if step is None else f"{message} (step {step})")
        self.step = step


class InfeasibleConstraintError(HyperRagError):
    """A constrained optimization problem has an empty feasible set."""

    category = "infeasible"
    exit_code = 6


class NumericalError(HyperRagError):
    """An iterative numerical method failed to converge within its budget."""

    category = "numerical"
    exit_code = 7


class DataFormatError(HyperRagError):
    """A data file does not conform to its documented format."""

    category = "data_format"
    exit_code = 8
