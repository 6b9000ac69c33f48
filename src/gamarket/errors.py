"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SimulationError):
    """Invalid or inconsistent configuration."""


class DataError(SimulationError):
    """Price data is missing, malformed, or fails a sanity check."""


class InsufficientHistoryError(DataError):
    """The price history is too short for the requested training window."""


class TrainingDivergedError(SimulationError):
    """An agent's training error is not finite, or a generation's mean
    validation MSE is above 1.0 (its targets lie in [0.1, 0.9])."""


class TradeRejectedError(SimulationError):
    """A trade failed its settlement preconditions; no state was changed."""


class ConservationError(SimulationError):
    """A day's clearing changed a stock's share total or the total cash."""
