"""Agent-based stock market simulator.

Committees of small feed-forward networks predict next-day prices, trade
among themselves to consensus at announced historical prices under a fixed
share supply, and evolve their architectures with a genetic algorithm.
"""

from .config import SimulationConfig, parse_config
from .errors import (
    ConfigError,
    ConservationError,
    DataError,
    InsufficientHistoryError,
    SimulationError,
    TradeRejectedError,
    TrainingDivergedError,
    TrainingWorkerError,
)
from .neural import Hyperparams, Stack, TrainingWindow
from .players import Population
from .simulation import RunOutput, run_simulation

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConservationError",
    "DataError",
    "Hyperparams",
    "InsufficientHistoryError",
    "Population",
    "RunOutput",
    "SimulationConfig",
    "SimulationError",
    "Stack",
    "TradeRejectedError",
    "TrainingDivergedError",
    "TrainingWindow",
    "TrainingWorkerError",
    "parse_config",
    "run_simulation",
    "__version__",
]
