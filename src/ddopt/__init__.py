"""Cascaded dirty-derivative estimation interconnected with continuous-time
optimization flows, plus the simulation and verification harness around them."""

from .estimator import DirtyDerivativeConfig
from .flows import CorrectionMode, QuadraticTrackingCost
from .signals import NoiseSpec, benchmark_parameter_path
from .sim import SimConfig, run_interconnections

__version__ = "0.1.0"
