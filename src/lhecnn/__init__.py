"""Packed leveled-HE CNN inference and TEE-assisted encrypted model refining.

An exact plaintext simulator stands in for the homomorphic backend: slot
arithmetic is bit-for-bit reproducible while level budgets, rotation schedules
and re-encryption cadence behave like the real leveled scheme, so packing
layouts and training pipelines can be validated and their operation counts
and estimated costs measured before paying for real ciphertext arithmetic.
"""

from .geometry import (
    CnnConfig,
    CombinedGeometry,
    ConvLayer,
    FcLayer,
    GeometryError,
    combined_geometry,
    packing_factor,
    preset,
)
from .lhe import (
    Ciphertext,
    KeyContext,
    LevelExhausted,
    LheParams,
    SimulatorBackend,
    deserialize,
    serialize,
)
from .metering import CostTable, OpMeter, build_report
from .oracle import PlainParams, init_params, plain_backward_step, plain_forward
from .refine import RefineResult, RefineSession, plan_layouts
from .tee import TeeService

__all__ = [
    "Ciphertext",
    "CnnConfig",
    "CombinedGeometry",
    "ConvLayer",
    "CostTable",
    "FcLayer",
    "GeometryError",
    "KeyContext",
    "LevelExhausted",
    "LheParams",
    "OpMeter",
    "PlainParams",
    "RefineResult",
    "RefineSession",
    "SimulatorBackend",
    "TeeService",
    "build_report",
    "combined_geometry",
    "deserialize",
    "init_params",
    "packing_factor",
    "plain_backward_step",
    "plain_forward",
    "plan_layouts",
    "preset",
    "serialize",
]

__version__ = "0.1.0"
