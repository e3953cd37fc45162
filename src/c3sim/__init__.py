"""Deterministic discrete-event simulator of community-run cloud computing.

The package models a cloud assembled from community-owned machines: a
peer-to-peer overlay with regional super-peer quorums, a community
currency with demand-driven pricing, a resource repository with weighted
provider selection, an eventually consistent replicated store, service
deployment with budget-metered execution and traffic-aware placement, and
trust-weighted diffusion of service updates. A scenario harness drives all
of it from INI files and emits recomputable CSV logs and JSON reports.

Everything is deterministic for a fixed seed: one integer-tick event loop,
named random streams, no wall-clock or hash-order dependence.
"""

from .engine import RngStream, RunSummary, Simulator
from .resources import RESOURCE_KINDS, ResourceVector

__version__ = "0.1.0"

__all__ = [
    "RESOURCE_KINDS", "ResourceVector", "RngStream", "RunSummary",
    "Simulator", "__version__",
]
