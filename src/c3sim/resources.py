"""Resource amounts shared by every layer of the simulator.

Amounts are integer units: compute units (work), storage units (occupancy)
and bandwidth units (transfer volume). Rates are expressed per tick where a
rate is meant; the vector itself is unit-agnostic.
"""
from __future__ import annotations

from dataclasses import dataclass

RESOURCE_KINDS = ("compute", "storage", "bandwidth")


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """An amount of each resource kind, in integer units."""
    compute: int = 0
    storage: int = 0
    bandwidth: int = 0

    def covers(self, required: ResourceVector) -> bool:
        """True when every component is at least the required amount."""
        return (
            self.compute >= required.compute
            and self.storage >= required.storage
            and self.bandwidth >= required.bandwidth
        )

    def get(self, kind: str) -> int:
        if kind not in RESOURCE_KINDS:
            raise KeyError(kind)
        return getattr(self, kind)
