"""Scripted failure injection: who dies or returns, and when.

Targets are resolved when the entry fires, against the population as it is
at that moment. Each target is validated at build time (its grammar, and
that its region, class and class index exist), so a bad target fails the
run with a ConfigError before it starts instead of halfway through.
"""
from __future__ import annotations

from ..engine import RngStream
from ..overlay import NodeId
from .config import ConfigError, FailureEntry, ScenarioConfig


def validate_target(entry: FailureEntry, config: ScenarioConfig) -> None:
    """Raise ConfigError unless the entry's target names nodes of this run."""
    parts = entry.target.split(":")
    head = parts[0]
    where = f"[failures] {entry.name}.target"
    if head == "vendor":
        if config.mode != "vendor":
            raise ConfigError(where, "vendor target in community mode")
        return
    if head == "region":
        if len(parts) != 2 or parts[1] not in config.topology.regions:
            raise ConfigError(where, f"unknown region {entry.target!r}")
        return
    if head == "dvsp":
        if len(parts) != 3 or parts[1] not in config.topology.regions:
            raise ConfigError(where, f"unknown region {entry.target!r}")
        if not parts[2].isdigit():
            raise ConfigError(where, f"bad member count {entry.target!r}")
        return
    if head == "nodes":
        if len(parts) != 3 or parts[1] != "random":
            raise ConfigError(where, f"bad target {entry.target!r}")
        try:
            fraction = float(parts[2])
        except ValueError:
            raise ConfigError(where, f"bad fraction {entry.target!r}") from None
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(where, "fraction out of (0, 1]")
        return
    if head == "class":
        if len(parts) != 3 or not parts[2].isdigit():
            raise ConfigError(where, f"bad target {entry.target!r}")
        counts = {c.name: c.count for c in config.population}
        if parts[1] not in counts:
            raise ConfigError(where, f"unknown class {entry.target!r}")
        if int(parts[2]) >= counts[parts[1]]:
            raise ConfigError(where, f"index {parts[2]} out of range, class "
                                     f"{parts[1]} has {counts[parts[1]]} nodes")
        return
    raise ConfigError(where, f"bad target {entry.target!r}")


def resolve_target(entry: FailureEntry, *, overlay, rng: RngStream,
                   by_class: dict[str, list[NodeId]],
                   vendor_node: NodeId | None,
                   want_online: bool) -> list[NodeId]:
    """Concrete node list for one entry; kills want online, restores offline."""
    parts = entry.target.split(":")
    head = parts[0]
    if head == "vendor":
        return [vendor_node] if vendor_node is not None else []
    if head == "region":
        pool = overlay.regions.get(parts[1], [])
    elif head == "dvsp":
        vsp = overlay.dvsp(parts[1])
        members = list(vsp.members) if vsp else []
        return [m for m in members if overlay.is_online(m) == want_online][: int(parts[2])]
    elif head == "class":
        return [by_class[parts[1]][int(parts[2])]]
    else:  # nodes:random:<fraction>
        pool = [n for n in sorted(overlay.records)
                if n != vendor_node]
        fraction = float(parts[2])
        pool = [n for n in pool if overlay.is_online(n) == want_online]
        count = round(len(pool) * fraction)
        return rng.sample(pool, min(count, len(pool)))
    return [n for n in pool if overlay.is_online(n) == want_online]
