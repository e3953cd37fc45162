"""Version forests and trust-weighted update diffusion.

Every service has a forest of versions: a release names a released parent,
and the forest keeps only each version's exogenous fitness. Nodes follow a
static directed trust graph; at each adoption tick (aligned with gossip
rounds) a node switches to a version when enough of its trusted neighbors
run it (threshold theta) and it beats the node's current version on fitness.
All decisions in a tick read the tick-start snapshot, so a wave spreads one
trust hop per tick. Every switch pushes the old version on a per-node
history stack; rollback pops it, exactly undoing adoptions step for step.

A tick visits only the pending (node, service) pairs, whose decision may
have changed. A node's pick reads only its own version and its trusted
peers' versions of the service; fitness and theta are fixed, and a new
version matters only once some peer runs it. So a pair that declined
declines again until a version it reads changes. Every change of a version
(release, adoption, rollback step) marks the pair itself and the pair of
every node that trusts it, and a pair stays pending while its node is
offline. A pair marked during a tick is visited at the next one, as the
full scan would see the change only then. A root registration marks no
pair: while every node runs the root, no pick has a version to choose.
"""
from __future__ import annotations

from dataclasses import dataclass

from .overlay import NodeId


class EvolutionError(Exception):
    pass


class UnknownParent(EvolutionError):
    pass


class UnknownVersion(EvolutionError):
    pass


class HistoryUnderflow(EvolutionError):
    pass


@dataclass(frozen=True, slots=True)
class Adoption:
    """One node's switch of a service from one version to another, and
    its cause: release, adopt or rollback."""
    node: NodeId
    service_id: str
    from_version: str
    to_version: str
    cause: str


class UpdateDiffusion:
    def __init__(self, trust: dict[NodeId, tuple[NodeId, ...]],
                 theta: float = 0.5):
        if not 0.0 < theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        self.trust = trust
        self.theta = theta
        # Per service, each released version's fitness.
        self.versions: dict[str, dict[str, float]] = {}
        self.active: dict[tuple[NodeId, str], str] = {}
        self.history: dict[tuple[NodeId, str], list[str]] = {}
        # The nodes that trust each node, and the pairs whose pick may have
        # changed since they last declined.
        self._trusted_by: dict[NodeId, list[NodeId]] = {}
        for node, peers in trust.items():
            for peer in peers:
                self._trusted_by.setdefault(peer, []).append(node)
        self._pending: set[tuple[NodeId, str]] = set()

    # -- version forest ---------------------------------------------------------

    def register_root(self, service_id: str, version: str,
                      fitness: float) -> None:
        self.versions.setdefault(service_id, {})[version] = fitness
        for peer in self.trust:
            self.active[(peer, service_id)] = version
            self.history[(peer, service_id)] = []

    def fitness(self, service_id: str, version: str) -> float:
        try:
            return self.versions[service_id][version]
        except KeyError:
            raise UnknownVersion(f"{service_id}@{version}") from None

    def release(self, service_id: str, version: str, parent: str,
                fitness: float, origins: list[NodeId]) -> list[Adoption]:
        forest = self.versions.setdefault(service_id, {})
        if parent not in forest:
            raise UnknownParent(f"{service_id}@{parent}")
        if version in forest:
            raise EvolutionError(f"{service_id}@{version} already released")
        forest[version] = fitness
        return [self._switch(origin, service_id, version, "release")
                for origin in origins]

    def _switch(self, node: NodeId, service_id: str, version: str,
                cause: str) -> Adoption:
        key = (node, service_id)
        frm = self.active[key]
        self.history[key].append(frm)
        self.active[key] = version
        self._changed(node, service_id)
        return Adoption(node, service_id, frm, version, cause)

    def _changed(self, node: NodeId, service_id: str) -> None:
        """Mark the pairs that read node's version of the service."""
        pending = self._pending
        pending.add((node, service_id))
        for truster in self._trusted_by.get(node, ()):
            pending.add((truster, service_id))

    # -- diffusion ----------------------------------------------------------------

    def adoption_tick(self, is_online=None) -> list[Adoption]:
        """One synchronous wave over the tick-start snapshot, visiting the
        pending pairs in node, then service order. A pair that adopts is
        marked again by its switch; one that declines is dropped."""
        if not self._pending:
            return []
        visit = sorted(self._pending)
        self._pending = set()
        snapshot = dict(self.active)
        out = []
        for key in visit:
            node, service_id = key
            neighbors = self.trust.get(node)
            current = snapshot.get(key)
            if not neighbors or current is None:
                continue
            if is_online is not None and not is_online(node):
                self._pending.add(key)
                continue
            choice = self._pick(node, service_id, current, neighbors, snapshot)
            if choice is not None:
                out.append(self._switch(node, service_id, choice, "adopt"))
        return out

    def _pick(self, node: NodeId, service_id: str, current: str,
              neighbors: tuple[NodeId, ...], snapshot) -> str | None:
        tally: dict[str, int] = {}
        for peer in neighbors:
            v = snapshot.get((peer, service_id))
            if v is not None and v != current:
                tally[v] = tally.get(v, 0) + 1
        current_fit = self.fitness(service_id, current)
        best = None
        for version in sorted(tally):
            if tally[version] / len(neighbors) < self.theta:
                continue
            fit = self.fitness(service_id, version)
            if fit <= current_fit:
                continue
            if best is None or (fit, version) > best:
                best = (fit, version)
        return best[1] if best else None

    # -- rollback -------------------------------------------------------------------

    def rollback(self, node: NodeId, service_id: str,
                 steps: int) -> list[Adoption]:
        """Step back through the node's own adoption history."""
        key = (node, service_id)
        stack = self.history.get(key, [])
        if steps < 1 or len(stack) < steps:
            raise HistoryUnderflow(f"{len(stack)} < {steps}")
        out = []
        for _ in range(steps):
            frm = self.active[key]
            self.active[key] = stack.pop()
            out.append(Adoption(node, service_id, frm, self.active[key],
                                "rollback"))
        self._changed(node, service_id)
        return out

    # -- audits -----------------------------------------------------------------------

    def adoption_fraction(self, service_id: str, version: str) -> float:
        holders = [k for k in self.active if k[1] == service_id]
        if not holders:
            return 0.0
        on_v = sum(1 for k in holders if self.active[k] == version)
        return on_v / len(holders)
