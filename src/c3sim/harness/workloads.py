"""Deterministic workload streams.

The whole stream is generated up front from the workload random stream, so
community and vendor runs of the same seed consume literally the same
arrivals: same ticks, same requesters, same services, same metered draws.
Serving them differs; demanding them never does.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..engine import RngStream
from ..resources import ResourceVector
from .config import ScenarioConfig, ServiceEntry


@dataclass(slots=True)
class WorkloadItem:
    """One arrival, as the workload drew it. Nothing assigns to it after
    construction; it is not frozen because a build makes one per arrival,
    and a frozen dataclass sets each field through object.__setattr__."""
    at: int
    kind: str                 # read | write | session
    service_id: str = ""
    requester_index: int = 0
    actual: ResourceVector = ResourceVector()
    page: int = 0
    duration: int = 0


def draw_actual(svc: ServiceEntry, rng: RngStream) -> ResourceVector:
    """A draw between the service's actual bounds, both included: randint
    on compute, storage and bandwidth in that order."""
    lo, hi, below = svc.actual_min, svc.actual_max, rng.below
    return ResourceVector(
        lo.compute + below(hi.compute - lo.compute + 1),
        lo.storage + below(hi.storage - lo.storage + 1),
        lo.bandwidth + below(hi.bandwidth - lo.bandwidth + 1),
    )


def _pick_service(services: tuple[ServiceEntry, ...], total: float,
                  rng: RngStream) -> ServiceEntry:
    """A service drawn by share; total is the sum of the shares."""
    point = rng.random() * total
    acc = 0.0
    for svc in services:
        acc += svc.share
        if point < acc:
            return svc
    return services[-1]


def generate(config: ScenarioConfig, rng: RngStream,
             population: int) -> list[WorkloadItem]:
    if config.workload.kind == "wiki":
        return _wiki(config, rng, population)
    return _video(config, rng, population)


def _wiki(config: ScenarioConfig, rng: RngStream,
          population: int) -> list[WorkloadItem]:
    wl, services = config.workload, config.services
    total = sum(s.share for s in services)
    items = []
    t = 0.0
    while True:
        t += rng.expovariate(wl.rate)
        at = int(t)
        if at >= config.horizon:
            break
        requester = rng.below(population)
        if rng.random() < wl.read_fraction:
            svc = _pick_service(services, total, rng)
            items.append(WorkloadItem(at, "read", svc.service_id, requester,
                                      draw_actual(svc, rng)))
        else:
            items.append(WorkloadItem(at, "write", page=rng.below(wl.pages),
                                      requester_index=requester))
    return items


def _video(config: ScenarioConfig, rng: RngStream,
           population: int) -> list[WorkloadItem]:
    wl = config.workload
    svc = next(s for s in config.services if s.service_id == wl.service)
    items = []
    t = 0.0
    while True:
        t += rng.expovariate(wl.session_rate)
        at = int(t)
        if at >= config.horizon:
            break
        duration = max(1, int(rng.expovariate(1.0 / wl.mean_duration)))
        items.append(WorkloadItem(
            at, "session", svc.service_id, rng.below(population),
            actual=draw_actual(svc, rng), duration=duration))
    return items
