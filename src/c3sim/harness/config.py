"""Scenario files: a line-oriented section/key format and its typed model.

A scenario is an INI-style text file. Sections and keys:

[simulation]
  seed, horizon, mode (community|vendor), gossip_period, heartbeat_interval,
  price_window, placement_window, push_placement (on|off), replication_r,
  dsr_r, cool_down_windows
[topology]
  regions (comma list), degree, inter_region_links, intra_latency,
  inter_latency, vendor_latency, m_target
[population]
  classes = a, b, ...       then per class:
  <class>.count, .compute, .storage, .bandwidth, .credit_limit,
  .initial_balance, .mean_online, .mean_offline (0 = no churn),
  .cost_factor, .regions (comma list, spread round-robin)
[market]
  alpha, p_min, p_max, initial_compute, initial_storage, initial_bandwidth,
  minting (on|off)
[services]
  catalog = s1, s2, ...     then per service:
  <svc>.declared_compute/_storage/_bandwidth, .code_size, .min_replicas,
  .subsidy, .developer_balance, .share (workload weight, >= 0; the
  catalog's shares must not all be 0),
  .actual_<res>_min/_max (metered draw range), .chain_next (optional),
  .update_at / .update_fitness (optional mid-run release), .fitness
[workload]
  kind = wiki | video
  wiki: rate, read_fraction, pages, write_size
  video: session_rate, mean_duration, stream_rate, floor, sustain_window,
         service (which catalog entry the sessions hit)
[failures]
  entries = e1, e2, ...     then per entry:
  <e>.at, .action (kill|restore), .target
  targets: nodes:random:<fraction> | region:<name> | dvsp:<region>:<k>
           | vendor | class:<name>:<index>
  churn_multiplier (scales mean_online/mean_offline; 0 freezes churn)
  Each target is parsed once into FailureEntry fields. A vendor target is
  checked when a run is built, after --mode applies.
[evolution]
  trust_out_degree, theta

Unknown or repeated keys and sections, repeated names in a comma list, and
keys before the first section are rejected so a typo cannot silently
change a run. Every number must be finite. Every integer must lie in
[-MAX_INTEGER, MAX_INTEGER] with MAX_INTEGER = 2**53, so that every float
made from it later is exact and finite; keys with tighter bounds keep them.

Keys that size what a run builds before its first event, or the work of
a step, have fixed upper bounds. Each is at least 5x the largest value
that the tests, the benchmark and the measured scaled runs use (brackets):
MAX_NODES = 50,000 nodes over all classes [2,400: video_small x80];
MAX_ARRIVALS = 1,000,000 for rate (session_rate for video) x horizon
[120,000: wiki_small x4 at 50x horizon, and the conservation test];
MAX_CHURN_EVENTS = 1,000,000 for the expected leaves and joins,
churn_multiplier x horizon x the sum over churning classes of
2 x count / (mean_online + mean_offline) [4,800: video_small x80];
MAX_TICKS = 100,000 for horizon / each of the four periods [6,000];
MAX_REPLICAS = 100 for each <svc>.min_replicas [4];
MAX_INTER_REGION_LINKS = 100 [3]; MAX_LATENCY = 10**9 for each latency
[50], so a route of at most MAX_NODES + 1 links stays far below the 2**62
that routing reads as unreached. A seed or horizon override is checked again.
"""
from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

from ..ledger import MarketConfig
from ..resources import ResourceVector


MAX_INTEGER = 2 ** 53
MAX_NODES = 50_000
MAX_ARRIVALS = 1_000_000
MAX_CHURN_EVENTS = 1_000_000
MAX_TICKS = 100_000
MAX_REPLICAS = 100
MAX_INTER_REGION_LINKS = 100
MAX_LATENCY = 10 ** 9


class ConfigError(Exception):
    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True, slots=True)
class PopulationClass:
    """One `[population]` class: `count` nodes with the same capacity,
    account terms and churn means, dealt round-robin over `regions`."""
    name: str
    count: int
    compute: int
    storage: int
    bandwidth: int
    credit_limit: int
    initial_balance: int
    mean_online: int
    mean_offline: int
    cost_factor: float
    regions: tuple[str, ...]

    @property
    def capacity(self) -> ResourceVector:
        return ResourceVector(self.compute, self.storage, self.bandwidth)


@dataclass(frozen=True, slots=True)
class ServiceEntry:
    """One `[services]` catalog entry: the declared draw and code, the
    developer's terms, the workload `share` and the bounds of the actual
    draw, and the scripted update release."""
    service_id: str
    declared: ResourceVector
    code_size: int
    min_replicas: int
    subsidy: int
    developer_balance: int
    share: float
    actual_min: ResourceVector
    actual_max: ResourceVector
    chain_next: str | None
    update_at: int | None
    update_fitness: float | None
    fitness: float


@dataclass(frozen=True, slots=True)
class TopologySpec:
    """The `[topology]` section: the regions, the community wiring and
    its latencies, the vendor's latency and the super-peer size."""
    regions: tuple[str, ...]
    degree: int
    inter_region_links: int
    intra_latency: int
    inter_latency: int
    vendor_latency: int
    m_target: int


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """The `[workload]` section. Every key is parsed whatever the kind:
    a wiki workload reads `rate`, `read_fraction`, `pages` and
    `write_size`, a video workload `session_rate`, `mean_duration` and
    `service`, and sessions the stream keys."""
    kind: str
    rate: float
    read_fraction: float
    pages: int
    write_size: int
    session_rate: float
    mean_duration: int
    stream_rate: int
    floor: float
    sustain_window: int
    service: str


@dataclass(frozen=True, slots=True)
class FailureEntry:
    """One scripted kill or restore. `kind` is the target's head, `scope`
    the region or class it names, `k` the dvsp count or class index and
    `fraction` the random share; unused fields are "", 0 and 0.0."""
    name: str
    at: int
    action: str
    kind: str
    scope: str
    k: int
    fraction: float


@dataclass(frozen=True, slots=True)
class EvolutionSpec:
    """The `[evolution]` section: each node's trusted-peer count and the
    adoption threshold."""
    trust_out_degree: int
    theta: float


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """A parsed, checked scenario: everything a run reads of it. The
    `[simulation]` keys are fields here; each other section is a record."""
    seed: int
    horizon: int
    mode: str
    gossip_period: int
    heartbeat_interval: int
    price_window: int
    placement_window: int
    push_placement: bool
    replication_r: int
    dsr_r: int
    cool_down_windows: int
    topology: TopologySpec
    population: tuple[PopulationClass, ...]
    market: MarketConfig
    services: tuple[ServiceEntry, ...]
    workload: WorkloadSpec
    failures: tuple[FailureEntry, ...]
    churn_multiplier: float
    evolution: EvolutionSpec


_SECTIONS = ("simulation", "topology", "population", "market", "services",
             "workload", "failures", "evolution")


class _Section:
    """Typed reads with field-qualified errors and unknown-key detection."""

    def __init__(self, name: str, raw: dict[str, str]):
        self.name = name
        self.raw = dict(raw)
        self.seen: set[str] = set()

    def _get(self, key: str, default):
        self.seen.add(key)
        if key not in self.raw:
            if default is _REQUIRED:
                raise ConfigError(f"[{self.name}] {key}", "required key missing")
            return None
        return self.raw[key]

    def text(self, key: str, default=None) -> str:
        value = self._get(key, default)
        return default if value is None else value.strip()

    def integer(self, key: str, default=None, minimum: int = -MAX_INTEGER,
                maximum: int = MAX_INTEGER) -> int:
        value = self._get(key, default)
        if value is None:
            return default
        try:
            out = int(str(value).strip())
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}",
                              f"not an integer: {value!r}") from None
        if out < minimum:
            raise ConfigError(f"[{self.name}] {key}", f"must be >= {minimum}")
        if out > maximum:
            raise ConfigError(f"[{self.name}] {key}", f"must be <= {maximum}")
        return out

    def number(self, key: str, default=None,
               minimum: float | None = None) -> float:
        value = self._get(key, default)
        if value is None:
            return default
        try:
            out = float(str(value).strip())
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}",
                              f"not a number: {value!r}") from None
        if not math.isfinite(out) or (minimum is not None and out < minimum):
            bound = "" if minimum is None else f" and >= {minimum}"
            raise ConfigError(f"[{self.name}] {key}", f"must be finite{bound}")
        return out

    def flag(self, key: str, default: bool) -> bool:
        value = self._get(key, None)
        if value is None:
            return default
        lowered = value.strip().lower()
        if lowered in ("on", "true", "yes", "1"):
            return True
        if lowered in ("off", "false", "no", "0"):
            return False
        raise ConfigError(f"[{self.name}] {key}", f"not a flag: {value!r}")

    def names(self, key: str) -> tuple[str, ...]:
        value = self.text(key, "")
        names = tuple(v.strip() for v in value.split(",") if v.strip())
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError(f"[{self.name}] {key}", f"{name!r} is repeated")
        return names

    def finish(self) -> None:
        unknown = set(self.raw) - self.seen
        if unknown:
            raise ConfigError(f"[{self.name}] {sorted(unknown)[0]}",
                              "unknown key")


_REQUIRED = object()


def parse_scenario(path: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None)
    with _syntax_errors():
        read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError("scenario", f"cannot read {path}")
    return _from_parser(parser)


def parse_scenario_text(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None)
    with _syntax_errors():
        parser.read_string(text)
    return _from_parser(parser)


@contextmanager
def _syntax_errors():
    """Raise configparser's syntax errors as a ConfigError naming the
    section and key, or the line where there is no section."""
    try:
        yield
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"[{exc.section}] {exc.option}",
                          f"repeated on line {exc.lineno}") from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"[{exc.section}]",
                          f"repeated on line {exc.lineno}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("scenario", f"not UTF-8 at byte {exc.start}") from None
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"line {exc.lineno}",
                          "no [section] header before it") from None
    except configparser.ParsingError as exc:
        raise ConfigError(f"line {exc.errors[0][0]}",
                          "not a [section] header or a key = value") from None


def _from_parser(parser: configparser.ConfigParser) -> ScenarioConfig:
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}]", "unknown section")

    def section(name: str) -> _Section:
        return _Section(name, dict(parser[name]) if parser.has_section(name) else {})

    sim = section("simulation")
    mode = _checked_mode(sim.text("mode", "community"))
    topo = _topology(section("topology"))
    population = _population(section("population"), topo.regions)
    market = _market(section("market"))
    services = _services(section("services"))
    workload = _workload(section("workload"), services)
    failures, churn_mult = _failures(section("failures"))
    evo = section("evolution")
    evolution = EvolutionSpec(
        trust_out_degree=evo.integer("trust_out_degree", 3, minimum=1),
        theta=evo.number("theta", 0.5),
    )
    evo.finish()
    config = ScenarioConfig(
        seed=sim.integer("seed", 42, minimum=0),
        horizon=sim.integer("horizon", 100_000, minimum=1),
        mode=mode,
        gossip_period=sim.integer("gossip_period", 1000, minimum=1),
        heartbeat_interval=sim.integer("heartbeat_interval", 500, minimum=1),
        price_window=sim.integer("price_window", 5000, minimum=1),
        placement_window=sim.integer("placement_window", 5000, minimum=1),
        push_placement=sim.flag("push_placement", True),
        replication_r=sim.integer("replication_r", 3, minimum=1),
        dsr_r=sim.integer("dsr_r", 3, minimum=1),
        cool_down_windows=sim.integer("cool_down_windows", 3, minimum=1),
        topology=topo,
        population=population,
        market=market,
        services=services,
        workload=workload,
        failures=failures,
        churn_multiplier=churn_mult,
        evolution=evolution,
    )
    sim.finish()
    _validate(config)
    return config


def _topology(sec: _Section) -> TopologySpec:
    regions = sec.names("regions") or ("r0", "r1")
    spec = TopologySpec(
        regions=regions,
        degree=sec.integer("degree", 6, minimum=3),
        inter_region_links=sec.integer("inter_region_links", 3, minimum=1,
                                       maximum=MAX_INTER_REGION_LINKS),
        intra_latency=sec.integer("intra_latency", 5, minimum=1,
                                  maximum=MAX_LATENCY),
        inter_latency=sec.integer("inter_latency", 50, minimum=1,
                                  maximum=MAX_LATENCY),
        vendor_latency=sec.integer("vendor_latency", 40, minimum=1,
                                   maximum=MAX_LATENCY),
        m_target=sec.integer("m_target", 5, minimum=1),
    )
    sec.finish()
    return spec


def _population(sec: _Section, regions: tuple[str, ...]) -> tuple[PopulationClass, ...]:
    out = []
    for name in sec.names("classes"):
        prefix = f"{name}."
        spread = sec.names(prefix + "regions") or regions
        for region in spread:
            if region not in regions:
                raise ConfigError(f"[population] {name}.regions",
                                  f"unknown region {region!r}")
        klass = PopulationClass(
            name=name,
            count=sec.integer(prefix + "count", _REQUIRED, minimum=1),
            compute=sec.integer(prefix + "compute", 2, minimum=1),
            storage=sec.integer(prefix + "storage", 200, minimum=1),
            bandwidth=sec.integer(prefix + "bandwidth", 10, minimum=1),
            credit_limit=sec.integer(prefix + "credit_limit", 0, minimum=0),
            initial_balance=sec.integer(prefix + "initial_balance", 100_000),
            mean_online=sec.integer(prefix + "mean_online", 0, minimum=0),
            mean_offline=sec.integer(prefix + "mean_offline", 0, minimum=0),
            cost_factor=sec.number(prefix + "cost_factor", 1.0, minimum=0),
            regions=spread,
        )
        if klass.mean_offline > 0 and klass.mean_online == 0:
            raise ConfigError(f"[population] {prefix}mean_online",
                              "must be >= 1 when mean_offline > 0")
        out.append(klass)
    sec.finish()
    return tuple(out)


def _market(sec: _Section) -> MarketConfig:
    market = MarketConfig(
        alpha=sec.number("alpha", 0.5, minimum=0),
        p_min=sec.integer("p_min", 1, minimum=0),
        p_max=sec.integer("p_max", 1000, minimum=1),
        initial={
            "compute": sec.integer("initial_compute", 10, minimum=1),
            "storage": sec.integer("initial_storage", 2, minimum=1),
            "bandwidth": sec.integer("initial_bandwidth", 4, minimum=1),
        },
        minting=sec.flag("minting", False),
    )
    sec.finish()
    for kind, price in market.initial.items():
        if not market.p_min <= price <= market.p_max:
            raise ConfigError(f"[market] initial_{kind}",
                              f"must be in [p_min, p_max] = "
                              f"[{market.p_min}, {market.p_max}]")
    return market


def _services(sec: _Section) -> tuple[ServiceEntry, ...]:
    out = []
    for name in sec.names("catalog"):
        p = f"{name}."
        declared = ResourceVector(
            sec.integer(p + "declared_compute", 4, minimum=0),
            sec.integer(p + "declared_storage", 0, minimum=0),
            sec.integer(p + "declared_bandwidth", 2, minimum=0),
        )
        actual_min = ResourceVector(
            sec.integer(p + "actual_compute_min", declared.compute, minimum=0),
            sec.integer(p + "actual_storage_min", declared.storage, minimum=0),
            sec.integer(p + "actual_bandwidth_min", declared.bandwidth, minimum=0),
        )
        actual_max = ResourceVector(
            sec.integer(p + "actual_compute_max", actual_min.compute, minimum=0),
            sec.integer(p + "actual_storage_max", actual_min.storage, minimum=0),
            sec.integer(p + "actual_bandwidth_max", actual_min.bandwidth, minimum=0),
        )
        update_at = sec.integer(p + "update_at", None, minimum=0)
        out.append(ServiceEntry(
            service_id=name,
            declared=declared,
            code_size=sec.integer(p + "code_size", 20, minimum=1),
            min_replicas=sec.integer(p + "min_replicas", 3, minimum=1,
                                     maximum=MAX_REPLICAS),
            subsidy=sec.integer(p + "subsidy", 0, minimum=0),
            developer_balance=sec.integer(p + "developer_balance", 0),
            share=sec.number(p + "share", 1.0, minimum=0),
            actual_min=actual_min,
            actual_max=actual_max,
            chain_next=sec.text(p + "chain_next", None),
            update_at=update_at,
            update_fitness=sec.number(p + "update_fitness", None),
            fitness=sec.number(p + "fitness", 1.0),
        ))
    sec.finish()
    if out and sum(s.share for s in out) <= 0:
        raise ConfigError("[services] " + ", ".join(
            f"{s.service_id}.share" for s in out), "must have a positive total")
    return tuple(out)


def _workload(sec: _Section, services: tuple[ServiceEntry, ...]) -> WorkloadSpec:
    kind = sec.text("kind", "wiki")
    if kind not in ("wiki", "video"):
        raise ConfigError("[workload] kind", f"must be wiki or video, got {kind!r}")
    spec = WorkloadSpec(
        kind=kind,
        rate=sec.number("rate", 0.01),
        read_fraction=sec.number("read_fraction", 0.95),
        pages=sec.integer("pages", 50, minimum=1),
        write_size=sec.integer("write_size", 5, minimum=1),
        session_rate=sec.number("session_rate", 0.0005),
        mean_duration=sec.integer("mean_duration", 20_000, minimum=1),
        stream_rate=sec.integer("stream_rate", 2, minimum=1),
        floor=sec.number("floor", 0.8),
        sustain_window=sec.integer("sustain_window", 2000, minimum=1),
        service=sec.text("service", services[0].service_id if services else ""),
    )
    sec.finish()
    for key, value in (("read_fraction", spec.read_fraction), ("floor", spec.floor)):
        if not 0.0 <= value <= 1.0:  # nan fails too
            raise ConfigError(f"[workload] {key}", "must be in [0, 1]")
    for key, value in (("rate", spec.rate), ("session_rate", spec.session_rate)):
        if not value > 0:
            raise ConfigError(f"[workload] {key}", "must be > 0")
    return spec


def _failures(sec: _Section) -> tuple[tuple[FailureEntry, ...], float]:
    out = []
    for name in sec.names("entries"):
        p = f"{name}."
        action = sec.text(p + "action", "kill")
        if action not in ("kill", "restore"):
            raise ConfigError(f"[failures] {name}.action",
                              f"must be kill or restore, got {action!r}")
        at = sec.integer(p + "at", _REQUIRED, minimum=0)
        target = _target(f"[failures] {name}.target",
                         sec.text(p + "target", _REQUIRED))
        out.append(FailureEntry(name, at, action, *target))
    churn_mult = sec.number("churn_multiplier", 1.0, minimum=0)
    sec.finish()
    return tuple(out), churn_mult


def _target(where: str, text: str) -> tuple[str, str, int, float]:
    """A target's (kind, scope, k, fraction); see FailureEntry."""
    head, *args = text.split(":")
    if head == "vendor" and not args:
        return head, "", 0, 0.0
    if head == "region" and len(args) == 1:
        return head, args[0], 0, 0.0
    if head in ("dvsp", "class") and len(args) == 2:
        if not (args[1].isascii() and args[1].isdigit()):
            raise ConfigError(where, f"bad count or index {text!r}")
        return head, args[0], int(args[1]), 0.0
    if head == "nodes" and len(args) == 2 and args[0] == "random":
        try:
            fraction = float(args[1])
        except ValueError:
            raise ConfigError(where, f"bad fraction {text!r}") from None
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(where, "fraction out of (0, 1]")
        return head, "", 0, fraction
    raise ConfigError(where, f"bad target {text!r}")


def _validate(config: ScenarioConfig) -> None:
    if not config.population:
        raise ConfigError("[population] classes", "at least one class required")
    if not config.services and config.workload.kind == "wiki":
        raise ConfigError("[services] catalog", "wiki workload needs services")
    names = {s.service_id for s in config.services}
    for svc in config.services:
        if svc.chain_next is not None and svc.chain_next not in names:
            raise ConfigError(f"[services] {svc.service_id}.chain_next",
                              f"unknown service {svc.chain_next!r}")
        if not svc.actual_max.covers(svc.actual_min):
            raise ConfigError(f"[services] {svc.service_id}.actual_*",
                              "max must cover min")
        if svc.update_at is not None and svc.update_fitness is None:
            raise ConfigError(f"[services] {svc.service_id}.update_fitness",
                              "required when update_at is set")
    if config.workload.kind == "video" and config.workload.service not in names:
        raise ConfigError("[workload] service",
                          f"unknown service {config.workload.service!r}")
    if not 0.0 < config.evolution.theta <= 1.0:
        raise ConfigError("[evolution] theta", "must be in (0, 1]")
    nodes = sum(c.count for c in config.population)
    if nodes > MAX_NODES:
        raise ConfigError("[population] " + ", ".join(
            f"{c.name}.count" for c in config.population),
            f"{nodes} nodes in total, above {MAX_NODES}")
    _check_horizon(config)
    counts = {c.name: c.count for c in config.population}
    for entry in config.failures:
        where = f"[failures] {entry.name}.target"
        if (entry.kind in ("region", "dvsp")
                and entry.scope not in config.topology.regions):
            raise ConfigError(where, f"unknown region {entry.scope!r}")
        if entry.kind == "class":
            count = counts.get(entry.scope)
            if count is None:
                raise ConfigError(where, f"unknown class {entry.scope!r}")
            if entry.k >= count:
                raise ConfigError(where, f"index {entry.k} out of range, class "
                                         f"{entry.scope} has {count} nodes")


def _check_horizon(config: ScenarioConfig) -> None:
    """Bound the arrivals and periodic ticks queued before the first event,
    and the churn events the run will draw. Both callers have checked that
    the horizon is at least 1."""
    wl = config.workload
    key, rate = (("rate", wl.rate) if wl.kind == "wiki"
                 else ("session_rate", wl.session_rate))
    # quotients, so no horizon overflows a float
    if rate > MAX_ARRIVALS / config.horizon:
        raise ConfigError(f"[workload] {key}",
                          f"{key} x horizon is above {MAX_ARRIVALS} arrivals")
    # A churning node leaves and rejoins once per mean_online + mean_offline
    # ticks, both divided by the multiplier.
    churn_rate = config.churn_multiplier * sum(
        2 * c.count / (c.mean_online + c.mean_offline)
        for c in config.population if c.mean_offline > 0)
    if churn_rate > MAX_CHURN_EVENTS / config.horizon:
        raise ConfigError("[failures] churn_multiplier",
                          f"expected churn events over the horizon are "
                          f"above {MAX_CHURN_EVENTS}")
    for key in ("gossip_period", "heartbeat_interval", "price_window",
                "placement_window"):
        if config.horizon // getattr(config, key) > MAX_TICKS:
            raise ConfigError(f"[simulation] {key}",
                              f"horizon / {key} is above {MAX_TICKS} ticks")


def _checked_mode(mode: str) -> str:
    """The mode, from the file or from --mode, if it is a known one."""
    if mode not in ("community", "vendor"):
        raise ConfigError("[simulation] mode",
                          f"must be community or vendor, got {mode!r}")
    return mode


def with_overrides(config: ScenarioConfig, seed: int | None = None,
                   horizon: int | None = None,
                   mode: str | None = None) -> ScenarioConfig:
    """config with the given fields replaced, under the parser's bounds."""
    for key, value, minimum in (("seed", seed, 0), ("horizon", horizon, 1)):
        if value is not None and not minimum <= value <= MAX_INTEGER:
            raise ConfigError(f"[simulation] {key}",
                              f"must be in [{minimum}, {MAX_INTEGER}]")
    if seed is not None:
        config = replace(config, seed=seed)
    if horizon is not None:
        config = replace(config, horizon=horizon)
        _check_horizon(config)
    if mode is not None:
        config = replace(config, mode=_checked_mode(mode))
    return config
