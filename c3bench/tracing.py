"""Spans around the program's layer entry points, recorded from outside.

``install`` replaces the public entry points of each c3sim module with
wrappers that record a span (name, start, end, parent) per call and
restores them on exit. A call made from inside the same layer is not
recorded separately: its time stays with the enclosing span of that
layer. Cheap accessors (``is_online``, ``replica_hosts``,
``dvsp_has_quorum`` and the like) are not wrapped, so their time counts
to whoever calls them.

Spans are kept in memory; ``write_spans`` saves them once the run ends.
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []   # (name, start_ns, end_ns, parent)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._layers.append(name.partition(".")[0])
        return idx

    def _close(self, idx: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self._layers.pop()
        self.spans[idx] = (name, start, end,
                           self._stack[-1] if self._stack else -1)

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Record a span named ``name`` around every call of owner.attr."""
        original = vars(owner)[attr]
        layer = name.partition(".")[0]
        layers, counters = self._layers, self.counters

        def traced(*args, **kwargs):
            if layers and layers[-1] == layer:
                return original(*args, **kwargs)
            idx = self._open(name)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _on_sweep(c, args, kwargs, result):
    repo, at = args[0], _arg(args, kwargs, 1, "at")
    c["resource_repo.heartbeats"] += sum(
        1 for r in repo.records.values() if r.last_heartbeat == at)


def _on_query(c, args, kwargs, result):
    c["resource_repo.query.requested"] += _arg(args, kwargs, 1, "query").count
    c["resource_repo.query.returned"] += len(result.nodes)


def _count(key, measure):
    def hook(c, args, kwargs, result):
        c[key] += measure(result)
    return hook


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap the layer entry points for the duration of the block."""
    from c3sim import engine, evolution, ledger, overlay, replication
    from c3sim import resource_repo, services
    from c3sim.harness import runner

    w = tracer.wrap
    w(runner.Runner, "run", "runner.run")
    w(engine.Simulator, "run", "engine.run")
    w(runner, "generate", "harness.workloads.generate")
    w(runner, "compute_report", "harness.metrics.report")
    for m in ("route", "reachable", "join", "leave", "maintenance",
              "add_link", "build", "form_dvsp"):
        w(overlay.Overlay, m, f"overlay.{m}")
    w(overlay.Overlay, "execute_transaction", "overlay.execute_transaction",
      _count("overlay.transactions.committed", lambda r: int(r.committed)))
    w(resource_repo.Repository, "sweep", "resource_repo.sweep", _on_sweep)
    w(resource_repo.Repository, "query", "resource_repo.query", _on_query)
    for m in ("heartbeat", "record_task", "register"):
        w(resource_repo.Repository, m, f"resource_repo.{m}")
    for m in ("ensure", "put", "deliver"):
        w(replication.ReplicaStore, m, f"replication.{m}")
    w(replication.ReplicaStore, "gossip_round", "replication.gossip_round",
      _count("replication.gossip_exchanges", int))
    w(replication.ReplicaStore, "rereplicate", "replication.rereplicate",
      _count("replication.rereplications", int))
    w(ledger.Ledger, "apply_batch", "ledger.apply_batch",
      _count("ledger.transfers", len))
    for m in ("settlement_rows", "can_cover", "open_account", "transfer"):
        w(ledger.Ledger, m, f"ledger.{m}")
    for m in ("update", "value_of"):
        w(ledger.MarketPrice, m, f"ledger.market.{m}")
    w(services.ServiceRuntime, "plan_invoke", "services.plan_invoke",
      _count("services.served", lambda r: int(r.served)))
    w(services.ServiceRuntime, "placement_tick", "services.placement_tick",
      _count("services.placement_actions", len))
    # _place_request is private, but the runner's session path calls it
    for m in ("publish", "resolve", "warm_instances", "host_lost",
              "settlement_rows", "_place_request"):
        w(services.ServiceRuntime, m, f"services.{m}")
    for m in ("release", "adoption_tick"):
        w(evolution.UpdateDiffusion, m, f"evolution.{m}",
          _count("evolution.adoptions", len))
    for m in ("register_root", "adoption_fraction"):
        w(evolution.UpdateDiffusion, m, f"evolution.{m}")
    try:
        yield tracer
    finally:
        tracer.restore()


LAYERS = ("overlay", "resource_repo", "replication", "ledger", "services",
          "evolution")


def layer_metrics(tracer: Tracer, events: int, scale: float) -> dict[str, float]:
    """Per-layer metrics over the spans inside the (single) ``runner.run``
    span. Host times are multiplied by ``scale`` (see calibration.py), and
    ``calibration`` spans inside the run are left out of its time."""
    spans = tracer.spans
    root = next(i for i, s in enumerate(spans) if s[0] == "runner.run")
    inside = [False] * len(spans)
    child_ns = [0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        inside[i] = i == root or (parent >= 0 and inside[parent])
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for i, (name, start, end, _parent) in enumerate(spans):
        if inside[i]:
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            self_ns[name.partition(".")[0]] += end - start - child_ns[i]
    harness_s: Counter = Counter()
    for name, start, end, _parent in spans:
        if name.startswith("harness."):
            harness_s[name] += (end - start) / 1e9 * scale

    def s(key):
        return self_ns[key] / 1e9 * scale

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counters
    run_s = (spans[root][2] - spans[root][1]) / 1e9 * scale - s("calibration")
    changes = sum(calls[f"overlay.{m}"]
                  for m in ("join", "leave", "maintenance", "add_link"))
    m = {
        "engine.events": events,
        "runner.self_s": s("engine.run") + s("runner.run"),
        "trace.run_s": run_s,
        "overlay.route.calls": calls["overlay.route"],
        "overlay.route.self_s": s("overlay.route"),
        "overlay.route.us_per_call": ratio(s("overlay.route") * 1e6,
                                           calls["overlay.route"]),
        "overlay.reachable.calls": calls["overlay.reachable"],
        "overlay.topology_changes": changes,
        "overlay.routes_per_change": ratio(
            calls["overlay.route"] + calls["overlay.reachable"], changes),
        "overlay.maintenance.self_s": s("overlay.maintenance"),
        "overlay.transactions": calls["overlay.execute_transaction"],
        "overlay.transactions_committed_ratio": ratio(
            c["overlay.transactions.committed"],
            calls["overlay.execute_transaction"]),
        "resource_repo.sweep.calls": calls["resource_repo.sweep"],
        "resource_repo.sweep.self_s": s("resource_repo.sweep"),
        "resource_repo.heartbeats": c["resource_repo.heartbeats"],
        "resource_repo.query.calls": calls["resource_repo.query"],
        "resource_repo.query.self_s": s("resource_repo.query"),
        "resource_repo.query.fill_ratio": ratio(
            c["resource_repo.query.returned"],
            c["resource_repo.query.requested"]),
        "replication.put.calls": calls["replication.put"],
        "replication.gossip_exchanges": c["replication.gossip_exchanges"],
        "replication.rereplications": c["replication.rereplications"],
        "ledger.batches": calls["ledger.apply_batch"],
        "ledger.transfers": c["ledger.transfers"],
        "ledger.price_updates": calls["ledger.market.update"],
        "services.plan_invoke.calls": calls["services.plan_invoke"],
        "services.served_ratio": ratio(c["services.served"],
                                       calls["services.plan_invoke"]),
        "services.placement_actions": c["services.placement_actions"],
        "evolution.adoptions": c["evolution.adoptions"],
        "harness.config.parse_s": harness_s["harness.config.parse"],
        "harness.workloads.generate_s":
            harness_s["harness.workloads.generate"],
        "harness.metrics.report_s": harness_s["harness.metrics.report"],
        "harness.io.write_s": harness_s["harness.io.write"],
        "harness.io.recompute_s": harness_s["harness.io.recompute"],
        "harness.audits.s": harness_s["harness.audits"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s(layer)
        if layer != "evolution":
            m[f"{layer}.share"] = ratio(s(layer), run_s)
    return m


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_ns,end_ns\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{i},{parent},{name},{start},{end}\n")
