"""The benchmark's tracer wraps the program's entry points by name.

``c3bench/tracing.install`` reads each wrapped name from its owner's
``vars``, so renaming one in ``src/`` breaks every traced benchmark run.
These tests enter and leave it against the current program. The last one
runs the benchmark's route check, which reads ``Overlay.adj``.
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from c3bench import checks  # noqa: E402
from c3bench.tracing import Tracer, install  # noqa: E402
from c3sim import (engine, evolution, ledger, overlay,  # noqa: E402
                   replication, resource_repo, services)
from c3sim.harness import parse_scenario, run_scenario, runner  # noqa: E402

OWNERS = (runner, runner.Runner, engine.Simulator, overlay.Overlay,
          resource_repo.Repository, replication.ReplicaStore, ledger.Ledger,
          ledger.MarketPrice, services.ServiceRuntime,
          evolution.UpdateDiffusion)


def test_install_wraps_the_entry_points_and_restores_them():
    before = [dict(vars(owner)) for owner in OWNERS]
    with install(Tracer()):
        wrapped = {(owner.__name__, attr)
                   for owner, saved in zip(OWNERS, before)
                   for attr, value in vars(owner).items()
                   if value is not saved.get(attr)}
    assert {("Overlay", "route"), ("ServiceRuntime", "_place_request"),
            ("Repository", "heartbeat"), ("c3sim.harness.runner", "generate"),
            ("Runner", "run")} <= wrapped
    for owner, saved in zip(OWNERS, before):
        assert dict(vars(owner)) == saved, owner.__name__


def test_a_traced_run_records_every_layer():
    config = replace(parse_scenario(ROOT / "scenarios" / "wiki_small.ini"),
                     horizon=6000)
    tracer = Tracer()
    with install(tracer):
        run_scenario(config)
    layers = {span[0].partition(".")[0] for span in tracer.spans}
    assert {"runner", "engine", "overlay", "resource_repo", "replication",
            "ledger", "services", "harness"} <= layers
    assert tracer.counters["resource_repo.heartbeats"] > 0


def test_a_traced_vendor_run_records_every_invocation(monkeypatch):
    """The vendor serves calls through the base ``plan_invoke``, so the
    wrapper on ``ServiceRuntime`` sees each one."""
    config = replace(parse_scenario(ROOT / "scenarios" / "wiki_small.ini"),
                     horizon=6000, mode="vendor")
    admitted = []
    admit = services.VendorRuntime.admit

    def counted(runtime, request, at):
        admitted.append(request.req_id)
        return admit(runtime, request, at)

    monkeypatch.setattr(services.VendorRuntime, "admit", counted)
    tracer = Tracer()
    with install(tracer):
        run_scenario(config)
    spans = [s for s in tracer.spans if s[0] == "services.plan_invoke"]
    assert admitted and len(spans) == len(admitted)


def test_the_benchmark_route_check_passes_on_the_overlay_copy():
    """The benchmark checks routes against ``Overlay.adj``, the NodeId-keyed
    copy of the links, so the copy must still match what route answers."""
    config = replace(parse_scenario(ROOT / "scenarios" / "wiki_small.ini"),
                     horizon=6000)
    ov = run_scenario(config).overlay
    pairs = checks.route_pairs(ov.records, 0)
    assert any(a != b and ov.reachable(a, b) for a, b in pairs)
    assert checks.check_routes(ov.route, ov.adj, ov.is_online, pairs) == []
