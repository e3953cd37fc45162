"""Scenario harness: config schema, workload streams, metrics, audits, outputs, CLI."""
from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c3sim.engine import RngStream, Simulator
from c3sim.harness import cli
from c3sim.harness.audits import (
    audit_conservation,
    audit_credit_floor,
    audit_payment_identity,
    audit_price_bounds,
    audit_termination,
    run_audits,
)
from c3sim.harness.config import (
    MAX_ARRIVALS,
    MAX_INTEGER,
    MAX_LATENCY,
    MAX_NODES,
    ConfigError,
    parse_scenario,
    parse_scenario_text,
    with_overrides,
)
from c3sim.harness.io import read_logs, report_csv, report_json, write_outputs
from c3sim.harness.metrics import COLUMNS, column_index, compute_report, percentile
from c3sim.harness.recompute import main as recompute_main
from c3sim.harness.recompute import recompute
from c3sim.harness.runner import Runner, run_scenario
from c3sim.harness.workloads import WorkloadItem, generate
from c3sim.resources import ResourceVector
from check_digests import scaled
from helpers import assert_kept_facts

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def ini(sections: dict[str, dict]) -> str:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
        lines.append("")
    return "\n".join(lines)


def integer_keys() -> list[tuple[str, str, str]]:
    """(scenario, section, key) of each key of a shipped scenario whose value
    parses as an integer. A service's share is a float weight written as a
    whole number, so it is left out."""
    out = []
    for path in sorted(SCENARIO_DIR.glob("*.ini")):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path)
        for section in parser.sections():
            for key, value in parser[section].items():
                if (value.strip().lstrip("-").isdecimal()
                        and not key.endswith(".share")):
                    out.append((path.stem, section, key))
    return out


def small_scenario(**patches) -> str:
    """One region, twelve fat nodes, no churn. Patches merge per section."""
    sections = {
        "simulation": {"seed": 5, "horizon": 6000, "mode": "community",
                       "gossip_period": 500, "heartbeat_interval": 500,
                       "price_window": 2000, "placement_window": 2000},
        "topology": {"regions": "r0", "degree": 4, "inter_region_links": 1,
                     "intra_latency": 5, "inter_latency": 50, "m_target": 3},
        "population": {"classes": "box", "box.count": 12, "box.compute": 10,
                       "box.storage": 5000, "box.bandwidth": 3000,
                       "box.initial_balance": 10000},
        "services": {"catalog": "svc", "svc.declared_compute": 4,
                     "svc.declared_bandwidth": 2, "svc.code_size": 10,
                     "svc.min_replicas": 2, "svc.actual_compute_min": 2,
                     "svc.actual_compute_max": 6, "svc.actual_bandwidth_min": 1,
                     "svc.actual_bandwidth_max": 2},
        "workload": {"kind": "wiki", "rate": 0.02, "read_fraction": 0.8,
                     "pages": 10, "write_size": 5},
    }
    for name, patch in patches.items():
        sections.setdefault(name, {}).update(patch)
    return ini({name: body for name, body in sections.items() if body})


def row(log: str, **values) -> tuple:
    """Schema-shaped log row; unset columns take their converter's zero."""
    out = []
    for name, conv in COLUMNS[log]:
        out.append(values.pop(name) if name in values else conv())
    assert not values, f"unknown columns {sorted(values)}"
    return tuple(out)


# ---------------------------------------------------------------- config


class TestScenarioParsing:
    def test_shipped_wiki_scenario_parses_to_the_letter(self):
        cfg = parse_scenario(SCENARIO_DIR / "wiki_small.ini")
        assert (cfg.seed, cfg.horizon, cfg.mode) == (42, 60000, "community")
        assert (cfg.gossip_period, cfg.heartbeat_interval) == (1000, 500)
        assert (cfg.price_window, cfg.placement_window) == (5000, 5000)
        assert cfg.push_placement is True
        assert (cfg.replication_r, cfg.dsr_r, cfg.cool_down_windows) == (3, 3, 3)

        topo = cfg.topology
        assert topo.regions == ("north", "south")
        assert (topo.degree, topo.inter_region_links) == (6, 3)
        assert (topo.intra_latency, topo.inter_latency) == (5, 50)
        assert (topo.vendor_latency, topo.m_target) == (40, 5)

        desktop, server = cfg.population
        assert desktop.name == "desktop" and desktop.count == 40
        assert desktop.capacity == ResourceVector(2, 200, 10)
        assert (desktop.credit_limit, desktop.initial_balance) == (50, 2000)
        assert (desktop.mean_online, desktop.mean_offline) == (40000, 8000)
        assert desktop.regions == ("north", "south")
        assert server.name == "server" and server.count == 10
        assert server.capacity == ResourceVector(8, 2000, 40)
        assert (server.credit_limit, server.initial_balance) == (200, 5000)
        assert (server.mean_online, server.mean_offline) == (0, 0)
        assert server.cost_factor == 0.6

        market = cfg.market
        assert market.alpha == 0.5 and not market.minting
        assert (market.p_min, market.p_max) == (1, 1000)
        assert market.initial == {"compute": 10, "storage": 2, "bandwidth": 4}

        search, render = cfg.services
        assert search.declared == ResourceVector(4, 0, 2)
        assert (search.code_size, search.min_replicas) == (20, 3)
        assert (search.subsidy, search.developer_balance) == (3, 40000)
        assert search.share == 3.0
        assert search.actual_min == ResourceVector(2, 0, 1)
        assert search.actual_max == ResourceVector(5, 0, 2)
        assert (search.update_at, search.update_fitness) == (30000, 2.0)
        assert search.chain_next is None
        assert render.declared == ResourceVector(8, 0, 4)
        assert (render.code_size, render.share) == (30, 1.0)
        assert render.actual_min == ResourceVector(4, 0, 2)
        assert render.actual_max == ResourceVector(10, 0, 4)
        assert render.update_at is None

        wl = cfg.workload
        assert (wl.kind, wl.rate, wl.read_fraction) == ("wiki", 0.01, 0.9)
        assert (wl.pages, wl.write_size) == (40, 5)
        assert wl.service == "search"

        assert cfg.failures == () and cfg.churn_multiplier == 1.0
        assert (cfg.evolution.trust_out_degree, cfg.evolution.theta) == (3, 0.4)

    def test_unstated_keys_take_documented_defaults(self):
        cfg = parse_scenario_text("[population]\nclasses = n\nn.count = 3\n"
                                  "[services]\ncatalog = s\n")
        assert (cfg.seed, cfg.horizon, cfg.mode) == (42, 100_000, "community")
        assert (cfg.gossip_period, cfg.heartbeat_interval) == (1000, 500)
        assert cfg.topology.regions == ("r0", "r1")
        assert cfg.topology.m_target == 5
        klass = cfg.population[0]
        assert klass.capacity == ResourceVector(2, 200, 10)
        assert klass.initial_balance == 100_000
        assert klass.regions == ("r0", "r1")
        svc = cfg.services[0]
        assert svc.declared == ResourceVector(4, 0, 2)
        assert svc.actual_min == svc.declared
        assert svc.actual_max == svc.actual_min
        assert (svc.code_size, svc.min_replicas, svc.fitness) == (20, 3, 1.0)
        assert (cfg.workload.rate, cfg.workload.read_fraction) == (0.01, 0.95)
        assert cfg.evolution.theta == 0.5

    @pytest.mark.parametrize("text,fragment", [
        (small_scenario(warp_drive={"x": 1}), "warp_drive"),
        (small_scenario(simulation={"quantum": 1}), "quantum"),
        (small_scenario(simulation={"mode": "hybrid"}), "mode"),
        (small_scenario(simulation={"horizon": 0}), "horizon"),
        (small_scenario(simulation={"horizon": "soon"}), "horizon"),
        (small_scenario(simulation={"push_placement": "perhaps"}), "push_placement"),
        (ini({"services": {"catalog": "s"}}), "classes"),
        (ini({"population": {"classes": "n"}}), "n.count"),
        (ini({"population": {"classes": "n", "n.count": 2}}), "catalog"),
        (small_scenario(population={"box.regions": "mars"}), "regions"),
        (small_scenario(services={"svc.actual_compute_max": 1}), "actual"),
        (small_scenario(services={"svc.update_at": 10}), "update_fitness"),
        (small_scenario(services={"svc.chain_next": "ghost"}), "chain_next"),
        (small_scenario(workload={"read_fraction": 1.5}), "read_fraction"),
        (small_scenario(workload={"floor": "nan"}), "[workload] floor"),
        (small_scenario(workload={"floor": 1.5}), "[workload] floor"),
        (small_scenario(workload={"rate": 0}), "[workload] rate"),
        (small_scenario(workload={"rate": -0.02}), "[workload] rate"),
        (small_scenario(workload={"rate": "nan"}), "[workload] rate"),
        (small_scenario(workload={"session_rate": "inf"}), "[workload] session_rate"),
        (small_scenario(workload={"session_rate": 0}), "[workload] session_rate"),
        (small_scenario(population={"box.mean_offline": 800}), "box.mean_online"),
        (small_scenario(failures={"churn_multiplier": "nan"}), "churn_multiplier"),
        (small_scenario(failures={"churn_multiplier": "inf"}), "churn_multiplier"),
        (small_scenario(failures={"churn_multiplier": -1}), "churn_multiplier"),
        # a huge multiplier is refused at parse time and never run
        (small_scenario(population={"box.mean_online": 1000,
                                    "box.mean_offline": 1000},
                        failures={"churn_multiplier": 10 ** 12}),
         "[failures] churn_multiplier: expected churn events"),
        (small_scenario(services={"svc.update_at": -1, "svc.update_fitness": 2}),
         "[services] svc.update_at: must be >= 0"),
        (small_scenario(market={"initial_compute": 2000}), "initial_compute"),
        (small_scenario(market={"p_min": 5}), "initial_storage"),
        (small_scenario(market={"alpha": "nan"}), "[market] alpha"),
        (small_scenario(market={"alpha": "-inf"}), "[market] alpha"),
        (small_scenario(market={"alpha": -50}), "[market] alpha"),
        (small_scenario() + "[market]\nalpha = 0.4\nalpha = 0.5\n",
         "[market] alpha: repeated on line"),
        (small_scenario() + "[simulation]\nseed = 3\n",
         "[simulation]: repeated on line"),
        ("seed = 3\n", "line 1: no [section] header"),
        ("[evolution]\ntheta = 1\nstray\n",
         "line 3: not a [section] header or a key = value"),
        (small_scenario(services={"svc.share": "nan"}), "[services] svc.share"),
        (small_scenario(services={"svc.share": "inf"}), "[services] svc.share"),
        (small_scenario(services={"svc.share": -1}), "[services] svc.share"),
        (small_scenario(services={"svc.share": 0}), "svc.share: must have a"),
        (small_scenario(population={"box.cost_factor": "nan"}),
         "[population] box.cost_factor"),
        (small_scenario(population={"box.cost_factor": "inf"}),
         "[population] box.cost_factor"),
        (small_scenario(population={"box.cost_factor": -0.5}),
         "[population] box.cost_factor"),
        (small_scenario(services={"svc.fitness": "nan"}), "[services] svc.fitness"),
        (small_scenario(services={"svc.fitness": "-inf"}), "[services] svc.fitness"),
        (small_scenario(services={"svc.update_at": 10, "svc.update_fitness": "nan"}),
         "[services] svc.update_fitness"),
        (small_scenario(services={"svc.update_at": 10, "svc.update_fitness": "inf"}),
         "[services] svc.update_fitness"),
        # count keys above their bounds, checked at parse and never run
        (small_scenario(population={"box.count": MAX_NODES + 1}),
         "[population] box.count: 50001 nodes"),
        (small_scenario(population={"classes": "box, pc", "pc.count": MAX_NODES}),
         "[population] box.count, pc.count"),
        (small_scenario(services={"svc.min_replicas": 10 ** 4}),
         "[services] svc.min_replicas: must be <= 100"),
        (small_scenario(topology={"inter_region_links": 10 ** 5}),
         "[topology] inter_region_links: must be <= 100"),
        *((small_scenario(topology={key: MAX_LATENCY + 1}),
           f"[topology] {key}: must be <= {MAX_LATENCY}")
          for key in ("intra_latency", "inter_latency", "vendor_latency")),
        (small_scenario(workload={"rate": 1000}), "[workload] rate: rate x horizon"),
        (small_scenario(simulation={"horizon": 10 ** 400}), "[simulation] horizon"),
        (small_scenario(simulation={"horizon": 10 ** 15}), "[workload] rate"),
        (small_scenario(workload={"kind": "video", "service": "svc",
                                  "session_rate": 200}),
         "[workload] session_rate"),
        (small_scenario(simulation={"horizon": 10 ** 6, "heartbeat_interval": 9}),
         "[simulation] heartbeat_interval: horizon / heartbeat_interval"),
        (small_scenario(simulation={"horizon": 10 ** 6, "price_window": 1}),
         "[simulation] price_window"),
        (small_scenario(topology={"degree": 2}), "[topology] degree"),
        (small_scenario(workload={"kind": "batch"}), "kind"),
        (small_scenario(topology={"regions": "r0, r0"}),
         "[topology] regions: 'r0' is repeated"),
        (small_scenario(population={"classes": "box, box"}),
         "[population] classes: 'box' is repeated"),
        (small_scenario(services={"catalog": "svc, svc"}),
         "[services] catalog: 'svc' is repeated"),
        (small_scenario(workload={"kind": "video", "service": "ghost"}), "service"),
        (small_scenario(evolution={"theta": 0}), "theta"),
        (small_scenario(failures={"entries": "e", "e.at": 1, "e.target": "region:r0",
                                  "e.action": "explode"}), "action"),
        (small_scenario(failures={"entries": "e", "e.action": "kill",
                                  "e.target": "region:r0"}), "e.at"),
    ])
    def test_malformed_scenarios_are_rejected(self, text, fragment):
        with pytest.raises(ConfigError) as err:
            parse_scenario_text(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("scenario,section,key", integer_keys())
    def test_integers_above_the_bound_are_rejected(self, scenario, section,
                                                   key):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(SCENARIO_DIR / f"{scenario}.ini")
        parser[section][key] = str(MAX_INTEGER + 1)
        text = io.StringIO()
        parser.write(text)
        with pytest.raises(ConfigError) as err:
            parse_scenario_text(text.getvalue())
        assert err.value.field_name == f"[{section}] {key}"

    # Each of these keys overflowed a float conversion when far above the bound.
    @pytest.mark.parametrize("patch", [
        {"services": {"svc.actual_compute_max": MAX_INTEGER}},
        {"population": {"box.mean_online": MAX_INTEGER,
                        "box.mean_offline": 1000}},
        {"population": {"box.mean_online": 1000,
                        "box.mean_offline": MAX_INTEGER}},
        {"workload": {"kind": "video", "service": "svc", "session_rate": 0.01,
                      "mean_duration": MAX_INTEGER}},
        {"workload": {"kind": "video", "service": "svc", "session_rate": 0.01,
                      "stream_rate": MAX_INTEGER}},
        {"market": {"p_max": MAX_INTEGER, "initial_compute": MAX_INTEGER}},
    ])
    def test_integers_at_the_bound_run_clean(self, patch):
        runner = run_scenario(parse_scenario_text(small_scenario(
            simulation={"horizon": 3000}, **patch)))
        assert run_audits(runner.logs) == []

    @pytest.mark.parametrize("mode", ["community", "vendor"])
    def test_latencies_at_their_bound_give_finite_routes(self, mode):
        # a simple path of n nodes has n - 1 links, so its latency stays
        # far below the bound routing reads as unreached
        cfg = parse_scenario_text(small_scenario(
            simulation={"mode": mode},
            topology={"regions": "r0, r1", "intra_latency": MAX_LATENCY,
                      "inter_latency": MAX_LATENCY,
                      "vendor_latency": MAX_LATENCY}))
        overlay = Runner(cfg).overlay
        n = len(overlay.online_ids)
        for a in overlay.online_in_region("r0"):
            for b in overlay.online_in_region("r1"):
                assert MAX_LATENCY <= overlay.route(a, b) < n * MAX_LATENCY

    def test_overrides_replace_without_mutating(self):
        cfg = parse_scenario_text(small_scenario())
        bumped = with_overrides(cfg, seed=7, horizon=123, mode="vendor")
        assert (bumped.seed, bumped.horizon, bumped.mode) == (7, 123, "vendor")
        assert (cfg.seed, cfg.horizon, cfg.mode) == (5, 6000, "community")
        assert with_overrides(cfg) is cfg
        with pytest.raises(ConfigError, match=r"^\[simulation\] mode:"):
            with_overrides(cfg, mode="managed")
        with pytest.raises(ConfigError, match=r"\[workload\] rate"):
            with_overrides(cfg, horizon=MAX_ARRIVALS * 100)
        # the parser's bounds hold for an override too
        for field, value in (("seed", -3), ("seed", MAX_INTEGER + 1),
                             ("horizon", 0), ("horizon", -5),
                             ("horizon", MAX_INTEGER + 1)):
            with pytest.raises(ConfigError, match=rf"^\[simulation\] {field}:"):
                with_overrides(cfg, **{field: value})

    def test_empty_failures_section_means_no_failures(self):
        bare = parse_scenario_text(small_scenario())
        spelled = parse_scenario_text(small_scenario(
            failures={"churn_multiplier": 1.0}))
        assert bare == spelled


# ---------------------------------------------------------------- workloads


class TestWorkloadStreams:
    def test_same_stream_twice_is_identical(self):
        cfg = parse_scenario_text(small_scenario())
        a = generate(cfg, RngStream(9, "workload"), 12)
        b = generate(cfg, RngStream(9, "workload"), 12)
        assert a == b and a

    def test_items_stay_inside_their_bounds(self):
        cfg = parse_scenario_text(small_scenario())
        items = generate(cfg, RngStream(9, "workload"), 12)
        for item in items:
            assert 0 <= item.at < cfg.horizon
            assert 0 <= item.requester_index < 12
            if item.kind == "read":
                assert item.service_id == "svc"
                assert 2 <= item.actual.compute <= 6
                assert item.actual.storage == 0
                assert 1 <= item.actual.bandwidth <= 2
            else:
                assert item.kind == "write"
                assert 0 <= item.page < 10
        kinds = {item.kind for item in items}
        assert kinds == {"read", "write"}

    @pytest.mark.parametrize("fraction,kind", [(1.0, "read"), (0.0, "write")])
    def test_read_fraction_edges_are_pure(self, fraction, kind):
        cfg = parse_scenario_text(small_scenario(
            workload={"read_fraction": fraction}))
        items = generate(cfg, RngStream(3, "workload"), 12)
        assert items and all(item.kind == kind for item in items)

    @staticmethod
    def randint_generate(config, rng, population):
        """The generator as it was written with randint and randrange, and
        with the service shares summed at every pick: the reference for
        the exact draws."""
        def actual(svc):
            return ResourceVector(
                rng.randint(svc.actual_min.compute, svc.actual_max.compute),
                rng.randint(svc.actual_min.storage, svc.actual_max.storage),
                rng.randint(svc.actual_min.bandwidth, svc.actual_max.bandwidth))

        def pick():
            point = rng.random() * sum(s.share for s in config.services)
            acc = 0.0
            for svc in config.services:
                acc += svc.share
                if point < acc:
                    return svc
            return config.services[-1]

        wl, items, t = config.workload, [], 0.0
        while True:
            if wl.kind == "wiki":
                t += rng.expovariate(wl.rate)
            else:
                t += rng.expovariate(wl.session_rate)
            at = int(t)
            if at >= config.horizon:
                return items
            if wl.kind == "video":
                svc = next(s for s in config.services
                           if s.service_id == wl.service)
                duration = max(1, int(rng.expovariate(1.0 / wl.mean_duration)))
                items.append(WorkloadItem(
                    at, "session", svc.service_id, rng.randrange(population),
                    actual=actual(svc), duration=duration))
                continue
            requester = rng.randrange(population)
            if rng.random() < wl.read_fraction:
                svc = pick()
                items.append(WorkloadItem(at, "read", svc.service_id,
                                          requester, actual(svc)))
            else:
                items.append(WorkloadItem(
                    at, "write", page=rng.randrange(wl.pages),
                    requester_index=requester))

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("scenario", ["wiki_small", "video_small",
                                          "mixed_churn"])
    def test_shipped_streams_equal_the_randint_generator(self, scenario, k):
        """Every arrival of each shipped scenario at scale k, at its seed
        and two others, equals the reference's, and both leave the stream
        in the same state."""
        shipped_seed = parse_scenario(SCENARIO_DIR / f"{scenario}.ini").seed
        for seed in (shipped_seed, 1, 977):
            cfg = scaled(scenario, k, "community", seed)
            population = sum(c.count for c in cfg.population)
            mine, twin = RngStream(seed, "workload"), RngStream(seed, "workload")
            items = generate(cfg, mine, population)
            assert items == self.randint_generate(cfg, twin, population)
            assert items and mine.getstate() == twin.getstate()

    def test_video_stream_emits_sessions(self):
        cfg = parse_scenario_text(small_scenario(
            workload={"kind": "video", "service": "svc", "session_rate": 0.002,
                      "mean_duration": 400, "stream_rate": 2, "read_fraction": 0.8}))
        items = generate(cfg, RngStream(4, "workload"), 12)
        assert items
        for item in items:
            assert item.kind == "session"
            assert item.service_id == "svc"
            assert item.duration >= 1
            assert 0 <= item.at < cfg.horizon


# ---------------------------------------------------------------- failures


class TestFailureGrammar:
    @staticmethod
    def parse(target):
        return parse_scenario_text(small_scenario(failures={
            "entries": "e", "e.at": 10, "e.action": "kill", "e.target": target}))

    @pytest.mark.parametrize("target", [
        "region:r0", "dvsp:r0:2", "nodes:random:0.5", "nodes:random:1",
        "class:box:0", "class:box:11",
    ])
    def test_valid_targets_pass(self, target):
        Runner(self.parse(target))

    def test_vendor_target_needs_vendor_mode(self):
        cfg = self.parse("vendor")
        with pytest.raises(ConfigError, match=r"\[failures\] e\.target"):
            Runner(cfg)
        Runner(with_overrides(cfg, mode="vendor"))

    def test_a_vendor_target_is_reported_before_an_unstorable_code(self):
        services = {"svc.code_size": 10 ** 6}
        with pytest.raises(ConfigError, match=r"\[services\] svc\.code_size"):
            Runner(parse_scenario_text(small_scenario(services=services)))
        cfg = parse_scenario_text(small_scenario(services=services, failures={
            "entries": "e", "e.at": 10, "e.action": "kill", "e.target": "vendor"}))
        with pytest.raises(ConfigError, match=r"\[failures\] e\.target"):
            Runner(cfg)

    @pytest.mark.parametrize("target", [
        "region:zz", "region", "dvsp:zz:1", "dvsp:r0:x", "dvsp:r0",
        "nodes:random:0", "nodes:random:1.5", "nodes:random:abc",
        "nodes:chosen:0.5", "class:ghost:0", "class:box:x", "class:box:12",
        "asteroid", "vendor:core", "dvsp:r0:\u00b2", "class:box:\u00b2",
    ])
    def test_bad_targets_are_rejected(self, target):
        with pytest.raises(ConfigError, match=r"\[failures\] e\.target"):
            self.parse(target)

    def test_targets_parse_into_typed_fields(self):
        fields = [(e.kind, e.scope, e.k, e.fraction) for e in (
            self.parse(t).failures[0] for t in (
                "region:r0", "dvsp:r0:2", "nodes:random:0.5", "class:box:3",
                "vendor"))]
        assert fields == [("region", "r0", 0, 0.0), ("dvsp", "r0", 2, 0.0),
                          ("nodes", "", 0, 0.5), ("class", "box", 3, 0.0),
                          ("vendor", "", 0, 0.0)]


# ---------------------------------------------------------------- metrics


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0

    def test_singleton(self):
        assert percentile([5], 0.5) == 5
        assert percentile([5], 0.99) == 5

    def test_nearest_rank_on_a_hundred(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 95
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100

    def test_small_list_rounds_up(self):
        assert percentile([1, 2, 3, 4], 0.50) == 2
        assert percentile([1, 2, 3, 4], 0.95) == 4
        assert percentile([1, 2, 3, 4], 0.25) == 1

    def test_column_lookup(self):
        assert column_index("requests", "req_id") == 1
        with pytest.raises(KeyError):
            column_index("requests", "nonsense")


class TestReportGolden:
    def make_logs(self):
        return {
            "meta": [("horizon", "100"), ("mode", "community"), ("seed", "1"),
                     ("p_min", "1"), ("p_max", "1000"), ("code_size.svc", "7")],
            "nodes": [row("nodes", node="n1", region="r", node_class="box",
                          compute=10, storage=100, bandwidth=20,
                          cost_factor=1.0, online_at_start=1)],
            "requests": [
                row("requests", at=1, req_id=1, kind="request",
                    outcome="completed", latency=5,
                    consumed_compute=3, consumed_bandwidth=1),
                row("requests", at=2, req_id=2, kind="request",
                    outcome="completed", latency=11, consumed_compute=2),
                row("requests", at=3, req_id=3, kind="request",
                    outcome="terminated", latency=7, consumed_compute=1),
                row("requests", at=4, req_id=4, kind="request",
                    outcome="rejected-funds"),
                row("requests", at=5, req_id=5, kind="session",
                    outcome="completed", latency=99, consumed_bandwidth=40),
            ],
            "placements": [
                row("placements", at=10, service="svc", action="deployed", node="n1"),
                row("placements", at=60, service="svc", action="host-lost", node="n1"),
                row("placements", at=70, service="svc", action="shortfall"),
            ],
            "replication": [
                row("replication", at=10, key="page/1", action="put", node="n1"),
                row("replication", at=14, key="page/1", action="converged"),
                row("replication", at=90, key="page/2", action="put", node="n1"),
            ],
            "transfers": [
                row("transfers", at=1, src="a", dst="b", amount=3, reason="x"),
                row("transfers", at=2, src="a", dst="b", amount=1, reason="y"),
                row("transfers", at=3, src="b", dst="a", amount=2, reason="z"),
            ],
        }

    def test_report_matches_hand_computation(self):
        report = compute_report(self.make_logs())
        assert report == {
            "availability": 3 / 5,
            "cascade_max": 1,
            "convergence_lag_max": 10,   # page/2 never settles: 100 - 90
            "currency_velocity": 3 * 1_000_000 / 100,
            "horizon": 100,
            "latency_p50": 5,
            "latency_p95": 11,
            "latency_p99": 11,
            "mode": "community",
            "placement_shortfalls": 1,
            "requests_completed": 3,
            "requests_failed": 1,
            "requests_issued": 5,
            "requests_terminated": 1,
            "seed": 1,
            "transfers_total": 3,
            "utilisation_bandwidth": 41 / 2000,
            "utilisation_compute": 6 / 1000,
            "utilisation_storage": 350 / 10000,
            "writes_total": 2,
        }

    def test_session_latencies_stay_out_of_percentiles(self):
        logs = self.make_logs()
        report = compute_report(logs)
        assert report["latency_p99"] == 11  # the 99-tick session is excluded

    def test_open_span_runs_to_horizon(self):
        logs = self.make_logs()
        logs["placements"] = [row("placements", at=40, service="svc",
                                  action="deployed", node="n1")]
        report = compute_report(logs)
        assert report["utilisation_storage"] == (100 - 40) * 7 / (100 * 100)
        assert report["cascade_max"] == 0

    def test_empty_run_reports_zeros(self):
        report = compute_report({"meta": [("horizon", "50"), ("mode", "vendor"),
                                          ("seed", "3")]})
        assert report["availability"] == 1.0
        assert report["requests_issued"] == 0
        assert report["latency_p95"] == 0
        assert report["utilisation_compute"] == 0.0
        assert report["utilisation_storage"] == 0.0
        assert report["cascade_max"] == 0
        assert report["convergence_lag_max"] == 0
        assert report["currency_velocity"] == 0.0


# ---------------------------------------------------------------- audits


class TestAudits:
    def test_conservation_clean(self):
        logs = {
            "balances": [("a", 10, 7, 0), ("b", 5, 8, 0)],
            "transfers": [(1, "a", "b", 3, "gift")],
        }
        assert audit_conservation(logs) == []

    def test_conservation_with_mint_and_burn(self):
        logs = {
            "balances": [("a", 0, 4, 0)],
            "transfers": [(1, "mint", "a", 10, "reward"),
                          (2, "a", "burn", 6, "fee")],
        }
        assert audit_conservation(logs) == []

    def test_conservation_flags_tampered_closing(self):
        logs = {
            "balances": [("a", 10, 7, 0), ("b", 5, 9, 0)],
            "transfers": [(1, "a", "b", 3, "gift")],
        }
        violations = audit_conservation(logs)
        assert violations and any("b" in v for v in violations)
        assert any("drift" in v for v in violations)

    def test_credit_floor_replay(self):
        transfers = [(4, "a", "b", 5, "gift")]
        tight = {"balances": [("a", 2, -3, 0), ("b", 0, 5, 0)],
                 "transfers": transfers}
        assert any("credit-floor" in v for v in audit_credit_floor(tight))
        roomy = {"balances": [("a", 2, -3, 5), ("b", 0, 5, 0)],
                 "transfers": transfers}
        assert audit_credit_floor(roomy) == []

    def test_price_bounds(self):
        meta = [("p_min", "1"), ("p_max", "1000")]
        ok = {"meta": meta, "prices": [(10, 1.0, 2.0, 4.0)]}
        assert audit_price_bounds(ok) == []
        low = {"meta": meta, "prices": [(10, 0.5, 2.0, 4.0)]}
        assert any("compute" in v for v in audit_price_bounds(low))
        high = {"meta": meta, "prices": [(10, 1.0, 2.0, 1500.0)]}
        assert any("bandwidth" in v for v in audit_price_bounds(high))

    def paid_request(self, charged=6):
        return row("requests", at=9, req_id=9, kind="request", host="h1",
                   outcome="completed", charged=charged)

    def test_payment_identity_clean(self):
        logs = {
            "requests": [self.paid_request()],
            "transfers": [(9, "u", "h1", 4, "service-payment:9"),
                          (9, "dev", "h1", 2, "subsidy:9")],
        }
        assert audit_payment_identity(logs) == []

    def test_payment_identity_minting_variant(self):
        logs = {
            "requests": [self.paid_request()],
            "transfers": [(9, "u", "burn", 6, "service-payment:9"),
                          (9, "mint", "h1", 6, "hosting-reward:9")],
        }
        assert audit_payment_identity(logs) == []

    def test_unsettled_request_with_zero_charge_is_fine(self):
        logs = {"requests": [self.paid_request(charged=0)], "transfers": []}
        assert audit_payment_identity(logs) == []

    def test_payment_identity_flags_partial_debit(self):
        logs = {
            "requests": [self.paid_request()],
            "transfers": [(9, "u", "h1", 4, "service-payment:9")],
        }
        violations = audit_payment_identity(logs)
        assert any("debited 4" in v for v in violations)

    def test_payment_identity_flags_wrong_host(self):
        logs = {
            "requests": [self.paid_request()],
            "transfers": [(9, "u", "h2", 6, "service-payment:9")],
        }
        assert any("served by" in v for v in audit_payment_identity(logs))

    def test_payment_identity_flags_stray_settlement(self):
        logs = {
            "requests": [],
            "transfers": [(9, "u", "h1", 6, "service-payment:77")],
        }
        assert any("77" in v for v in audit_payment_identity(logs))

    def metered(self, req_id, actual, outcome, kind="request"):
        return row("requests", req_id=req_id, kind=kind, outcome=outcome,
                   declared_compute=4, declared_bandwidth=2,
                   actual_compute=actual, actual_bandwidth=1)

    def test_termination_matches_budget_exactly(self):
        community = [("mode", "community")]
        clean = {"meta": community, "requests": [
            self.metered(1, 6, "terminated"), self.metered(2, 3, "completed"),
            self.metered(3, 9, "completed", kind="session"),
            self.metered(4, 9, "host-offline"),
        ]}
        assert audit_termination(clean) == []
        lax = {"meta": community,
               "requests": [self.metered(1, 6, "completed")]}
        assert any("over" in v for v in audit_termination(lax))
        eager = {"meta": community,
                 "requests": [self.metered(1, 3, "terminated")]}
        assert any("within" in v for v in audit_termination(eager))

    def test_vendor_never_audits_termination(self):
        logs = {"meta": [("mode", "vendor")],
                "requests": [self.metered(1, 6, "completed")]}
        assert audit_termination(logs) == []


# ---------------------------------------------------------------- end to end


@pytest.fixture(scope="module")
def small_run():
    return run_scenario(parse_scenario_text(small_scenario()))


class TestEndToEnd:
    def test_same_seed_reproduces_every_log_row(self, small_run):
        again = run_scenario(parse_scenario_text(small_scenario()))
        assert again.logs == small_run.logs
        assert again.report == small_run.report

    def test_other_seeds_take_other_paths(self, small_run):
        cfg = with_overrides(parse_scenario_text(small_scenario()), seed=6)
        other = run_scenario(cfg)
        assert other.logs["requests"] != small_run.logs["requests"]

    def test_audits_pass_on_a_clean_run(self, small_run):
        assert run_audits(small_run.logs) == []

    def test_report_counts_tie_out_with_the_rows(self, small_run):
        rows = small_run.logs["requests"]
        outcome = column_index("requests", "outcome")
        report = small_run.report
        assert report["requests_issued"] == len(rows) > 0
        assert report["requests_completed"] == sum(
            1 for r in rows if r[outcome] == "completed")
        assert report["writes_total"] == sum(
            1 for r in small_run.logs["replication"] if r[2] == "put")

    def test_meta_records_service_code_sizes(self, small_run):
        meta = dict(small_run.logs["meta"])
        assert meta["code_size.svc"] == "10"
        assert meta["mode"] == "community"

    def test_demand_is_identical_across_modes(self, small_run):
        vendor = run_scenario(with_overrides(
            parse_scenario_text(small_scenario()), mode="vendor"))
        def demand(runner):
            cols = [column_index("requests", c) for c in
                    ("at", "service", "requester", "actual_compute",
                     "actual_storage", "actual_bandwidth")]
            kind = column_index("requests", "kind")
            return sorted(tuple(r[c] for c in cols)
                          for r in runner.logs["requests"]
                          if r[kind] == "request")
        assert demand(vendor) == demand(small_run)

    @pytest.mark.parametrize("scenario", ["wiki_small", "video_small",
                                          "mixed_churn"])
    def test_each_node_trusts_a_sample_of_the_others(self, scenario):
        """Each node, in id order, trusts what sampling the sorted pool
        without it draws from the evolution stream. A vendor run registers
        no root, so it keeps no trust graph."""
        cfg = parse_scenario(SCENARIO_DIR / f"{scenario}.ini")
        runner = Runner(cfg)
        rng, pool = RngStream(cfg.seed, "evolution"), sorted(runner.node_list)
        k = min(cfg.evolution.trust_out_degree, len(pool) - 1)
        assert runner.evolution.trust == {
            node: tuple(rng.sample(pool[:i] + pool[i + 1:], k))
            for i, node in enumerate(pool)}
        vendor = Runner(with_overrides(cfg, mode="vendor"))
        assert vendor.evolution.trust == {}

    def test_only_a_community_build_queues_price_and_placement_ticks(self):
        cfg = parse_scenario_text(small_scenario())
        periodic = {"_on_sweep", "_on_gossip", "_on_price", "_on_placement"}

        def queued(runner):
            return {entry[2].__name__ for entry in runner.sim._heap} & periodic

        assert queued(Runner(cfg)) == periodic
        assert queued(Runner(with_overrides(cfg, mode="vendor"))) == {
            "_on_sweep", "_on_gossip"}

    @pytest.mark.parametrize("scenario", ["wiki_small", "video_small",
                                          "mixed_churn"])
    def test_a_community_build_starts_every_node_online_offered_and_gated(
            self, scenario):
        runner = Runner(parse_scenario(SCENARIO_DIR / f"{scenario}.ini"))
        overlay, nodes = runner.overlay, runner.node_list
        assert overlay.online_ids == set(nodes)
        assert all(node in runner.ledger.accounts for node in nodes)
        assert all(runner.repo.records[node].last_heartbeat == 0
                   for node in nodes)
        assert sorted(overlay.dvsps) == sorted(overlay.regions)

    def test_a_price_window_past_any_float_caps_the_price(self):
        # At alpha 400 the first window's bandwidth factor, (demand /
        # supply) ** 400, is past any float; the price caps at p_max.
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(SCENARIO_DIR / "wiki_small.ini")
        parser["simulation"]["horizon"] = "6000"
        parser["market"].update(alpha="400", initial_bandwidth="1")
        parser["services"].update({
            "search.declared_bandwidth": "1000000",
            "search.actual_bandwidth_min": "1000000",
            "search.actual_bandwidth_max": "1000000",
            "search.subsidy": "2000000",
            "search.developer_balance": "1000000000"})
        text = io.StringIO()
        parser.write(text)
        runner = run_scenario(parse_scenario_text(text.getvalue()))
        assert runner.logs["prices"] == [(5000, 1.0, 1.0, 1000.0)]
        assert run_audits(runner.logs) == []

    def test_vendor_serves_from_one_center_without_currency(self):
        runner = run_scenario(with_overrides(
            parse_scenario_text(small_scenario()), mode="vendor"))
        outcome = column_index("requests", "outcome")
        kind = column_index("requests", "kind")
        assert runner.logs["requests"]
        assert all(r[outcome] == "completed"
                   for r in runner.logs["requests"] if r[kind] == "request")
        assert runner.logs["transfers"] == []
        assert runner.logs["prices"] == []
        centers = {r[3] for r in runner.logs["placements"]}
        assert len(centers) == 1
        assert runner.report["mode"] == "vendor"
        assert run_audits(runner.logs) == []

    def test_vendor_serves_chained_calls_at_no_charge(self):
        runner = run_scenario(with_overrides(
            parse_scenario(SCENARIO_DIR / "mixed_churn.ini"), seed=1,
            mode="vendor"))
        kind = column_index("requests", "kind")
        charged = column_index("requests", "charged")
        chained = [r for r in runner.logs["requests"] if r[kind] == "chained"]
        assert chained and all(r[charged] == 0 for r in chained)
        assert run_audits(runner.logs) == []

    def test_vendor_links_and_services_survive_a_leave_and_rejoin(self):
        text = small_scenario(
            simulation={"mode": "vendor"},
            services={"catalog": "svc, img", "img.declared_compute": 2,
                      "img.code_size": 5, "img.min_replicas": 1},
            failures={"entries": "down, up, out, back",
                      "down.at": 1000, "down.action": "kill",
                      "down.target": "vendor",
                      "up.at": 2000, "up.action": "restore",
                      "up.target": "vendor",
                      "out.at": 3000, "out.action": "kill",
                      "out.target": "class:box:0",
                      "back.at": 4000, "back.action": "restore",
                      "back.target": "class:box:0"})
        runner = run_scenario(parse_scenario_text(text))
        latency = runner.config.topology.vendor_latency
        # any path to the vendor ends on a direct link, so only a direct
        # link has exactly the vendor latency
        for node in runner.node_list:
            assert runner.overlay.route(node, runner.vendor_node) == latency
        vendor = runner.vendor_node.short
        assert [r for r in runner.logs["placements"] if r[0] > 0] == [
            (1000, "svc", "host-lost", vendor, "core"),
            (1000, "img", "host-lost", vendor, "core"),
            (2000, "svc", "deployed", vendor, "core"),
            (2000, "img", "deployed", vendor, "core")]
        assert run_audits(runner.logs) == []

    def test_the_vendor_links_every_online_node_once_at_its_own_latency(self):
        # vendor_latency above inter_latency: the build draws no link for
        # the vendor, so each of its links is made once, at 51, through
        # churn and the vendor's own leave and return. Its star is the run's
        # only topology: no build, join or repair links two community nodes.
        text = small_scenario(
            simulation={"mode": "vendor", "horizon": 8000},
            topology={"regions": "r0, r1", "vendor_latency": 51},
            population={"box.mean_online": 2000, "box.mean_offline": 1500},
            failures={"entries": "down, up",
                      "down.at": 2000, "down.action": "kill",
                      "down.target": "vendor",
                      "up.at": 4000, "up.action": "restore",
                      "up.target": "vendor"})
        runner = Runner(parse_scenario_text(text))
        overlay, vendor = runner.overlay, runner.vendor_node

        def vendor_links_are_all_and_only_its_own():
            assert overlay.adj[vendor] == {
                node: 51 for node in overlay.online_ids if node != vendor}
            assert all(vendor in (a, b)
                       for a, peers in overlay.adj.items() for b in peers)
            assert_kept_facts(overlay)

        vendor_links_are_all_and_only_its_own()
        runner.run()
        assert {(r[2], r[3]) for r in runner.logs["membership"]} == {
            (move, cause) for move in ("join", "leave")
            for cause in ("churn", "scripted")}
        vendor_links_are_all_and_only_its_own()
        assert run_audits(runner.logs) == []

    def test_a_community_region_named_core_is_a_vendor_config_error(self):
        # a node of region core would sit on the vendor's super-peer, so
        # community churn would move the vendor's repository gate, and a
        # region:core or dvsp:core:<k> target would hit community nodes too
        cfg = parse_scenario_text(small_scenario(
            topology={"regions": "r0, core"}))
        Runner(cfg)  # community mode has no vendor
        with pytest.raises(ConfigError, match=r"\[topology\] regions"):
            Runner(with_overrides(cfg, mode="vendor"))

    def test_scripted_region_outage_and_recovery(self):
        text = small_scenario(
            topology={"regions": "r0, r1", "inter_region_links": 2},
            population={"box.count": 16},
            failures={"entries": "quake, recover",
                      "quake.at": 1000, "quake.action": "kill",
                      "quake.target": "region:r1",
                      "recover.at": 3000, "recover.action": "restore",
                      "recover.target": "region:r1"},
        )
        runner = run_scenario(parse_scenario_text(text))
        leaves = [r for r in runner.logs["membership"]
                  if r[2] == "leave" and r[3] == "scripted"]
        joins = [r for r in runner.logs["membership"]
                 if r[2] == "join" and r[3] == "scripted"]
        assert len(leaves) == 8 and all(r[0] == 1000 for r in leaves)
        assert len(joins) == 8 and all(r[0] == 3000 for r in joins)
        assert {r[1] for r in leaves} == {r[1] for r in joins}
        assert run_audits(runner.logs) == []

    def test_a_region_outage_holds_under_churn_and_restored_nodes_churn_on(self):
        text = small_scenario(
            simulation={"horizon": 20000},
            topology={"regions": "r0, r1", "inter_region_links": 2},
            population={"box.count": 16, "box.mean_online": 2000,
                        "box.mean_offline": 1500},
            failures={"entries": "quake, recover",
                      "quake.at": 4000, "quake.action": "kill",
                      "quake.target": "region:r1",
                      "recover.at": 8000, "recover.action": "restore",
                      "recover.target": "region:r1"},
        )
        runner = run_scenario(parse_scenario_text(text))
        r1 = {r[0] for r in runner.logs["nodes"] if r[1] == "r1"}
        events = [r for r in runner.logs["membership"] if r[1] in r1]
        # no r1 node comes back before the restore names it ...
        assert not [r for r in events if 4000 <= r[0] < 8000 and r[2] == "join"]
        # ... the restore brings back all of them, and they churn again
        assert {r[1] for r in events if r[0] == 8000 and r[2] == "join"} == r1
        assert {r[1] for r in events if r[0] > 8000 and r[3] == "churn"} == r1
        assert run_audits(runner.logs) == []

    def test_single_replica_writes_log_their_convergence(self):
        config = replace(with_overrides(parse_scenario(
            SCENARIO_DIR / "wiki_small.ini"), seed=42), replication_r=1)
        runner = run_scenario(config)
        actions = [r[2] for r in runner.logs["replication"]]
        assert actions.count("put") == actions.count("converged") == 54
        assert runner.report["convergence_lag_max"] == 0
        assert run_audits(runner.logs) == []

    def test_write_heavy_run_converges_pages(self):
        text = small_scenario(workload={"read_fraction": 0.0, "rate": 0.05},
                              simulation={"horizon": 8000})
        runner = run_scenario(parse_scenario_text(text))
        report = runner.report
        assert report["writes_total"] > 100
        converged = [r for r in runner.logs["replication"] if r[2] == "converged"]
        assert converged
        assert report["convergence_lag_max"] < 8000
        assert run_audits(runner.logs) == []

    def test_video_sessions_meter_what_they_streamed(self):
        text = small_scenario(workload={"kind": "video", "service": "svc",
                                        "session_rate": 0.002,
                                        "mean_duration": 400, "stream_rate": 2,
                                        "floor": 0.8, "sustain_window": 500})
        runner = run_scenario(parse_scenario_text(text))
        kind = column_index("requests", "kind")
        outcome = column_index("requests", "outcome")
        consumed_b = column_index("requests", "consumed_bandwidth")
        actual_b = column_index("requests", "actual_bandwidth")
        sessions = [r for r in runner.logs["requests"] if r[kind] == "session"]
        assert sessions
        for r in sessions:
            assert r[outcome] == "completed"
            assert r[consumed_b] == r[actual_b]  # rate times duration, in full
        assert run_audits(runner.logs) == []


def fresh_python(code: str, *args: str, stdin: str = "") -> str:
    """Stdout of code run in a new interpreter that imports c3sim from src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          capture_output=True, text=True, check=True,
                          env=env).stdout


def log_digest(logs) -> str:
    return hashlib.sha256(repr(sorted(logs.items())).encode()).hexdigest()


def shipped_variant(scenario: str, mode: str, seed: int, horizon: int,
                    initial_balance: int, credit_limit: int,
                    churn_multiplier: float, load: int) -> str:
    """A shipped scenario's text with run, economy and churn values replaced
    and its arrival rates multiplied by load."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(SCENARIO_DIR / f"{scenario}.ini")
    sim = parser["simulation"]
    sim["mode"], sim["seed"], sim["horizon"] = mode, str(seed), str(horizon)
    population = parser["population"]
    for klass in population["classes"].split(","):
        population[f"{klass.strip()}.initial_balance"] = str(initial_balance)
        population[f"{klass.strip()}.credit_limit"] = str(credit_limit)
    parser["failures"]["churn_multiplier"] = repr(churn_multiplier)
    for key in ("rate", "session_rate"):
        if key in parser["workload"]:
            parser["workload"][key] = repr(float(parser["workload"][key]) * load)
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


class TestRequestPath:
    @given(scenario=st.sampled_from(["mixed_churn", "video_small", "wiki_small"]),
           mode=st.sampled_from(["community", "vendor", "cloud"]),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           horizon=st.integers(min_value=0, max_value=20_000),
           initial_balance=st.integers(min_value=-100, max_value=6000),
           credit_limit=st.integers(min_value=-10, max_value=300),
           churn_multiplier=st.floats(min_value=-1.0, max_value=30.0),
           load=st.sampled_from([1, 1, 1, 10]))
    # a requester that has lost every route to the vendor's one host
    @example(scenario="mixed_churn", mode="vendor", seed=3, horizon=80_000,
             initial_balance=3000, credit_limit=50, churn_multiplier=1.5,
             load=1)
    # the churn rate underflows to zero or the first gap to infinity
    @example(scenario="mixed_churn", mode="community", seed=0, horizon=1,
             initial_balance=0, credit_limit=0,
             churn_multiplier=2.225073858507203e-309, load=1)
    @example(scenario="mixed_churn", mode="community", seed=0, horizon=1,
             initial_balance=0, credit_limit=0, churn_multiplier=5e-324,
             load=1)
    # churn cuts a replica host off from the replica that applies a write
    @example(scenario="mixed_churn", mode="community", seed=0, horizon=1621,
             initial_balance=0, credit_limit=0, churn_multiplier=28.0, load=1)
    # no requester can pay, so every session fails to start
    @example(scenario="video_small", mode="community", seed=7, horizon=20_000,
             initial_balance=0, credit_limit=0, churn_multiplier=1.0, load=1)
    # one leave cancels four calls in flight on its host
    @example(scenario="mixed_churn", mode="community", seed=99, horizon=20_000,
             initial_balance=3000, credit_limit=50, churn_multiplier=1.5,
             load=30)
    @settings(max_examples=60, deadline=None)
    def test_any_variant_is_rejected_or_runs_clean(self, **values):
        try:
            config = parse_scenario_text(shipped_variant(**values))
        except ConfigError:
            return
        runner = run_scenario(config)
        assert run_audits(runner.logs) == []
        # The same run again, after padding moves later objects to other
        # addresses: logs that follow an address order differ between runs.
        padding = [object() for _ in range(values["seed"] % 20_000)]
        assert log_digest(run_scenario(config).logs) == log_digest(runner.logs)
        del padding
        width = len(COLUMNS["requests"])
        assert all(len(r) == width for r in runner.logs["requests"])
        with tempfile.TemporaryDirectory() as out:
            write_outputs(runner.logs, runner.report, Path(out))
            assert recompute(out) == runner.report

    @pytest.mark.parametrize("mode", ["community", "vendor"])
    def test_every_instance_runs_on_an_online_host(self, mode, monkeypatch):
        """After every event, under churn and the scripted super-peer and
        region kills, each live instance's host is online."""
        ran = set()

        def checked(handler):
            def call(runner, *args):
                handler(runner, *args)
                # reads only: take_demand, say, would reset demand
                for insts in runner.services.instances.values():
                    for inst in insts:
                        assert runner.overlay.is_online(inst.host), (
                            runner.sim.now, handler.__name__, inst)
                ran.add(handler.__name__)
            return call

        # every event is a call to one of the runner's _on_* handlers
        for name, handler in list(vars(Runner).items()):
            if name.startswith("_on_"):
                monkeypatch.setattr(Runner, name, checked(handler))
        runner = Runner(with_overrides(
            parse_scenario(SCENARIO_DIR / "mixed_churn.ini"), mode=mode))
        runner.run()
        assert {"_on_leave", "_on_join", "_on_failure"} <= ran
        actions = {row[2] for row in runner.logs["placements"]}
        if mode == "community":
            assert {"host-lost", "retired", "deployed"} <= actions

    def test_rows_at_a_leave_keep_request_order_in_any_process(self):
        # Each process allocates a different amount of padding first, so its
        # objects land at other addresses: an order that follows addresses
        # shows up as differing row orders between the processes.
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(SCENARIO_DIR / "mixed_churn.ini")
        parser["simulation"]["horizon"] = "20000"
        parser["workload"]["rate"] = repr(float(parser["workload"]["rate"]) * 30)
        text = io.StringIO()
        parser.write(text)
        child = ("import json, sys\n"
                 "pad = [object() for _ in range(int(sys.argv[1]))]\n"
                 "from c3sim.harness.config import parse_scenario_text\n"
                 "from c3sim.harness.runner import run_scenario\n"
                 "runner = run_scenario(parse_scenario_text(sys.stdin.read()))\n"
                 "json.dump(runner.logs['requests'], sys.stdout)\n")
        tables = [json.loads(fresh_python(child, str(padding),
                                          stdin=text.getvalue()))
                  for padding in (0, 1_000, 20_000)]
        req_id = column_index("requests", "req_id")
        host = column_index("requests", "host")
        outcome = column_index("requests", "outcome")
        # consecutive host-offline rows naming one host come from one leave
        leaves, last = [], None
        for r in tables[0]:
            if r[outcome] != "host-offline":
                last = None
                continue
            if last != r[host]:
                leaves.append([])
            leaves[-1].append(r[req_id])
            last = r[host]
        assert [981, 985, 987, 988] in leaves
        assert all(ids == sorted(ids) for ids in leaves)
        assert tables[1] == tables[0] and tables[2] == tables[0]


# ---------------------------------------------------------------- outputs


class TestRunOutputs:
    def test_csv_round_trip_is_exact(self, small_run, tmp_path):
        write_outputs(small_run.logs, small_run.report, tmp_path)
        back = read_logs(tmp_path)
        for name in COLUMNS:
            assert back[name] == small_run.logs[name], name

    def test_recompute_rebuilds_the_very_report(self, small_run, tmp_path):
        write_outputs(small_run.logs, small_run.report, tmp_path)
        assert recompute(tmp_path) == small_run.report
        assert report_json(recompute(tmp_path)) == (
            tmp_path / "report.json").read_text()

    def test_report_json_bytes_are_canonical(self, small_run):
        first = report_json(small_run.report)
        assert report_json(json.loads(first)) == first
        assert first.endswith("\n")

    def test_report_csv_shape(self, small_run):
        lines = report_csv(small_run.report).splitlines()
        assert lines[0] == "metric,value"
        keys = [line.split(",", 1)[0] for line in lines[1:]]
        assert keys == sorted(small_run.report)

    @staticmethod
    def edit_table(out, name, edit):
        """Rewrite out/<name>.csv as edit(rows) returns it."""
        path = out / f"{name}.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))

    @pytest.mark.parametrize("name,edit,message", [
        ("requests", lambda rows: rows[:2] + [rows[2][:-3]] + rows[3:],
         rf"requests\.csv:3: {len(COLUMNS['requests']) - 3} cells, "
         rf"not {len(COLUMNS['requests'])}$"),
        ("prices", lambda rows: [["a", "b"]] + rows[1:],
         r"prices\.csv:1: header is not at,compute,storage,bandwidth$"),
        ("prices", lambda rows: rows[:2] + [rows[2][:1] + ["x"] + rows[2][2:]]
         + rows[3:], r"prices\.csv:3: could not convert string to float"),
    ], ids=["row-cut-short", "wrong-header", "bad-cell"])
    def test_a_malformed_table_is_refused_with_its_line(
            self, small_run, tmp_path, name, edit, message):
        write_outputs(small_run.logs, small_run.report, tmp_path)
        self.edit_table(tmp_path, name, edit)
        with pytest.raises(ValueError, match=message):
            read_logs(tmp_path)

    def test_a_missing_table_is_refused(self, small_run, tmp_path):
        write_outputs(small_run.logs, small_run.report, tmp_path)
        (tmp_path / "prices.csv").unlink()
        with pytest.raises(FileNotFoundError, match=r"prices\.csv"):
            read_logs(tmp_path)

    def test_recompute_exits_2_on_a_malformed_table(self, small_run, tmp_path,
                                                    capsys):
        write_outputs(small_run.logs, small_run.report, tmp_path)
        self.edit_table(tmp_path, "requests",
                        lambda rows: rows[:-1] + [rows[-1][:-3]])
        assert recompute_main([str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {tmp_path / 'requests.csv'}:")
        assert captured.out == ""


# ---------------------------------------------------------------- cli


class TestCli:
    @pytest.fixture()
    def scenario_file(self, tmp_path):
        path = tmp_path / "small.ini"
        path.write_text(small_scenario())
        return path

    def test_run_check_write_recompute(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["--scenario", str(scenario_file), "--out", str(out),
                         "--check"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 5 and report["horizon"] == 6000
        for name in COLUMNS:
            assert (out / f"{name}.csv").exists()
        assert recompute(out) == report

    def test_overrides_reach_the_report(self, scenario_file, tmp_path):
        out = tmp_path / "out2"
        assert cli.main(["--scenario", str(scenario_file), "--seed", "9",
                         "--until", "3000", "--mode", "vendor",
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["seed"], report["horizon"], report["mode"]) == \
            (9, 3000, "vendor")

    @pytest.mark.parametrize("flag,value,field", [
        ("--until", "0", "horizon"), ("--until", "-5", "horizon"),
        ("--seed", "-3", "seed")])
    def test_an_override_out_of_bounds_exits_2(self, scenario_file, capsys,
                                               flag, value, field):
        assert cli.main(["--scenario", str(scenario_file), flag, value]) == 2
        assert f"[simulation] {field}: must be" in capsys.readouterr().err

    def test_report_lands_on_stdout_without_out(self, scenario_file, capsys):
        assert cli.main(["--scenario", str(scenario_file)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    def test_csv_report_format(self, scenario_file, tmp_path):
        out = tmp_path / "out3"
        assert cli.main(["--scenario", str(scenario_file), "--format", "csv",
                         "--out", str(out)]) == 0
        assert (out / "report.csv").read_text().startswith("metric,value")
        assert not (out / "report.json").exists()

    def test_csv_report_lands_on_stdout_without_out(self, scenario_file, capsys):
        assert cli.main(["--scenario", str(scenario_file), "--until", "3000",
                         "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("metric,value\n")
        assert "seed,5\n" in out and "horizon,3000\n" in out

    @pytest.mark.parametrize("scenario", ["mixed_churn", "video_small",
                                          "wiki_small"])
    def test_shipped_scenarios_pass_check_with_out(self, scenario, tmp_path):
        assert cli.main(["--scenario", str(SCENARIO_DIR / f"{scenario}.ini"),
                         "--out", str(tmp_path), "--check"]) == 0

    @staticmethod
    def planted(monkeypatch, fault):
        """cli.write_outputs writes what fault(logs, report) returns."""
        def write(logs, report, out_dir, report_format="json"):
            write_outputs(*fault(dict(logs), dict(report)), out_dir,
                          report_format)
        monkeypatch.setattr(cli, "write_outputs", write)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_dropped_log_row_fails_check(self, scenario_file, tmp_path,
                                           monkeypatch, capsys, fmt):
        def drop_row(logs, report):
            logs["transfers"] = logs["transfers"][:-1]
            return logs, report
        self.planted(monkeypatch, drop_row)
        assert cli.main(["--scenario", str(scenario_file), "--out",
                         str(tmp_path), "--format", fmt, "--check"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("violation: recompute: ")
        assert err.split()[-1] in recompute(tmp_path)

    def test_a_malformed_log_table_fails_check(self, scenario_file, tmp_path,
                                               monkeypatch, capsys):
        def cut_row(logs, report):
            logs["transfers"] = logs["transfers"][:-1] + [
                logs["transfers"][-1][:-1]]
            return logs, report
        self.planted(monkeypatch, cut_row)
        assert cli.main(["--scenario", str(scenario_file), "--out",
                         str(tmp_path), "--check"]) == 3
        assert capsys.readouterr().err.startswith(
            f"violation: recompute: {tmp_path / 'transfers.csv'}:")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_report_value_off_in_its_last_digit_fails_check(
            self, scenario_file, tmp_path, monkeypatch, capsys, fmt):
        def nudge(logs, report):
            n = report["requests_issued"]
            report["requests_issued"] = n - n % 10 + (n + 1) % 10
            return logs, report
        self.planted(monkeypatch, nudge)
        assert cli.main(["--scenario", str(scenario_file), "--out",
                         str(tmp_path), "--format", fmt, "--check"]) == 3
        assert capsys.readouterr().err == (
            "violation: recompute: requests_issued\n")

    def test_check_without_out_runs_the_audits_only(
            self, scenario_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "difference", lambda *a: pytest.fail("read"))
        assert cli.main(["--scenario", str(scenario_file), "--check"]) == 0

    def test_out_naming_a_file_exits_2_before_the_run(
            self, scenario_file, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_scenario", ran.append)
        out = tmp_path / "notes.md"
        out.write_text("kept")
        assert cli.main(["--scenario", str(scenario_file), "--out", str(out)]) == 2
        assert f"error: --out: {out} is not a directory" in capsys.readouterr().err
        assert ran == [] and out.read_text() == "kept"

    def test_out_that_cannot_be_written_exits_2(self, scenario_file, tmp_path,
                                                capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"  # its parent is a file, so mkdir fails
        assert cli.main(["--scenario", str(scenario_file), "--out", str(out)]) == 2
        assert "error: --out: " in capsys.readouterr().err

    def test_missing_scenario_file_is_a_config_error(self, tmp_path):
        assert cli.main(["--scenario", str(tmp_path / "nope.ini")]) == 2

    def test_bad_scenario_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(small_scenario(simulation={"quantum": 1}))
        assert cli.main(["--scenario", str(path)]) == 2

    @pytest.mark.parametrize("text,message", [
        (small_scenario() + "[market]\nalpha = 0.4\nalpha = 0.5\n",
         "[market] alpha"),
        ("seed = 3\n", "line 1"),
        *((small_scenario(topology={key: MAX_LATENCY + 1}), f"[topology] {key}")
          for key in ("intra_latency", "inter_latency", "vendor_latency")),
    ])
    def test_unparsable_scenario_file_is_a_config_error(
            self, tmp_path, capsys, text, message):
        path = tmp_path / "unparsable.ini"
        path.write_text(text)
        assert cli.main(["--scenario", str(path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_non_utf8_scenario_file_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.ini"
        path.write_bytes(b"\xff\xfe" + small_scenario().encode())
        assert cli.main(["--scenario", str(path)]) == 2
        assert "error: scenario: not UTF-8" in capsys.readouterr().err

    def test_unknown_failure_target_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad_target.ini"
        path.write_text(small_scenario(
            failures={"entries": "e", "e.at": 10, "e.action": "kill",
                      "e.target": "dvsp:zz:1"}))
        assert cli.main(["--scenario", str(path)]) == 2

    def test_class_index_past_the_count_fails_before_the_run(
            self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "bad_index.ini"
        path.write_text(small_scenario(
            failures={"entries": "e1", "e1.at": 10, "e1.action": "kill",
                      "e1.target": "class:box:12"}))
        monkeypatch.setattr(Simulator, "run", lambda self: pytest.fail("ran"))
        assert cli.main(["--scenario", str(path)]) == 2
        assert "[failures] e1.target" in capsys.readouterr().err

    def test_degree_without_a_connected_graph_is_a_config_error(
            self, tmp_path, capsys):
        # The parser refuses degree 2 at any seed: a random 2-regular graph
        # on a region's 300 nodes is one cycle in only about 11% of draws,
        # so whether it built would depend on the seed (at this one, all 64
        # draws fell apart).
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(SCENARIO_DIR / "video_small.ini")
        parser["topology"]["degree"] = "2"
        parser["population"]["homelab.count"] = "600"
        path = tmp_path / "rings.ini"
        with path.open("w") as f:
            parser.write(f)
        assert cli.main(["--scenario", str(path), "--seed", "37"]) == 2
        assert "[topology] degree" in capsys.readouterr().err

    def test_code_no_node_can_store_is_a_config_error(self, tmp_path, capsys):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(SCENARIO_DIR / "wiki_small.ini")
        parser["services"]["search.code_size"] = "1000000"
        path = tmp_path / "huge_code.ini"
        with path.open("w") as f:
            parser.write(f)
        assert cli.main(["--scenario", str(path)]) == 2
        assert ("error: [services] search.code_size: no node can store 1000000"
                in capsys.readouterr().err)

    def test_a_run_leaves_networkx_unimported(self, scenario_file, tmp_path):
        child = ("import sys\n"
                 "from c3sim.harness import cli\n"
                 "code = cli.main(['--scenario', sys.argv[1], '--out', sys.argv[2]])\n"
                 "print(code, 'networkx' in sys.modules)\n")
        out = fresh_python(child, str(scenario_file), str(tmp_path / "out"))
        assert out.split() == ["0", "False"]

    def test_the_cli_and_runner_import_no_fractions_decimal_or_hashlib(self):
        # Each would add its import time and memory to every run: metering
        # is integer, and SHA-256 comes from the interpreter's _sha256.
        child = ("import sys\n"
                 "import c3sim.harness.cli, c3sim.harness.runner\n"
                 "print(*sorted({'fractions', 'decimal', '_decimal', 'hashlib',\n"
                 "               '_hashlib'} & set(sys.modules)))\n")
        assert fresh_python(child).split() == []

    def test_violations_flip_the_exit_code(self, scenario_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_audits", lambda logs: ["planted violation"])
        assert cli.main(["--scenario", str(scenario_file), "--check"]) == 3
        assert "planted violation" in capsys.readouterr().err
