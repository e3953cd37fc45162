"""The benchmark's output checks pass on a clean run and catch planted faults."""
from __future__ import annotations

import copy
import csv
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

from c3sim.harness import Runner, run_audits, run_scenario
from c3sim.harness.metrics import column_index
from c3sim.overlay import Overlay

from c3bench import checks, tracing
from c3bench.calibration import Calibration
from c3bench.child import simulate
from c3bench.run import is_correct, layer_unit, problems_of

ROOT = Path(__file__).resolve().parents[2]


def _logs(runner):
    return copy.deepcopy(runner.logs)


def _charged_completed(logs):
    cols = [column_index("requests", c) for c in ("outcome", "charged")]
    return next(i for i, row in enumerate(logs["requests"])
                if row[cols[0]] == "completed" and row[cols[1]] > 0)


class TestCleanRun:
    def test_every_check_passes(self, community_run):
        runner, out = community_run
        logs = runner.logs
        ov = runner.overlay
        assert run_audits(logs) == []
        assert checks.check_replay(logs) == []
        assert checks.check_recompute(out, runner.report) == []
        assert checks.check_routes(ov.route, ov.adj, ov.is_online,
                                   checks.route_pairs(ov.records)) == []
        assert logs["transfers"]

    def test_vendor_run_passes(self, vendor_run):
        runner, out = vendor_run
        assert checks.check_vendor(runner.logs) == []
        assert checks.check_replay(runner.logs) == []
        assert checks.check_recompute(out, runner.report) == []

    def test_sample_has_unreachable_and_routed_pairs(self, community_run):
        runner, _ = community_run
        ov = runner.overlay
        pairs = checks.route_pairs(ov.records)
        assert pairs == checks.route_pairs(reversed(list(ov.records)))
        assert pairs != checks.route_pairs(ov.records, 1)
        routed = [p for p in pairs if ov.reachable(*p) and p[0] != p[1]]
        assert routed


class TestPlantedFaults:
    def test_dropped_transfer_fails_replay(self, community_run):
        logs = _logs(community_run[0])
        del logs["transfers"][len(logs["transfers"]) // 2]
        assert any(p.startswith("replay: ") for p in checks.check_replay(logs))

    def test_minted_transfer_fails_replay(self, community_run):
        logs = _logs(community_run[0])
        at, _src, dst, amount, _reason = logs["transfers"][0]
        logs["transfers"].append((at, "mint", dst, amount, "hosting-reward"))
        assert checks.check_replay(logs)

    def test_changed_route_distance_fails_routes(self, community_run):
        ov = community_run[0].overlay
        pairs = checks.route_pairs(ov.records)
        bad = next(p for p in pairs if ov.reachable(*p) and p[0] != p[1])

        def route(a, b):
            return ov.route(a, b) + ((a, b) == bad)

        found = checks.check_routes(route, ov.adj, ov.is_online, pairs)
        assert len(found) == pairs.count(bad)
        assert found[0].startswith(f"routes: {bad[0].short} -> {bad[1].short}")

    def test_edited_log_row_fails_recompute(self, community_run, tmp_path):
        runner, out = community_run
        shutil.copytree(out, tmp_path, dirs_exist_ok=True)
        path = tmp_path / "requests.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        outcome = column_index("requests", "outcome")
        row = next(r for r in rows[1:] if r[outcome] == "completed")
        row[outcome] = "host-offline"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert checks.check_recompute(tmp_path, runner.report)

    def test_edited_log_row_changes_digest(self, community_run):
        logs = _logs(community_run[0])
        before = checks.log_digest(logs)
        row = list(logs["requests"][0])
        row[column_index("requests", "latency")] += 1
        logs["requests"][0] = tuple(row)
        assert checks.log_digest(logs) != before
        assert checks.log_digest(_logs(community_run[0])) == before

    def test_vendor_transfer_or_charge_fails_vendor(self, vendor_run):
        logs = _logs(vendor_run[0])
        logs["transfers"].append((1, "a", "b", 1, "service-payment:1"))
        assert checks.check_vendor(logs)
        logs = _logs(vendor_run[0])
        charged = column_index("requests", "charged")
        row = list(logs["requests"][0])
        row[charged] = 1
        logs["requests"][0] = tuple(row)
        assert checks.check_vendor(logs) == [
            f"vendor: request {row[column_index('requests', 'req_id')]} charged 1"]


class TestHostOfflineChargeFault:
    """A request cancelled by its host's departure that keeps its charge
    (the ``Runner._do_leave`` fault) fails the run under ``audits``."""

    def _cancel(self, logs):
        """Turn a settled request into the row the fault leaves behind:
        outcome host-offline, charge kept, nothing settled."""
        i = _charged_completed(logs)
        row = list(logs["requests"][i])
        row[column_index("requests", "outcome")] = "host-offline"
        logs["requests"][i] = tuple(row)
        tag = str(row[column_index("requests", "req_id")])
        undo = Counter()
        for _at, src, dst, amount, reason in logs["transfers"]:
            if reason.partition(":")[2] == tag:
                undo[src] += amount
                undo[dst] -= amount
        logs["transfers"] = [t for t in logs["transfers"]
                             if t[4].partition(":")[2] != tag]
        logs["balances"] = [(acct, opening, closing + undo[acct], limit)
                            for acct, opening, closing, limit in logs["balances"]]

    def test_cancelled_charge_counts_as_failed(self, community_run):
        logs = _logs(community_run[0])
        self._cancel(logs)
        violations = run_audits(logs)
        assert len(violations) == 2
        assert checks.check_replay(logs) == []
        result = {"failures": {"audits": violations}, "digest": "d"}
        problems = problems_of([("run", 4, 0.0, result, None)])
        assert problems == [[f"audits: {v}" for v in violations]]
        assert is_correct(problems)


class TestTally:
    def _run(self, seed, digest="d", **failures):
        return ("run", seed, 0.0, {"failures": failures, "digest": digest}, None)

    def test_benchmark_checks_make_the_result_incorrect(self):
        problems = problems_of([self._run(1), self._run(1, replay=["x"])])
        assert problems == [[], ["replay: x"]]
        assert not is_correct(problems)

    def test_differing_digest_at_one_seed_fails_determinism(self):
        problems = problems_of([self._run(1), self._run(2, "e"), self._run(1, "e")])
        assert [bool(p) for p in problems] == [False, False, True]
        assert problems[2][0].startswith("determinism: ")
        assert not is_correct(problems)

    def test_crash_fails(self):
        problems = problems_of([("run", 1, 0.0, None, "crash: exit 1: boom")])
        assert problems == [["crash: exit 1: boom"]]
        assert not is_correct(problems)


class TestTracing:
    def test_self_times_account_for_the_run(self, community_run):
        """A traced run, sliced and calibrated as the benchmark runs it,
        logs what an untraced run logs, and its self times add up to the
        run's time without the calibration kernel's."""
        clean_digest = checks.log_digest(community_run[0].logs)
        tracer = tracing.Tracer()
        cal = Calibration()
        with tracing.install(tracer):
            runner = Runner(community_run[0].config)
            simulate(runner, runner.config.horizon, cal, tracer.span)
        m = tracing.layer_metrics(tracer, runner.summary.total_processed, 2.0)
        layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert abs(m["runner.self_s"] + layers + m["harness.metrics.report_s"]
                   - m["trace.run_s"]) < 1e-6
        root = next(s for s in tracer.spans if s[0] == "runner.run")
        assert 0 < m["trace.run_s"] <= 2.0 * ((root[2] - root[1]) / 1e9
                                              - cal.spent_s())
        assert m["overlay.route.calls"] > 0 and m["ledger.transfers"] > 0
        assert checks.log_digest(runner.logs) == clean_digest
        assert Overlay.route.__name__ == "route"   # wrappers were removed

    def test_benchmark_json_lists_the_reported_metrics(self, community_run):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            run_scenario(community_run[0].config)
        names = set(tracing.layer_metrics(tracer, 1, 1.0))
        names.add("trace.overhead_s")
        listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
        assert set(listed) == names
        assert all(layer_unit(n) == u for n, u in listed.items())


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "c3bench", tmp_path / "c3bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "c3bench/run.py", "--workload", "wiki-x4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
