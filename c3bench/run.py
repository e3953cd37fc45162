"""c3sim benchmark: run one workload in rounds, check every run, report.

    python3 c3bench/run.py --workload wiki-x4 [--seed N] [--seconds 30] [--trace 0|1]

Each run is a fresh process doing what ``c3sim --out d --check`` does on
the workload's generated scenario (see child.py). Runs go one at a time, in
whole rounds, while the next round fits in ``--seconds`` (at least
MIN_ROUNDS). A round runs the program once at each of its seeds: the
shipped scenario's seed and FAULT_SEED. Every run's outputs are checked
(see checks.py); a run that fails a check, or crashes, counts as failed and
is named with its check.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
for wall_s and events_per_s the mean over the program seeds of each seed's
median, for setup_s and peak_rss_mb the median over all runs. Times are
scaled to the calibration kernel's reference speed (see calibration.py).
With ``--trace 1`` the first round's run at the shipped seed is traced (see
tracing.py) and the last line holds its per-layer metrics instead.
``--seed`` orders the program seeds within each round and draws the node
pairs of the route check.
"""
from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from c3bench.scenario import WORKLOADS, generate  # noqa: E402

OUT = ROOT / ".c3bench"
MIN_ROUNDS = 2
# On wiki-x4, program seed 4 hits the Runner._do_leave fault: a request
# cancelled by its host's departure keeps its charge, so the program's own
# audits fail on it in every round until that is fixed. The program seeds
# do not come from --seed, because that fault shows on some seeds only and
# the failed share of a run must not change with --seed.
FAULT_SEED = 4
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "events_per_s": "events/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    if name.endswith("per_change"):
        return "calls/change"
    return "count"


def host_wall(start: float, result: dict) -> float:
    """Host seconds from process start to audited result, kernel excluded."""
    return result["audited_at"] - start - result["cal_s"]


def wall(start: float, result: dict) -> float:
    """``host_wall`` at the calibration kernel's reference speed."""
    return host_wall(start, result) * result["scale"]


def over_seeds(done, measure) -> float:
    """Mean over the seeds of each seed's median ``measure(start, result)``."""
    by_seed: dict[int, list[float]] = {}
    for s, start, result in done:
        by_seed.setdefault(s, []).append(measure(start, result))
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def run_child(scenario: Path, seed: int, out: Path, pairs_seed: int,
              spans: Path | None = None):
    """(start time, result or None, failure text or None) of one run."""
    cmd = [sys.executable, str(ROOT / "c3bench" / "child.py"),
           "--scenario", str(scenario), "--seed", str(seed), "--out", str(out),
           "--pairs-seed", str(pairs_seed)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return started, None, f"crash: no result after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return started, None, f"crash: exit {proc.returncode}: {tail}"
    return started, json.loads(lines[-1]), None


def problems_of(runs) -> list[list[str]]:
    """Each run's failures, as "check: detail" lines; runs at one seed must
    give the log digest of the first run at that seed."""
    digests = {}
    out = []
    for _label, s, _start, result, crash in runs:
        problems = [crash] if crash else []
        if result:
            for check, lines in result["failures"].items():
                problems += [f"{check}: {line}" for line in lines]
            if digests.setdefault(s, result["digest"]) != result["digest"]:
                problems.append("determinism: log digest differs from the "
                                "first run at this seed")
        out.append(problems)
    return out


def is_correct(problems) -> bool:
    """True unless a run failed something other than the program's own
    audits: a crash, or one of the checks the benchmark computes itself.
    A run that fails only ``audits`` still counts as failed."""
    return all(line.startswith("audits: ") for p in problems for line in p)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    shipped = ROOT / "scenarios" / workload.scenario
    if not (ROOT / "src" / "c3sim" / "__init__.py").is_file() or not shipped.is_file():
        print(f"error: c3sim sources or {shipped.name} not found under {ROOT}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src" / "c3sim", quiet=1)
    compileall.compile_dir(ROOT / "c3bench", quiet=1)

    text, shipped_seed = generate(workload, ROOT / "scenarios")
    scenario = OUT / "scenarios" / f"{workload.name}.ini"
    scenario.parent.mkdir(parents=True, exist_ok=True)
    scenario.write_text(text)
    out = OUT / "runs" / workload.name
    spans = OUT / "traces" / f"{workload.name}-seed{shipped_seed}.spans.csv"
    order = [shipped_seed, FAULT_SEED]
    if args.seed % 2:
        order.reverse()

    runs = []   # (label, seed, start, result or None, failure or None)
    began = time.monotonic()
    longest = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() - began + longest <= args.seconds:
        round_began = time.monotonic()
        for s in order:
            traced = args.trace and rounds == 0 and s == shipped_seed
            runs.append(("traced" if traced else "run", s,
                         *run_child(scenario, s, out, args.seed,
                                    spans if traced else None)))
        longest = max(longest, time.monotonic() - round_began)
        rounds += 1

    problems = problems_of(runs)
    for i, ((label, s, start, result, _), found) in enumerate(zip(runs, problems)):
        if result:
            print(f"{label} {i} seed {s}: host wall "
                  f"{host_wall(start, result):.3f} s, scale {result['scale']:.3f}")
        for line in found[:5]:
            print(f"FAILED {label} {i} seed {s}: {line}")
    failed = sum(map(bool, problems))

    done = [(s, start, result) for label, s, start, result, _ in runs
            if label != "traced" and result]
    if not done:
        print("error: no run finished", file=sys.stderr)
        return 1
    if args.trace:
        _, _, traced_start, traced, _ = next(r for r in runs if r[0] == "traced")
        if traced is None:
            print("error: the traced run did not finish", file=sys.stderr)
            return 1
        values = dict(traced["layers"])
        values["trace.overhead_s"] = (
            wall(traced_start, traced)
            - statistics.median(wall(st, r) for s, st, r in done
                                if s == shipped_seed))
        (spans.parent / f"{workload.name}-seed{shipped_seed}.layers.json").write_text(
            json.dumps(values, indent=2, sort_keys=True) + "\n")
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(values.items())}
    else:
        values = {
            "wall_s": over_seeds(done, wall),
            "events_per_s": over_seeds(
                done, lambda st, r: r["events"] / (r["run_s"] * r["scale"])),
            "setup_s": statistics.median(
                (r["built_at"] - st - r["setup_cal_s"]) * r["setup_scale"]
                for _, st, r in done),
            "peak_rss_mb": statistics.median(r["rss_mb"] for _, _, r in done),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    print(f"{workload.name} seed {args.seed}: {rounds} rounds of program "
          f"seeds {order}, {len(runs)} runs, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": is_correct(problems), "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
