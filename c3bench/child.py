"""One benchmark run, in a process of its own.

    python3 c3bench/child.py --scenario S --seed N --out DIR --pairs-seed P [--trace SPANS]

Does what ``c3sim --scenario S --seed N --out DIR --check`` does (import,
parse, build, simulate, report, write the CSV logs, audit) and stamps the
steps on the system-wide monotonic clock, so the parent can time them from
the moment it started this process. Every run, traced or not, drives the
simulation in SLICES pieces and samples the calibration kernel between them
(see calibration.py); the kernel's time is left out of every reported time.
The output checks run after the timed steps; P draws the node pairs of the
route check. Prints one JSON object.
"""
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
SLICES = 200
EDGE_SAMPLES = 8


def simulate(runner, horizon: int, cal, span) -> float:
    """Host seconds of ``runner.run()``, driven in SLICES pieces of
    simulated time with a calibration sample after each."""
    run_s = 0.0
    with span("runner.run"):
        for k in range(1, SLICES + 1):
            start = time.perf_counter()
            runner.sim.run(until=horizon * k // SLICES)
            run_s += time.perf_counter() - start
            with span("calibration.sample"):
                cal.sample()
        start = time.perf_counter()
        runner.run()
        run_s += time.perf_counter() - start
    return run_s


def main(argv) -> int:
    args = dict(zip(argv[::2], argv[1::2]))
    scenario, seed, out = Path(args["--scenario"]), int(args["--seed"]), Path(args["--out"])
    pairs_seed = int(args["--pairs-seed"])
    spans_path = args.get("--trace")

    from c3bench.calibration import Calibration
    cal = Calibration()
    cal.sample(EDGE_SAMPLES)
    tracer = None
    if spans_path:
        from c3bench import tracing
        tracer = tracing.Tracer()
        patch = tracing.install(tracer)
        span = tracer.span
    else:
        import contextlib
        patch = contextlib.nullcontext()
        span = lambda name: contextlib.nullcontext()  # noqa: E731

    from c3sim.harness.audits import run_audits
    from c3sim.harness.config import parse_scenario, with_overrides
    from c3sim.harness.io import write_outputs
    from c3sim.harness.runner import Runner

    with patch:
        with span("harness.config.parse"):
            config = with_overrides(parse_scenario(scenario), seed=seed)
        runner = Runner(config)
        built_at, setup_cal_s = time.monotonic(), cal.spent_s()
        cal.sample(EDGE_SAMPLES)
        setup_scale = cal.scale()   # host speed around set-up only
        if tracer is not None:
            tracer.counters.clear()   # count the simulation only
        run_s = simulate(runner, config.horizon, cal, span)
        with span("harness.io.write"):
            write_outputs(runner.logs, runner.report, out)
        with span("harness.audits"):
            violations = run_audits(runner.logs)
        cal.sample(EDGE_SAMPLES)
        audited_at = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from c3bench import checks
    logs = runner.logs
    failures = {"audits": violations, "replay": checks.check_replay(logs)}
    if config.mode == "vendor":
        failures["vendor"] = checks.check_vendor(logs)
    else:
        ov = runner.overlay
        failures["routes"] = checks.check_routes(
            ov.route, ov.adj, ov.is_online, checks.route_pairs(ov.records, pairs_seed))
    with span("harness.io.recompute"):
        failures["recompute"] = checks.check_recompute(out, runner.report)

    result = {
        "events": runner.summary.total_processed,
        "built_at": built_at,
        "setup_cal_s": setup_cal_s,
        "setup_scale": setup_scale,
        "audited_at": audited_at,
        "cal_s": cal.spent_s(),
        "scale": cal.scale(),
        "run_s": run_s,
        "rss_mb": rss_mb,
        "digest": checks.log_digest(logs),
        "failures": {k: v for k, v in failures.items() if v},
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, result["events"],
                                                 result["scale"])
        tracing.write_spans(tracer, Path(spans_path))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
