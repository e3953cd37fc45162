"""Run metrics, derived from the emitted logs and from nothing else.

Every figure in the report is a pure function of the CSV logs a run writes,
so a report can be rebuilt offline from the log directory alone (see
recompute.py). Log rows are tuples; the column schemas below are shared by
the writer and the reader, which is what keeps the round trip exact.
"""
from __future__ import annotations

import math

# column name -> converter applied when reading back from CSV text
_I = int
_F = float
_S = str

COLUMNS: dict[str, tuple[tuple[str, object], ...]] = {
    "requests": (
        ("at", _I), ("req_id", _I), ("kind", _S), ("service", _S),
        ("requester", _S), ("host", _S), ("outcome", _S), ("latency", _I),
        ("gross", _I), ("charged", _I), ("subsidy_part", _I),
        ("declared_compute", _I), ("declared_storage", _I),
        ("declared_bandwidth", _I), ("actual_compute", _I),
        ("actual_storage", _I), ("actual_bandwidth", _I),
        ("consumed_compute", _I), ("consumed_bandwidth", _I),
    ),
    "transfers": (
        ("at", _I), ("src", _S), ("dst", _S), ("amount", _I), ("reason", _S),
    ),
    "placements": (
        ("at", _I), ("service", _S), ("action", _S), ("node", _S),
        ("region", _S),
    ),
    "adoptions": (
        ("at", _I), ("node", _S), ("service", _S), ("from_version", _S),
        ("to_version", _S), ("cause", _S),
    ),
    "replication": (
        ("at", _I), ("key", _S), ("action", _S), ("node", _S),
    ),
    "membership": (
        ("at", _I), ("node", _S), ("event", _S), ("cause", _S),
    ),
    "nodes": (
        ("node", _S), ("region", _S), ("node_class", _S), ("compute", _I),
        ("storage", _I), ("bandwidth", _I), ("cost_factor", _F),
        ("credit_limit", _I), ("initial_balance", _I), ("online_at_start", _I),
    ),
    "balances": (
        ("account", _S), ("opening", _I), ("closing", _I), ("credit_limit", _I),
    ),
    "prices": (
        ("at", _I), ("compute", _F), ("storage", _F), ("bandwidth", _F),
    ),
    "meta": (
        ("key", _S), ("value", _S),
    ),
}

Logs = dict[str, list[tuple]]


def column_index(log: str, column: str) -> int:
    for i, (name, _) in enumerate(COLUMNS[log]):
        if name == column:
            return i
    raise KeyError(f"{log}.{column}")


def percentile(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile; deterministic on integer ticks."""
    if not sorted_values:
        return 0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def meta_map(logs: Logs) -> dict[str, str]:
    return {row[0]: row[1] for row in logs.get("meta", ())}


def _online_ticks(logs: Logs, horizon: int) -> dict[str, int]:
    """Per node, how many ticks it spent online over the run."""
    start_online = {}
    for row in logs.get("nodes", ()):
        start_online[row[0]] = bool(row[9])
    events: dict[str, list[tuple[int, str]]] = {n: [] for n in start_online}
    for at, node, event, _cause in logs.get("membership", ()):
        events[node].append((at, event))
    ticks = {}
    for node, online in start_online.items():
        total, since = 0, 0
        for at, event in events[node]:
            if event == "leave" and online:
                total += at - since
                online = False
            elif event == "join" and not online:
                since = at
                online = True
        if online:
            total += horizon - since
        ticks[node] = total
    return ticks


def _instance_spans(logs: Logs, horizon: int):
    """(service, node, start, end) spans of live instances from placements."""
    open_spans: dict[tuple[str, str], list[int]] = {}
    spans = []
    for at, service, action, node, _region in logs.get("placements", ()):
        key = (service, node)
        if action == "deployed":
            open_spans.setdefault(key, []).append(at)
        elif action in ("retired", "host-lost"):
            starts = open_spans.get(key)
            if starts:
                spans.append((service, node, starts.pop(0), at))
    for (service, node), starts in open_spans.items():
        for start in starts:
            spans.append((service, node, start, horizon))
    return spans


def _cascade_max(spans, services: list[str], horizon: int) -> int:
    """Largest number of services with zero live instances at one time."""
    if not services:
        return 0
    deltas: dict[int, dict[str, int]] = {}
    for service, _node, start, end in spans:
        deltas.setdefault(start, {}).setdefault(service, 0)
        deltas[start][service] += 1
        if end < horizon:
            deltas.setdefault(end, {}).setdefault(service, 0)
            deltas[end][service] -= 1
    live = {s: 0 for s in services}
    worst = 0
    for at in sorted(deltas):
        for service, d in deltas[at].items():
            if service in live:
                live[service] += d
        worst = max(worst, sum(1 for s in services if live[s] <= 0))
    return worst


def _convergence_lags(logs: Logs, horizon: int) -> list[int]:
    last_put: dict[str, int] = {}
    lags = []
    for at, key, action, _node in logs.get("replication", ()):
        if action == "put":
            last_put[key] = at
        elif action == "converged" and key in last_put:
            lags.append(at - last_put.pop(key))
    for at in last_put.values():
        lags.append(horizon - at)  # never settled before the end of the run
    return lags


def compute_report(logs: Logs) -> dict:
    meta = meta_map(logs)
    horizon = int(meta["horizon"])
    requests = logs.get("requests", ())
    outcome = column_index("requests", "outcome")
    kind = column_index("requests", "kind")
    latency = column_index("requests", "latency")

    issued = len(requests)
    completed = sum(1 for r in requests if r[outcome] == "completed")
    terminated = sum(1 for r in requests if r[outcome] == "terminated")
    failed = issued - completed - terminated
    latencies = sorted(r[latency] for r in requests
                       if r[outcome] == "completed" and r[kind] != "session")

    consumed_c = column_index("requests", "consumed_compute")
    consumed_b = column_index("requests", "consumed_bandwidth")
    online = _online_ticks(logs, horizon)
    caps = {row[0]: (row[3], row[5]) for row in logs.get("nodes", ())}
    compute_ticks = sum(online[n] * caps[n][0] for n in online)
    bandwidth_ticks = sum(online[n] * caps[n][1] for n in online)
    used_compute = sum(r[consumed_c] for r in requests)
    used_bandwidth = sum(r[consumed_b] for r in requests)

    services = sorted({key.split(".", 1)[1] for key in meta
                       if key.startswith("code_size.")})
    spans = _instance_spans(logs, horizon)
    code_size = {s: int(meta[f"code_size.{s}"]) for s in services}
    storage_ticks = sum(online[row[0]] * row[4]
                        for row in logs.get("nodes", ()))
    occupied = sum((end - start) * code_size.get(service, 0)
                   for service, _node, start, end in spans)

    lags = _convergence_lags(logs, horizon)
    shortfall_action = column_index("placements", "action")

    report = {
        "availability": completed / issued if issued else 1.0,
        "cascade_max": _cascade_max(spans, services, horizon),
        "convergence_lag_max": max(lags) if lags else 0,
        "currency_velocity": len(logs.get("transfers", ())) * 1_000_000 / horizon,
        "horizon": horizon,
        "latency_p50": percentile(latencies, 0.50),
        "latency_p95": percentile(latencies, 0.95),
        "latency_p99": percentile(latencies, 0.99),
        "mode": meta["mode"],
        "placement_shortfalls": sum(
            1 for r in logs.get("placements", ()) if r[shortfall_action] == "shortfall"),
        "requests_completed": completed,
        "requests_failed": failed,
        "requests_issued": issued,
        "requests_terminated": terminated,
        "seed": int(meta["seed"]),
        "transfers_total": len(logs.get("transfers", ())),
        "utilisation_bandwidth": used_bandwidth / bandwidth_ticks if bandwidth_ticks else 0.0,
        "utilisation_compute": used_compute / compute_ticks if compute_ticks else 0.0,
        "utilisation_storage": occupied / storage_ticks if storage_ticks else 0.0,
        "writes_total": sum(1 for r in logs.get("replication", ())
                            if r[2] == "put"),
    }
    return report
