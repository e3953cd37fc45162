"""Output checks applied to every benchmark run.

Each check returns a list of problem strings; an empty list is a pass.
They are computed apart from the program (own replay, networkx routes,
CSV read-back) or are properties the method must have (no vendor
charges, identical logs for identical inputs).
"""
from __future__ import annotations

import hashlib
import random

import networkx as nx

from c3sim.harness.io import read_logs, report_json
from c3sim.harness.metrics import column_index, compute_report
from c3sim.overlay import Unreachable

ROUTE_PAIRS = 64


def log_digest(logs) -> str:
    """SHA-256 of the canonical log tables."""
    return hashlib.sha256(repr(sorted(logs.items())).encode()).hexdigest()


def check_replay(logs) -> list[str]:
    """Replay transfers over opening balances; minting is off, so no mint
    or burn rows may appear and the total must not drift."""
    opening = {acct: op for acct, op, _close, _limit in logs.get("balances", ())}
    closing = {acct: close for acct, _op, close, _limit in logs.get("balances", ())}
    balances = dict(opening)
    out = []
    for at, src, dst, amount, reason in logs.get("transfers", ()):
        if src not in balances or dst not in balances:
            out.append(f"replay: {reason} at {at} moves {src} -> {dst}, "
                       "not an opened account")
            continue
        balances[src] -= amount
        balances[dst] += amount
    for acct in sorted(closing):
        if balances[acct] != closing[acct]:
            out.append(f"replay: {acct} replays to {balances[acct]}, "
                       f"closing balance is {closing[acct]}")
    drift = sum(closing.values()) - sum(opening.values())
    if drift:
        out.append(f"replay: net drift {drift}")
    return out


def check_vendor(logs) -> list[str]:
    """The vendor baseline moves no currency and charges nothing."""
    out = [f"vendor: {len(logs.get('transfers', ()))} transfers"] \
        if logs.get("transfers") else []
    charged = column_index("requests", "charged")
    req_id = column_index("requests", "req_id")
    out += [f"vendor: request {row[req_id]} charged {row[charged]}"
            for row in logs.get("requests", ()) if row[charged] != 0]
    return out


def check_recompute(out_dir, report: dict) -> list[str]:
    """CSV logs written and read back recompute to the identical report."""
    again = compute_report(read_logs(out_dir))
    out = []
    if again != report:
        keys = sorted(k for k in set(again) | set(report)
                      if again.get(k) != report.get(k))
        out.append(f"recompute: report differs in {', '.join(keys)}")
    if (out_dir / "report.json").read_text() != report_json(again):
        out.append("recompute: report.json differs from the recomputed report")
    return out


def route_pairs(nodes, seed: int = 0, k: int = ROUTE_PAIRS) -> list[tuple]:
    """A sample of ordered node pairs, fixed by ``seed``."""
    ordered = sorted(nodes)
    rng = random.Random(seed)
    return [(rng.choice(ordered), rng.choice(ordered)) for _ in range(k)]


def check_routes(route, adj, online, pairs) -> list[str]:
    """``route(a, b)`` equals networkx's shortest-path latency over the
    online part of ``adj``, and raises Unreachable exactly when there is
    no path."""
    graph = nx.Graph()
    graph.add_nodes_from(n for n in adj if online(n))
    graph.add_weighted_edges_from(
        (a, b, latency) for a, peers in adj.items() if online(a)
        for b, latency in peers.items() if online(b))
    out = []
    for a, b in pairs:
        try:
            want = nx.shortest_path_length(graph, a, b, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            want = None
        try:
            got = route(a, b)
        except Unreachable:
            got = None
        if got != want:
            out.append(f"routes: {a.short} -> {b.short} routed {got}, "
                       f"shortest path {want}")
    return out
