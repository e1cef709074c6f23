"""Per-layer measurements read from outside the simulator.

Two sources, neither of which changes anything under ``src/``:

- :func:`snapshot` reads public counters of a live session (kernel,
  transport, LSM trees, engines); :func:`layer_counts` turns the
  difference across one ``run_cell`` into the per-layer ratios.  These
  are deterministic: they repeat exactly for a given seed and enter the
  model digest.
- :func:`self_time_by_layer` buckets a cProfile of ``run_cell`` by
  ``repro.<module>``, plus ``builtins`` (C functions) and ``stdlib``.
"""

from __future__ import annotations

import hashlib
import json
import pstats
from pathlib import Path

from repro.consistency.oracle import unexpected_violations

#: Self-time buckets reported on every workload, so a layer that does no
#: work on a workload reads 0 there instead of going missing.
LAYERS = ("sim", "cluster", "storage", "cassandra", "hbase", "hdfs", "ycsb",
          "clienttier", "consistency", "energy", "core", "keyspace",
          "builtins", "stdlib", "other")

#: Unit of each deterministic per-layer metric from :func:`layer_counts`.
COUNT_UNITS = {
    "sim.events_per_op": "events/op",
    "cluster.rpcs_per_op": "rpcs/op",
    "cluster.abandoned_rpcs": "count",
    "cluster.cpu_busy_share": "ratio",
    "cluster.disk_busy_share": "ratio",
    "cluster.nic_busy_share": "ratio",
    "storage.cache_hit_rate": "ratio",
    "storage.block_reads_per_get": "blocks/get",
    "storage.flushes": "count",
    "storage.compactions": "count",
    "storage.disk_write_amp": "ratio",
    "cassandra.read_repairs_per_read": "ratio",
    "cassandra.background_repairs": "count",
    "cassandra.hints_stored": "count",
    "hbase.wal_appends_per_batch": "ratio",
    "hdfs.datanode_bytes_per_put": "bytes/put",
    "ycsb.sim_p50_ms": "ms",
    "ycsb.sim_p99_ms": "ms",
    "ycsb.sim_throughput": "1/s",
    "ycsb.failed_op_share": "ratio",
    "clienttier.cache_hit_rate": "ratio",
    "clienttier.retries_per_op": "ratio",
    "clienttier.shed_share": "ratio",
    "consistency.history_ops": "count",
    "consistency.states_explored": "count",
    "consistency.unexpected_violations": "count",
}

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def _trees(session) -> list:
    if session.cassandra is not None:
        return [n.tree for n in session.cassandra.nodes.values()]
    return [r.tree for r in session.hbase.regions if r.tree is not None]


def snapshot(session) -> dict:
    """Cumulative public counters of ``session`` at this instant."""
    env, cluster = session.env, session.cluster
    nodes = cluster.nodes
    trees = _trees(session)
    raw = {
        "events": env.processed_events,
        "now": env.now,
        "rpcs": cluster.rpc_count,
        "abandoned_rpcs": cluster.abandoned_rpcs,
        "cores": sum(n.spec.cores for n in nodes),
        "nodes": len(nodes),
        "cpu_busy_s": sum(n.cpu_time for n in nodes),
        "disk_busy_s": sum(n.disk.busy_time for n in nodes),
        "nic_busy_s": sum(n.nic.busy_s for n in nodes),
        "disk_bytes_written": sum(n.disk.bytes_written for n in nodes),
        "cache_hits": sum(t.cache.hits for t in trees),
        "cache_misses": sum(t.cache.misses for t in trees),
    }
    for stat in ("puts", "gets", "block_reads", "flushes", "compactions"):
        raw[f"tree_{stat}"] = sum(t.stats[stat] for t in trees)
    if session.cassandra is not None:
        for stat, count in session.cassandra.total_stats().items():
            raw[f"coord_{stat}"] = count
    if session.hbase is not None:
        servers = session.hbase.regionservers.values()
        raw["wal_appends"] = sum(s.wal.appends for s in servers)
        raw["wal_batches"] = sum(s.wal.batches for s in servers)
        raw["region_puts"] = sum(s.ops["put"] for s in servers)
        raw["datanode_bytes"] = sum(
            d.bytes_received for d in session.hbase.datanodes.values())
    return raw


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(before: dict, after: dict, *, attempted: int,
                 record_bytes: int, summary: dict) -> dict:
    """Deterministic per-layer metrics for one run (the ``*`` metrics).

    ``before``/``after`` are :func:`snapshot` results taken around
    ``run_cell``; ``summary`` is its ``summarize_run`` dict.
    """
    d = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    span = d["now"]
    tier = summary.get("clienttier") or {}
    retry = tier.get("retry", {})
    sheds = (tier.get("leveling", {}).get("shed", 0)
             + tier.get("ratelimit", {}).get("rejected", 0)
             + tier.get("breaker", {}).get("fast_fails", 0))
    report = summary.get("consistency") or {}
    return {
        "sim.events_per_op": _ratio(d["events"], attempted),
        "cluster.rpcs_per_op": _ratio(d["rpcs"], attempted),
        "cluster.abandoned_rpcs": d["abandoned_rpcs"],
        "cluster.cpu_busy_share": _ratio(d["cpu_busy_s"],
                                         after["cores"] * span),
        "cluster.disk_busy_share": _ratio(d["disk_busy_s"],
                                          after["nodes"] * span),
        # Two channels (egress, ingress) per NIC.
        "cluster.nic_busy_share": _ratio(d["nic_busy_s"],
                                         2 * after["nodes"] * span),
        "storage.cache_hit_rate": _ratio(
            d["cache_hits"], d["cache_hits"] + d["cache_misses"]),
        "storage.block_reads_per_get": _ratio(d["tree_block_reads"],
                                              d["tree_gets"]),
        "storage.flushes": d["tree_flushes"],
        "storage.compactions": d["tree_compactions"],
        "storage.disk_write_amp": _ratio(d["disk_bytes_written"],
                                         d["tree_puts"] * record_bytes),
        "cassandra.read_repairs_per_read": _ratio(
            d.get("coord_read_repairs", 0), d.get("coord_reads", 0)),
        "cassandra.background_repairs": d.get("coord_background_repairs", 0),
        "cassandra.hints_stored": d.get("coord_hints_stored", 0),
        "hbase.wal_appends_per_batch": _ratio(d.get("wal_appends", 0),
                                              d.get("wal_batches", 0)),
        "hdfs.datanode_bytes_per_put": _ratio(d.get("datanode_bytes", 0),
                                              d.get("region_puts", 0)),
        "ycsb.sim_p50_ms": summary["p50_ms"],
        "ycsb.sim_p99_ms": summary["p99_ms"],
        "ycsb.sim_throughput": summary["throughput"],
        "ycsb.failed_op_share": _ratio(summary["errors"], attempted),
        "clienttier.cache_hit_rate": tier.get("cache", {}).get("hit_rate",
                                                               0.0),
        "clienttier.retries_per_op": _ratio(retry.get("retried", 0),
                                            attempted),
        "clienttier.shed_share": _ratio(sheds, attempted),
        "consistency.history_ops": report.get("ops", 0),
        "consistency.states_explored": report.get("states_explored", 0),
        "consistency.unexpected_violations":
            unexpected_violations(report) if report else 0,
    }


def model_digest(summary: dict, counts: dict) -> str:
    """sha256 of the canonical JSON of a run's model outputs."""
    blob = json.dumps({"summary": summary, "counts": counts},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _layer_of(filename: str) -> str:
    if filename == "~":
        return "builtins"
    path = Path(filename)
    try:
        parts = path.resolve().relative_to(_PACKAGE).parts
    except ValueError:
        return "other" if path.parent == Path(__file__).parent \
            else "stdlib"
    layer = Path(parts[0]).stem
    return layer if layer in LAYERS else "other"


def self_time_by_layer(profile) -> dict:
    """Seconds of profiler self time per layer of a ``cProfile.Profile``."""
    totals = dict.fromkeys(LAYERS, 0.0)
    layer_cache: dict[str, str] = {}
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        layer = layer_cache.get(filename)
        if layer is None:
            layer = layer_cache[filename] = _layer_of(filename)
        totals[layer] += row[2]
    return totals
