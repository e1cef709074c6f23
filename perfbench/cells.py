"""The four benchmark workloads: one paper cell each, sized for a 2-core host.

Each workload is a complete ``ExperimentConfig`` plus the ``run_cell``
arguments that drive it.  The benchmark builds the config from the
workload seed only; nothing else about the inputs varies between runs.
``tiny=True`` shrinks every size so the self-tests finish in seconds;
tiny cells exercise the same layers but are not digest-pinned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.cassandra.consistency import ConsistencyLevel
from repro.core.config import (ExperimentConfig, TailDefenseConfig,
                               default_geo_config, default_stress_config,
                               default_surge_config, scaled_stress_storage)
from repro.core.sweep import SurgeScale, surge_arrivals, surge_tier_for_mode


@dataclass(frozen=True)
class Cell:
    """One workload: how to build its deployment and drive its run."""

    name: str
    #: Why the benchmark carries this workload (one line, also in
    #: BENCHMARK.json).
    why: str
    #: ``config(seed, tiny) -> ExperimentConfig``.
    config: Callable[[int, bool], ExperimentConfig]
    #: Unmeasured read-mostly warm-up operations after the load.
    warm_ops: Callable[[bool], int]
    #: Keyword arguments for ``ExperimentSession.run_cell``.
    run_kwargs: dict = field(default_factory=dict)

    def attempted(self, config: ExperimentConfig) -> int:
        """Operations the measured run must account for, ok or failed.

        An open-loop run measures every arrival.  A closed-loop run drops
        the first ``warmup_fraction`` of its operations from the
        measurements, so those are not attempted as far as the outputs
        go.
        """
        if self.run_kwargs.get("open_loop"):
            return config.arrivals.max_arrivals
        ops = config.operation_count
        return ops - int(ops * config.warmup_fraction)


def _stress(db: str, seed: int, records: int, ops: int) -> ExperimentConfig:
    """The paper's Table-1 ``read_update`` stress cell at RF 3 on 8 nodes,
    32 closed-loop client threads, block cache sized to hold the data."""
    nodes = 8
    config = default_stress_config(db, "read_update", replication=3,
                                   seed=seed)
    return replace(config, record_count=records, operation_count=ops,
                   n_threads=32, n_nodes=nodes, settle_s=1.0,
                   storage=scaled_stress_storage(records, 1000, nodes - 1))


def _cassandra_quorum(seed: int, tiny: bool) -> ExperimentConfig:
    config = _stress("cassandra", seed, *((600, 1_500) if tiny
                                          else (3_000, 6_000)))
    return replace(config, cassandra=replace(
        config.cassandra, read_cl=ConsistencyLevel.QUORUM,
        write_cl=ConsistencyLevel.QUORUM))


def _hbase_update(seed: int, tiny: bool) -> ExperimentConfig:
    return _stress("hbase", seed, *((600, 2_000) if tiny else (3_000, 12_000)))


#: Flash crowd at the surge campaign's full client tier (breaker, retry
#: budget, per-tenant rate limit, leveling, cache-aside).
_SURGE = SurgeScale(record_count=4_000, max_arrivals=10_000, spike_at_s=2.0)
_TINY_SURGE = SurgeScale(record_count=800, n_nodes=6, max_arrivals=3_000,
                         n_users=100_000, spike_at_s=1.0,
                         spike_duration_s=1.5)


def _surge_checked(seed: int, tiny: bool) -> ExperimentConfig:
    scale = replace(_TINY_SURGE if tiny else _SURGE, seed=seed)
    config = default_surge_config(
        "cassandra", arrivals=surge_arrivals("flash_crowd", scale),
        clienttier=surge_tier_for_mode("full", scale),
        record_count=scale.record_count, n_nodes=scale.n_nodes, seed=seed)
    return replace(config, tail=TailDefenseConfig(
        deadline_s=scale.deadline_s, handler_slots=scale.handler_slots,
        max_handler_queue=scale.max_handler_queue))


def _geo_checked(seed: int, tiny: bool) -> ExperimentConfig:
    records, ops = (300, 600) if tiny else (1_000, 2_500)
    return default_geo_config(record_count=records, operation_count=ops,
                              n_threads=16, target_throughput=1_200.0,
                              seed=seed)


CELLS: dict[str, Cell] = {cell.name: cell for cell in (
    Cell("cassandra_quorum",
         "Cassandra RF3 QUORUM read_update, closed loop, cache-resident: "
         "replica fan-out loads kernel, transport and coordinator",
         _cassandra_quorum,
         warm_ops=lambda tiny: 300 if tiny else 1_500),
    Cell("hbase_update",
         "HBase RF3 read_update, closed loop: single-owner reads, WAL to "
         "HDFS pipeline, flushes and compactions; no Cassandra code runs",
         _hbase_update,
         warm_ops=lambda tiny: 300 if tiny else 1_500),
    Cell("surge_checked",
         "Cassandra ONE, open-loop flash crowd through the client tier, "
         "disk-bound (cache ~10% of a tree), weak-CL history checked",
         _surge_checked,
         warm_ops=lambda tiny: 500 if tiny else _SURGE.max_arrivals // 6,
         run_kwargs={"open_loop": True,
                     "read_cl": ConsistencyLevel.ONE,
                     "write_cl": ConsistencyLevel.ONE,
                     "check_consistency": True}),
    Cell("geo_checked",
         "Cassandra in 3 DCs, LOCAL_QUORUM, throttled closed loop: the "
         "only GeoCluster path and strong-CL linearizability search",
         _geo_checked,
         warm_ops=lambda tiny: 200 if tiny else 500,
         run_kwargs={"read_cl": ConsistencyLevel.LOCAL_QUORUM,
                     "write_cl": ConsistencyLevel.LOCAL_QUORUM,
                     "target_throughput": 1_200.0,
                     "check_consistency": True}),
)}
