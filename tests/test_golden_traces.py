"""Golden kernel traces: committed schedule digests for six tiny cells.

The replay pins in ``test_replay_pin.py`` compare a run against a rerun
of the same code, so a refactor that changes behaviour passes them.
These goldens compare against digests committed in
``tests/golden/kernel_traces.json`` instead: every processed kernel
event (time, priority, seq, type, name) of build, load, warm-up and run
must hash the same as when the golden was captured.  A refactor that
claims "identical behaviour" proves it here.

The cells are the benchmark's four ``tiny`` workloads at one model seed,
an HBase crash/failover cell and a Cassandra crash cell with the
consistency oracle on.  Digests depend on the interpreter's random
streams, so they are pinned under one Python minor version and skipped
elsewhere.

Updating a golden is a deliberate act: rerun this module as a script
(``PYTHONPATH=src python tests/test_golden_traces.py --write``) and log
the reason in CHANGES.md.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster.failure import FaultSpec
from repro.core.config import default_check_config
from repro.core.experiment import ExperimentSession
from repro.sim.trace import KernelTracer

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "kernel_traces.json"
#: Model seed of the benchmark cells.
BENCH_SLOT = 3


def _bench_cells():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from cells import CELLS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return CELLS


def _traced(config, warm_ops=0, **run_kwargs):
    """Build, load, warm and run one cell with the kernel traced from
    construction on; returns ``{"sha256", "events"}``."""
    session = ExperimentSession(config)
    tracer = KernelTracer(session.env)
    session.load()
    if warm_ops:
        session.warm(operations=warm_ops)
    session.run_cell(**run_kwargs)
    return {"sha256": tracer.digest(), "events": tracer.events}


def _bench(name):
    cell = _bench_cells()[name]
    return _traced(cell.config(BENCH_SLOT, True), cell.warm_ops(True),
                   **cell.run_kwargs)


def _crash_config(db, seed):
    config = default_check_config(db, seed=seed)
    return replace(
        config, record_count=200, operation_count=800,
        target_throughput=1_000.0, n_nodes=5,
        faults=(FaultSpec(kind="crash", node_id=0, at_s=0.3,
                          duration_s=0.5),))


def _hbase_failover():
    # The failover cell of test_replay_pin.py.
    from repro.core.config import scaled_stress_storage
    config = replace(_crash_config("hbase", 11),
                     storage=scaled_stress_storage(200, 1000, 4))
    return _traced(config, inject_faults=True)


def _cassandra_crash_checked():
    return _traced(_crash_config("cassandra", 5), inject_faults=True,
                   check_consistency=True)


CELLS = {
    "cassandra_quorum": lambda: _bench("cassandra_quorum"),
    "hbase_update": lambda: _bench("hbase_update"),
    "surge_checked": lambda: _bench("surge_checked"),
    "geo_checked": lambda: _bench("geo_checked"),
    "hbase_failover": _hbase_failover,
    "cassandra_crash_checked": _cassandra_crash_checked,
}


def _python() -> str:
    return ".".join(platform.python_version_tuple()[:2])


def _golden() -> dict:
    golden = json.loads(GOLDEN.read_text())
    if golden["python"] != _python():
        pytest.skip(f"golden traces are pinned for Python "
                    f"{golden['python']}, this is {_python()}")
    return golden["cells"]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_kernel_trace_matches_golden(name):
    assert CELLS[name]() == _golden()[name]


def test_goldens_cover_every_cell():
    assert sorted(json.loads(GOLDEN.read_text())["cells"]) == sorted(CELLS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_traces.py "
                 "--write")
    cells = {name: CELLS[name]() for name in sorted(CELLS)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"python": _python(), "cells": cells},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
