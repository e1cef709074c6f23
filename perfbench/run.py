#!/usr/bin/env python3
"""Host cost of four paper cells, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cassandra_quorum --seed 1 \\
        --seconds 30 --trace 0 [--out result.json]

One run builds, loads, warms and runs the named cell repeatedly in this
one process until ``--seconds`` have passed, checks every round's model
outputs, and prints medians with quartiles and the round count.  The
last line of standard output is the JSON result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds (counters, set-up spans, check time) with rounds that
cProfile ``run_cell`` (self time per layer) and reports the per-layer
metrics.  ``--workload all`` runs every workload, each in a fresh
interpreter.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "expected_digests.json"
#: Model seeds ("slots") with a committed model digest each.  Round ``i``
#: of a run with seed ``s`` runs slot ``(s + i) % SEED_SLOTS``: every
#: round is checked against a pin whatever the seed, and a run's medians
#: cover several inputs instead of resting on one.
SEED_SLOTS = 32


@dataclass
class Round:
    """One cell built, loaded, warmed, run and checked."""

    #: Model seed of the cell.
    slot: int
    #: Host seconds: build, load (incl. settle), warm, run (run_cell
    #: excluding the oracle), check (inside build_consistency_report).
    spans: dict
    attempted: int
    #: Measured operations with an outcome, ok or failed.
    completed: int
    #: Kernel events processed during run_cell.
    events: int
    counts: dict
    digest: str
    #: Profiler self seconds per layer (traced rounds only).
    self_s: Optional[dict] = None

    @property
    def setup_s(self) -> float:
        return self.spans["build_s"] + self.spans["load_s"] \
            + self.spans["warm_s"]

    @property
    def cell_s(self) -> float:
        return self.setup_s + self.spans["run_s"] + self.spans["check_s"]


def run_round(cell, slot: int, tiny: bool = False,
              profile: bool = False) -> Round:
    """Build, load, warm and run ``cell`` at model seed ``slot`` once,
    timing each public call."""
    from repro.core import experiment
    from layers import layer_counts, model_digest, self_time_by_layer, \
        snapshot

    config = cell.config(slot, tiny)
    clock = time.perf_counter
    t0 = clock()
    session = experiment.ExperimentSession(config)
    t1 = clock()
    session.load()
    t2 = clock()
    session.warm(operations=cell.warm_ops(tiny))
    t3 = clock()
    before = snapshot(session)

    check_s = 0.0
    oracle = experiment.build_consistency_report

    def timed_check(*args, **kwargs):
        nonlocal check_s
        started = clock()
        try:
            return oracle(*args, **kwargs)
        finally:
            check_s += clock() - started

    profiler = cProfile.Profile() if profile else None
    experiment.build_consistency_report = timed_check
    try:
        t4 = clock()
        if profiler is not None:
            profiler.enable()
        try:
            result = session.run_cell(**cell.run_kwargs)
        finally:
            if profiler is not None:
                profiler.disable()
        t5 = clock()
    finally:
        experiment.build_consistency_report = oracle

    summary = experiment.summarize_run(result)
    after = snapshot(session)
    attempted = cell.attempted(config)
    counts = layer_counts(before, after, attempted=attempted,
                          record_bytes=config.workload.record_bytes,
                          summary=summary)
    return Round(
        slot=slot,
        spans={"build_s": t1 - t0, "load_s": t2 - t1, "warm_s": t3 - t2,
               "run_s": t5 - t4 - check_s, "check_s": check_s},
        attempted=attempted,
        completed=summary["ops"] + summary["errors"],
        events=after["events"] - before["events"],
        counts=counts,
        digest=model_digest(summary, counts),
        self_s=self_time_by_layer(profiler) if profiler else None)


def check_rounds(rounds: list[Round], pins) -> list[str]:
    """Problems with the rounds' model outputs (empty = correct).

    ``pins`` maps a slot to its committed digest (None = unpinned).
    """
    problems = []
    for i, r in enumerate(rounds):
        if r.completed != r.attempted:
            problems.append(f"round {i}: {r.completed} of {r.attempted} "
                            f"attempted ops have an outcome")
        bad = r.counts["consistency.unexpected_violations"]
        if bad:
            problems.append(f"round {i}: {bad} unexpected consistency "
                            f"violations")
    for slot in sorted({r.slot for r in rounds}):
        digests = sorted({r.digest for r in rounds if r.slot == slot})
        if len(digests) > 1:
            problems.append(f"slot {slot}: model digest differs between "
                            f"rounds: {digests}")
        if pins is not None and digests != [pins[slot]]:
            problems.append(f"slot {slot}: model digest {digests} != "
                            f"pinned {pins[slot]}")
    return problems


def pinned_digests(workload: str) -> tuple[Optional[list], str]:
    """The committed digest of every slot, and a note on their status.

    Digests are pinned under one Python minor version; another version
    may legitimately draw different random streams, so the pin is then
    skipped (and the note says so) while rounds must still agree.
    """
    pins = json.loads(PINS.read_text())
    python = ".".join(platform.python_version_tuple()[:2])
    if pins["python"] != python:
        return None, (f"pins are for Python {pins['python']}, this is "
                      f"{python}: digest not pinned")
    return pins["digests"][workload], f"pinned ({PINS.name})"


def _stat(values: list[float], unit: str) -> dict:
    """Median, quartiles and sample count of one metric."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit}


def end_to_end(rounds: list[Round]) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "sim_ops_per_s": _stat([r.completed / r.spans["run_s"]
                                for r in rounds], "1/s"),
        "setup_s": _stat([r.setup_s for r in rounds], "s"),
        "cell_s": _stat([r.cell_s for r in rounds], "s"),
        "peak_rss_mb": _stat([rss_mb], "MB"),
    }


def per_layer(plain: list[Round], traced: list[Round]) -> dict:
    from layers import COUNT_UNITS, LAYERS

    metrics = {name: _stat([value], COUNT_UNITS[name])
               for name, value in plain[0].counts.items()}
    metrics["sim.host_us_per_event"] = _stat(
        [1e6 * r.spans["run_s"] / max(1, r.events) for r in plain], "us")
    for span in ("build_s", "load_s", "warm_s"):
        metrics[f"setup.{span}"] = _stat([r.spans[span] for r in plain], "s")
    metrics["consistency.check_s"] = _stat(
        [r.spans["check_s"] for r in plain], "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _stat(
            [r.self_s[layer] for r in traced], "s")

    def run_cell_s(r: Round) -> float:
        return r.spans["run_s"] + r.spans["check_s"]

    metrics["trace.overhead_share"] = _stat(
        [statistics.median(map(run_cell_s, traced))
         / statistics.median(map(run_cell_s, plain))], "ratio")
    return metrics


def provenance(workload: str, seed: int, slots: list[int]) -> dict:
    """Who measured what, where: refuse comparisons across machines."""
    from repro.core.runner import code_version

    uname = os.uname()
    return {
        "workload": workload,
        "seed": seed,
        "slots": slots,
        "commit": _git_commit(),
        "source": code_version(),
        "fingerprint": {"machine": uname.machine, "kernel": uname.release,
                        "nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "implementation": platform.python_implementation()},
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(cell, seed: int, seconds: float,
            trace: bool) -> tuple[list[Round], list[Round]]:
    """Rounds for ``seconds``: at least one, and another only while one
    more, as long as the last, still ends in time.

    A traced round runs the same slot as the untraced round before it.
    """
    clock = time.perf_counter
    started = clock()
    last = 0.0
    plain: list[Round] = []
    traced: list[Round] = []
    while not plain or clock() - started + last <= seconds:
        began = clock()
        slot = (seed + len(plain)) % SEED_SLOTS
        plain.append(run_round(cell, slot))
        # Each round starts from the same heap: free the last session's
        # reference cycles outside the timed spans.
        gc.collect()
        if trace:
            traced.append(run_round(cell, slot, profile=True))
            gc.collect()
        last = clock() - began
    return plain, traced


def _print_table(metrics: dict) -> None:
    for name, m in metrics.items():
        spread = (f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}] n={m['n']}"
                  if m["n"] > 1 else "")
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{spread}")


def _run_all(args) -> int:
    from cells import CELLS

    status = 0
    for name in CELLS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the full record (provenance, "
                             "quartiles, problems) here as JSON")
    args = parser.parse_args(argv)

    # Only the checkout's own sources are measured, never an installed
    # copy of the package.
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no simulator sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from cells import CELLS
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in CELLS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(CELLS)} or 'all'")
    cell = CELLS[args.workload]
    pins, pin_note = pinned_digests(cell.name)

    plain, traced = measure(cell, args.seed, args.seconds, bool(args.trace))
    rounds = plain + traced
    problems = check_rounds(rounds, pins)
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(plain))

    slots = [r.slot for r in plain]
    record = provenance(cell.name, args.seed, slots)
    record.update(trace=args.trace,
                  digests={str(r.slot): r.digest for r in plain},
                  pin=pin_note, problems=problems, metrics=metrics)
    print(f"perfbench {cell.name}: seed {args.seed} (slots {slots}), "
          f"{len(plain)} rounds" + (f" + {len(traced)} traced" if traced
                                     else ""))
    print(f"  commit {record['commit']}, source {record['source']}, "
          f"{json.dumps(record['fingerprint'], sort_keys=True)}")
    print(f"  model digests of {len(record['digests'])} slots: {pin_note}")
    # check_s and failed_op_share are not end-to-end metrics (each is 0
    # on some workloads), but a run still reports them where they apply.
    extra = {"failed_op_share": _stat(
        [rounds[0].counts["ycsb.failed_op_share"]], "ratio")}
    if not args.trace and cell.run_kwargs.get("check_consistency"):
        extra["check_s"] = _stat([r.spans["check_s"] for r in plain], "s")
    _print_table(extra)
    _print_table(metrics)
    for problem in problems:
        print(f"  OUTPUT CHECK FAILED: {problem}")
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True)
                            + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(abs(r.attempted - r.completed) for r in rounds),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
