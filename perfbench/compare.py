#!/usr/bin/env python3
"""Compare two benchmark records written by ``run.py --out``.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) to compare a record with itself, records from machines
with different fingerprints, and records of different workloads, seeds
or trace modes: a baseline must be measured on the same machine, by a
separate run.  Otherwise prints, per metric, the new median against the
base median.  End-to-end metrics are judged against the bounds fixed in
``BENCHMARK.json``; a metric whose base quartile spread exceeds its
bound is reported as unresolved.  Exits 1 on a regression or a changed
model digest.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def refusal(base_path: Path, new_path: Path, base: dict,
            new: dict) -> str | None:
    """Why the two records must not be compared (None = comparable)."""
    if base_path.resolve() == new_path.resolve() or base == new:
        return "a record is not its own baseline; measure the base separately"
    if base["fingerprint"] != new["fingerprint"]:
        return (f"machine fingerprints differ: {base['fingerprint']} vs "
                f"{new['fingerprint']}")
    for key in ("workload", "seed", "trace"):
        if base[key] != new[key]:
            return f"{key} differs: {base[key]!r} vs {new[key]!r}"
    return None


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether anything regressed."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = [f"{base['workload']} seed {base['seed']}: "
             f"{base['commit'][:12]} -> {new['commit'][:12]}"]
    changed = sorted(slot for slot, digest in base["digests"].items()
                     if new["digests"].get(slot, digest) != digest)
    regressed = bool(changed)
    if changed:
        lines.append(f"  model digest changed on slots {changed}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            lines.append(f"  {name}: missing from the new record")
            continue
        change = (n["value"] - b["value"]) / b["value"] if b["value"] else 0.0
        verdict = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = change if bounds[name]["better"] == "lower" else -change
            spread = (b["q3"] - b["q1"]) / b["value"] if b["value"] else 0.0
            if spread > bound:
                verdict = f"unresolved (base spread {spread:.1%} > bound)"
            elif worse > bound:
                verdict = f"REGRESSION (bound {bound:.0%})"
                regressed = True
            else:
                verdict = f"ok (bound {bound:.0%})"
        lines.append(f"  {name:<36} {b['value']:>12.6g} -> "
                     f"{n['value']:<12.6g} {change:+.1%} {verdict}")
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_path, new_path = map(Path, argv)
    base = json.loads(base_path.read_text())
    new = json.loads(new_path.read_text())
    reason = refusal(base_path, new_path, base, new)
    if reason is not None:
        print(f"compare: refused: {reason}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = compare(base, new, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
