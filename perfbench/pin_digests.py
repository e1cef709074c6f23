#!/usr/bin/env python3
"""Record the model digest of every workload at every seed slot.

Usage (from the repository root)::

    python3 perfbench/pin_digests.py

Rewrites ``expected_digests.json``.  Re-pinning is a deliberate act: do
it only when a change is meant to alter what the model predicts, and
say why in the change's notes.  A change that only claims to be faster
must leave every digest as it is.
"""

from __future__ import annotations

import json
import platform
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from cells import CELLS

    digests = {}
    for name, cell in CELLS.items():
        digests[name] = []
        for slot in range(run.SEED_SLOTS):
            r = run.run_round(cell, slot)
            problems = run.check_rounds([r], None)
            if problems:
                print(f"{name} slot {slot}: {problems}", file=sys.stderr)
                return 1
            digests[name].append(r.digest)
            print(f"{name} slot {slot}: {r.digest[:16]}", flush=True)
    pins = {"python": ".".join(platform.python_version_tuple()[:2]),
            "digests": digests}
    run.PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
