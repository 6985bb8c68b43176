#!/usr/bin/env python3
"""Rewrite ``perfbench/references.json`` from the current program.

Usage, from the root of an irlm checkout:

    python3 perfbench/record_references.py

The references are the trace facts of every trace call of ``trace_replay``
(``workloads.TRACE_SPECS``), for every matrix seed in the pool.  Re-record them only in a
change that means to alter those outputs, and say so in CHANGES.md.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _require_ok(call) -> None:
    if call.rc != 0 or call.error is not None:
        raise SystemExit(f"cannot record references, CLI call failed: {call}")


def main() -> None:
    wl = workloads.build()["trace_replay"]
    refs = {spec.label: {} for spec in wl.specs}
    work = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        wl.prepare(work)
        for seed in workloads.POOL_SEEDS:
            for spec, call in zip(wl.specs, wl.run(work, seed)):
                _require_ok(call)
                doc = json.loads(spec.report(work).read_text())
                refs[spec.label][str(seed)] = workloads.trace_facts(doc)
    finally:
        shutil.rmtree(work)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {HERE / 'references.json'}")


if __name__ == "__main__":
    main()
