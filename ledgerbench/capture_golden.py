"""Record the ledger benchmark's golden results from the current code.

    python3 ledgerbench/capture_golden.py

Writes ``ledgerbench/golden.json``: the digest and a short summary of
every ``cmp-ir`` and ``ss-base`` job, and of the ``fault-slice``
campaign payload for each recorded campaign seed.  The simulator is
deterministic, so these change only when a change to ``src/`` means to
change simulated results; review such a diff like a golden-suite diff.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402

#: The default campaign seed plus one held out from tuning the benchmark.
FAULT_SEEDS = (workloads.DEFAULT_FAULT_SEED, 2001)


def capture() -> dict:
    golden: dict = {"fault-slice": {}}
    for workload in ("cmp-ir", "ss-base"):
        programs = workloads.set_up(workload)
        entries = golden.setdefault(workload, {})
        for job in sorted(workloads.job_list(workload, 0), key=lambda j: j.label):
            result = workloads.run_job(job, programs, 0)
            entries[job.label] = {"digest": workloads.result_digest(result),
                                  "summary": workloads.result_summary(result)}
    programs = workloads.set_up("fault-slice")
    for seed in FAULT_SEEDS:
        with tempfile.TemporaryDirectory(dir=BENCH_DIR) as root:
            workloads.prepare_cold("fault-slice", root)
            result = workloads.run_job(workloads.Job("campaign", "jpeg"), programs, seed)
        golden["fault-slice"][str(seed)] = {
            "digest": workloads.canonical_digest(result.to_payload()),
            "summary": workloads.campaign_summary(result)}
    return golden


def main() -> int:
    path = BENCH_DIR / "golden.json"
    path.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
