"""Workload sizes and metric names: what the benchmark measures.

Kept free of ``repro`` imports so the parent process, which only
schedules units and aggregates their results, never loads the program.
The metric names and units themselves are read from BENCHMARK.json.
"""

import json
from typing import Dict

# sync-write: an open loop of Poisson arrivals that write-back keeps up
# with (the data disk also serves the reads), plus a small hot set so
# that some reads find their page still pinned in the staging buffer.
SYNC_OPS = 10000
SYNC_READS = 3000  # 30 %, exactly, so every seed has >= 1000 of each
SYNC_RATE_PER_S = 50.0
SYNC_HOT_PAGES = 16
SYNC_HOT_FRACTION = 0.25

# tpcc: 1 warehouse, 2 terminals, zero think time, TpccRunConfig
# defaults otherwise (9,000-page pool against a ~77 MB database).  The
# first transactions of a run respond slower, so the p99 of short runs
# spreads widely across seeds (18 % at 2,000; 4-8 % at 6,000).
TPCC_TRANSACTIONS = 6000
TPCC_TERMINALS = 2

# crash-recover: cycles of Q acknowledged writes with write-back
# stopped, a power cut, a remount, and a read-back of every write in
# the order written.  The writes arrive as a Poisson burst, fast enough
# that some queue and batch on the log disk.
CRASH_CYCLES = 6
CRASH_PENDING = 1024
CRASH_RATE_PER_S = 150.0

#: Operations one unit of each workload attempts.
PLANNED_OPS = {
    "sync-write": SYNC_OPS,
    "tpcc": TPCC_TRANSACTIONS,
    "crash-recover": CRASH_CYCLES * CRASH_PENDING,
}

#: What one operation is in each workload: ``ops_per_s`` counts them,
#: ``op_p50_ms``/``op_p99_ms`` time them, ``sim_ops_per_min`` rates them.
OPERATION = {
    "sync-write": "a write acknowledged or a read completed, timed from "
                  "its due time (open loop; arrivals are a sim process, so "
                  "the generator is never late: generator_late_ms)",
    "tpcc": "a committed transaction, timed to durability (op_p50_ms and "
            "op_p99_ms are txn_p50_ms and txn_p99_ms; sim_ops_per_min is "
            "tpmC)",
    "crash-recover": "an acknowledged write recovered and verified, timed "
                     "from power-on to its read-back (recovery_ms is the "
                     "remount alone)",
}

#: Workloads whose assembled stack is checked against run_tpcc().
REFERENCE_CHECKED = ("tpcc",)



def declared_metrics(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json at the checkout root lists
    them under ``kind`` ("end_to_end" or "per_layer")."""
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)[kind]
    return {entry["name"]: entry["unit"] for entry in declared}
