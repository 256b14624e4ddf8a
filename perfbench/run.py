"""Trail benchmark: one seeded workload, checked, every metric by name.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sync-write --seed 1 \
        --seconds 10 --trace 0

The run repeats *units* of the workload until ``--seconds`` have
passed.  Each unit is a fresh interpreter that builds the stack,
runs the seeded inputs and checks the outputs, as a user's process
would; no state carries from one unit to the next.

``--trace 0`` reports the end-to-end metrics: host ``ops_per_s`` and
``setup_s`` (in reference seconds, see ``probes.SpeedProbe``) and
``peak_rss_mb``, each the median over units, and the simulated
latencies and throughput.  Every unit of one seed must
reproduce the simulated metrics and disk fingerprint exactly.

``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics.  A traced unit runs under cProfile with the event
trace on and every disk command's IoResult collected; its simulated
metrics and fingerprint must equal the untraced units'.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from spec import OPERATION, PLANNED_OPS, REFERENCE_CHECKED, declared_metrics

#: A unit that runs longer than this is killed and counted as failed.
UNIT_TIMEOUT_S = 60.0

HERE = os.path.dirname(os.path.abspath(__file__))


def _program_src() -> str:
    """The checkout's ``src``; exit non-zero without output if absent."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit("perfbench: no src/repro in the current directory; "
                 "run from the root of a checkout")
    return src


# ----------------------------------------------------------------------
# One unit, in its own interpreter


def child(workload_name: str, seed: int, mode: str) -> None:
    """Run one unit (or run_tpcc() for ``reference``); print JSON."""
    sys.path.insert(0, _program_src())
    from repro.errors import ReproError
    from workloads import WORKLOADS, all_layer_metrics

    workload = WORKLOADS[workload_name](seed)
    if mode == "reference":
        print(json.dumps({"notes": workload.reference_notes()}))
        return
    try:
        unit = workload.unit(traced=mode == "traced")
    except ReproError as exc:
        print(json.dumps({"error": repr(exc)}))
        return
    print(json.dumps({
        "setup_s": unit.setup_s,
        "run_s": unit.run_s,
        "setup_ref_s": unit.setup_ref_s,
        "run_ref_s": unit.run_ref_s,
        "ops": unit.ops,
        "attempted": unit.attempted,
        "failed": min(len(unit.failures), unit.attempted),
        "failures": unit.failures[:20],
        "sim": unit.sim_metrics(),
        "samples": {"write": len(unit.write_ms), "read": len(unit.read_ms),
                    "op": len(unit.op_ms)},
        "fingerprint": unit.fingerprint,
        "notes": unit.notes,
        "layers": all_layer_metrics(unit, list(declared_metrics("per_layer"))),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


# ----------------------------------------------------------------------
# The run: units, checks, metrics


class Run:
    """Units of one workload and seed, and what their checks found."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Optional[Dict[str, Any]] = None

    def unit(self, mode: str) -> Optional[Dict[str, Any]]:
        """One unit in a child interpreter; None if it failed outright."""
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--child", mode]
        try:
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=UNIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._lost(f"{mode} unit ran past {UNIT_TIMEOUT_S} s")
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            return self._lost(f"{mode} unit exited {done.returncode}: "
                              f"{done.stderr.strip()[-400:]}")
        result = json.loads(lines[-1])
        if mode == "reference":
            return result
        if "error" in result:
            return self._lost(f"{mode} unit raised {result['error']}")
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems.extend(result["failures"])
        self._same_run(result, mode)
        return result

    def _lost(self, problem: str) -> None:
        planned = PLANNED_OPS[self.workload]
        self.attempted += planned
        self.failed += planned
        self.problems.append(problem)
        return None

    def _same_run(self, result: Dict[str, Any], mode: str) -> None:
        """Every unit of one seed is the same simulated run."""
        if self.reference is None:
            self.reference = result
            return
        for key in ("fingerprint", "sim", "notes"):
            if result[key] != self.reference[key]:
                self.problems.append(
                    f"{mode} unit: {key} differs from the first unit's")

    def units(self, modes: List[str], seconds: float,
              min_rounds: int) -> Dict[str, list]:
        """Cycle through ``modes`` until ``seconds`` pass (and at least
        ``min_rounds`` times, however long each unit takes)."""
        done: Dict[str, list] = {mode: [] for mode in modes}
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < min_rounds or time.perf_counter() < deadline:
            rounds += 1
            for mode in modes:
                result = self.unit(mode)
                if result is None:
                    return done
                done[mode].append(result)
        return done

    def reference_check(self) -> None:
        """run_tpcc() must agree with the stack the workload assembles."""
        if self.workload not in REFERENCE_CHECKED or self.reference is None:
            return
        result = self.unit("reference")
        if result is None:
            return
        for name, value in result["notes"].items():
            mine = self.reference["notes"][name]
            if value != mine:
                self.problems.append(f"run_tpcc() {name}={value!r} but the "
                                     f"assembled stack gave {mine!r}")
        print(f"run_tpcc() reproduced: {result['notes']}")


def _rate(results: List[Dict[str, Any]], clock: str = "run_s") -> float:
    return statistics.median(r["ops"] / r[clock] for r in results)


def end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    units = run.units(["plain"], seconds, min_rounds=5)["plain"]
    if not units:
        return {}
    first = units[0]
    metrics = {
        "ops_per_s": _rate(units, "run_ref_s"),
        "setup_s": statistics.median(u["setup_ref_s"] for u in units),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }
    metrics.update(first["sim"])
    print(f"units: {len(units)}, {first['ops']} operations each; host run "
          f"s per unit: " + ", ".join(f"{u['run_s']:.3f}" for u in units))
    print(f"wall-clock, not rescaled: {_rate(units):.1f} ops/s, set-up "
          f"{statistics.median(u['setup_s'] for u in units):.6f} s")
    for name, count in first["samples"].items():
        beyond = count - int(0.99 * (count - 1)) - 1
        print(f"{name} timings: n={count}, {beyond} beyond p99")
        if beyond < 10:
            run.problems.append(f"{name} p99 has only {beyond} samples "
                                f"beyond it")
    return metrics


def per_layer(run: Run, seconds: float) -> Dict[str, float]:
    units = run.units(["plain", "traced"], seconds, min_rounds=2)
    plain, traced = units["plain"], units["traced"]
    if not plain or not traced:
        return {}
    layers = {name: statistics.median(u["layers"][name] for u in traced)
              for name in traced[0]["layers"]}
    plain_rate, traced_rate = _rate(plain), _rate(traced)
    layers["trace.ops_per_s"] = traced_rate
    layers["trace.overhead_x"] = plain_rate / traced_rate
    # The remount's host time comes from untraced units: the profiler
    # would inflate it.
    layers["core.recovery.host_s"] = statistics.median(
        u["layers"]["core.recovery.host_s"] for u in plain)
    print(f"units: {len(plain)} untraced, {len(traced)} traced; tracing "
          f"overhead: {plain_rate:.1f} ops/s untraced vs {traced_rate:.1f} "
          f"traced (x{plain_rate / traced_rate:.2f})")
    return layers


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("plain", "traced", "reference"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.workload, args.seed, args.child)
        return 0
    _program_src()
    if args.workload not in PLANNED_OPS:
        parser.error(f"--workload must be one of {sorted(PLANNED_OPS)}")

    run = Run(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"one operation: {OPERATION[args.workload]}")
    if args.trace:
        values = per_layer(run, args.seconds)
        units = declared_metrics("per_layer")
    else:
        values = end_to_end(run, args.seconds)
        units = declared_metrics("end_to_end")
    run.reference_check()
    if run.reference is not None:
        for name, value in run.reference["notes"].items():
            print(f"{name}: {value}")
        print(f"fingerprint: {run.reference['fingerprint']}")
    for problem in run.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    attempted = max(run.attempted, 1)
    print(f"error_rate: {run.failed / attempted} ({run.failed} of "
          f"{attempted} operations failed)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({
        "correct": not run.problems and len(metrics) == len(units),
        "attempted": attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
