"""The three seeded workloads, built on the public API of the Trail stack.

Each workload turns a seed into inputs once, then runs *units*: one
unit builds a fresh stack (set-up, timed), runs the inputs through it
(the run, timed), and checks the outputs (untimed).  Every unit of one
seed is the same simulated run, so its simulated metrics and disk
fingerprint repeat exactly; only host time varies.
"""

from __future__ import annotations

import cProfile
import random
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.baselines.group_commit import SyncCommitPolicy
from repro.core.config import TrailConfig
from repro.core.instance import TrailInstance
from repro.db.engine import TransactionEngine
from repro.db.locks import LockManager
from repro.db.pages import BufferPool
from repro.db.wal import WriteAheadLog
from repro.disk.controller import Op
from repro.disk.presets import st41601n, wd_caviar_10gb
from repro.sim import Simulation
from repro.tpcc.loader import LOG_DISK, TpccDatabase
from repro.tpcc.metrics import TpccMetrics
from repro.tpcc.random_gen import TpccRandom
from repro.tpcc.run import TpccRunConfig, run_tpcc
from repro.tpcc.schema import TpccScale
from repro.tpcc.terminal import launch_terminals
from repro.units import MiB

from probes import (
    ContentOracle, DriverProbe, IoCollector, SpeedProbe, decomposition_errors,
    mean, percentile, profile_by_layer, ratio)

from spec import (
    CRASH_CYCLES, CRASH_PENDING, CRASH_RATE_PER_S, SYNC_HOT_FRACTION, SYNC_HOT_PAGES,
    SYNC_OPS, SYNC_RATE_PER_S, SYNC_READS, TPCC_TERMINALS,
    TPCC_TRANSACTIONS)

SECTOR = 512
PAGE_SECTORS = 8  # 4 KB operations
PAGE_BYTES = PAGE_SECTORS * SECTOR


@dataclass
class Unit:
    """Outcome of one unit: timings, samples, checks, layer numbers."""

    #: Host seconds of the set-up and of the run, and (untraced) the
    #: same intervals in reference seconds (see SpeedProbe).
    setup_s: float = 0.0
    run_s: float = 0.0
    setup_ref_s: float = 0.0
    run_ref_s: float = 0.0
    ops: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    write_ms: List[float] = field(default_factory=list)
    read_ms: List[float] = field(default_factory=list)
    op_ms: List[float] = field(default_factory=list)
    sim_ops_per_min: float = 0.0
    fingerprint: str = ""
    #: Workload-specific simulated results, printed by name.
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer numbers from the public stats objects (and, in a
    #: traced unit, the profile, event trace and IoResults).
    layers: Dict[str, float] = field(default_factory=dict)

    def sim_metrics(self) -> Dict[str, float]:
        """Simulated end-to-end metrics: deterministic for one seed."""
        return {
            "write_p50_ms": percentile(self.write_ms, 50),
            "write_p99_ms": percentile(self.write_ms, 99),
            "read_p50_ms": percentile(self.read_ms, 50),
            "read_p99_ms": percentile(self.read_ms, 99),
            "op_p50_ms": percentile(self.op_ms, 50),
            "op_p99_ms": percentile(self.op_ms, 99),
            "sim_ops_per_min": self.sim_ops_per_min,
        }


class Harness:
    """Builds one unit's stack with the probes a run mode needs.

    Set-up is timed from the harness's creation to the start of the
    run.
    """

    def __init__(self, traced: bool,
                 timed_disks: Optional[Set[int]] = None) -> None:
        self.traced = traced
        self.oracle = ContentOracle()
        self.probe = DriverProbe(self.oracle, timed_disks)
        self.io: Optional[IoCollector] = IoCollector() if traced else None
        self.profile: Optional[cProfile.Profile] = (
            cProfile.Profile() if traced else None)
        self.speed: Optional[SpeedProbe] = None if traced else SpeedProbe()
        self.sim: Optional[Simulation] = None
        self.data_drives: Dict[int, Any] = {}
        self.instance: Optional[TrailInstance] = None
        #: Every driver the instance had: a remount replaces it.
        self.drivers: List[Any] = []
        self._marks: Tuple[int, Tuple[int, int]] = (0, (0, 0))
        self._sim_start = 0.0
        if self.speed is not None:
            self.speed.start()
        self._begin = time.perf_counter()

    def new_sim(self) -> Simulation:
        sim = Simulation()
        if self.traced:
            sim.enable_trace()
        self.sim = sim
        return sim

    def drive(self, spec: Any, name: str, role: str) -> Any:
        drive = spec.make_drive(self.sim, name)
        if self.io is not None:
            self.io.install(drive, role)
        if role == "data":
            self.data_drives[len(self.data_drives)] = drive
        return drive

    def timed(self, unit: Unit, body: Callable[[], None]) -> None:
        """Run ``body`` under the host clocks (and the profiler)."""
        sim = self.sim
        assert sim is not None
        trace = sim.trace
        self._marks = (len(trace) if trace is not None else 0,
                       self.io.mark() if self.io is not None else (0, 0))
        self._sim_start = sim.now
        if self.profile is not None:
            self.profile.enable()
        start = time.perf_counter()
        try:
            body()
        finally:
            end = time.perf_counter()
            if self.profile is not None:
                self.profile.disable()
            if self.speed is not None:
                self.speed.stop()
        unit.setup_s = start - self._begin
        unit.run_s = end - start
        speed = self.speed
        if speed is not None:
            unit.setup_ref_s = speed.reference_s(self._begin, start)
            unit.run_ref_s = speed.reference_s(start, end)

    def run_layers(self, unit: Unit) -> None:
        """Profile, event-trace and IoResult numbers of the timed run."""
        sim = self.sim
        assert sim is not None and sim.trace is not None
        assert self.profile is not None and self.io is not None
        ops = unit.ops
        layers = unit.layers
        for layer, bucket in profile_by_layer(self.profile).items():
            layers[f"{layer}.host_self_s"] = bucket["self_s"]
            if layer != "other":
                layers[f"{layer}.calls_per_op"] = bucket["calls"] / ops
        layers["sim.events_per_op"] = \
            (len(sim.trace) - self._marks[0]) / ops
        results = self.io.since(self._marks[1])
        log, data = results["log"], results["data"]
        bad = decomposition_errors(log + data)
        if bad:
            unit.failures.append(
                f"{bad} IoResult(s) whose components do not sum to "
                f"latency_ms")
        for part in ("queue", "overhead", "seek", "rotation", "transfer"):
            layers[f"disk.log.{part}_ms_mean"] = mean(
                [getattr(io, f"{part}_ms") for io in log])
        layers["disk.log.commands_per_op"] = len(log) / ops
        layers["disk.data.queue_ms_mean"] = mean(
            [io.queue_ms for io in data])
        layers["disk.data.positioning_ms_mean"] = mean(
            [io.positioning_ms for io in data])
        span = sim.now - self._sim_start
        layers["disk.data.busy_frac"] = ratio(
            sum(io.service_ms for io in data),
            span * len(self.data_drives))
        layers["disk.data.commands_per_op"] = len(data) / ops
        written = sum(io.nsectors for io in log + data if io.op is Op.WRITE)
        layers["disk.sectors_written_per_user_sector"] = ratio(
            written, self.probe.user_sectors)
        # A write lands where the predictor aimed when its rotational
        # wait is under (2 + delta_slack_sectors) sector times: delta
        # rounds the command overhead up to whole sectors and adds one
        # for the floor() in the prediction, then the slack.  The test
        # wait > lead * revolution / sectors_per_track is cross-multiplied.
        instance = self.instance
        assert instance is not None
        geometry = instance.log_drive.geometry
        lead_revolutions_ms = (2 + instance.config.delta_slack_sectors
                               ) * instance.log_drive.rotation.rotation_ms
        log_writes = [io for io in log if io.op is Op.WRITE]
        mispredicted = sum(
            1 for io in log_writes
            if io.rotation_ms * geometry.track_sectors(
                geometry.track_of_lba(io.lba)) > lead_revolutions_ms)
        layers["core.mispredict_ratio"] = ratio(mispredicted,
                                                len(log_writes))

    def attach(self, instance: TrailInstance) -> None:
        """Probe the instance's driver (again after each remount)."""
        self.instance = instance
        self.drivers.append(instance.driver)
        self.probe.install(instance.driver)

    def finish(self, unit: Unit) -> None:
        """Output checks shared by every workload."""
        instance = self.instance
        assert instance is not None
        unit.failures.extend(self.probe.failures)
        for driver in self.drivers:
            error = driver.buffers.accounting_error()
            if error is not None:
                unit.failures.append(f"buffer accounting: {error}")
        unit.failures.extend(self.oracle.final_mismatches(
            {disk_id: drive.store
             for disk_id, drive in self.data_drives.items()}, SECTOR))
        unit.write_ms = self.probe.write_ms
        unit.read_ms = self.probe.read_ms
        unit.fingerprint = instance.fingerprint()
        core_layers(unit, self.drivers, self.probe)


def core_layers(unit: Unit, drivers: List[Any], probe: DriverProbe) -> None:
    """Per-layer numbers read from the drivers' public TrailStats."""
    layers = unit.layers
    batches = [driver.stats.batch_sizes for driver in drivers]
    batch_count = sum(recorder.count for recorder in batches)
    layers["core.batch_sectors_mean"] = ratio(
        sum(recorder.total for recorder in batches), batch_count)
    physical = sum(d.stats.physical_log_writes for d in drivers)
    logical = sum(d.stats.logical_writes for d in drivers)
    layers["core.log_writes_per_write"] = ratio(physical, logical)
    layers["core.repositions_per_op"] = ratio(
        sum(d.stats.repositions for d in drivers), unit.ops)
    layers["core.track_utilization"] = mean(
        [d.allocator.mean_retired_utilization() for d in drivers
         if d.allocator.track_count])
    layers["core.log_full_stalls"] = sum(
        d.stats.log_full_stalls for d in drivers)
    from_buffer = sum(d.stats.reads_from_buffer for d in drivers)
    from_disk = sum(d.stats.reads_from_disk for d in drivers)
    layers["core.read_buffer_hit_ratio"] = ratio(
        from_buffer, from_buffer + from_disk)
    layers["core.writeback_backlog_max"] = probe.backlog_max


def page_content(rng: random.Random, page: int, version: int) -> bytes:
    """4 KB that name their page and version, then seeded filler."""
    return struct.pack(">QQ", page, version) + rng.randbytes(PAGE_BYTES - 16)


def build_trail(harness: Harness) -> TrailInstance:
    """ST41601N log disk + one WD Caviar data disk, formatted and
    mounted (the order TrailInstance.build creates them in)."""
    sim = harness.new_sim()
    log_drive = harness.drive(st41601n(), "trail-log", "log")
    data_drive = harness.drive(wd_caviar_10gb(), "data0", "data")
    instance = TrailInstance(sim, log_drive, {0: data_drive})
    harness.attach(instance)
    return instance


# ----------------------------------------------------------------------
# sync-write


class SyncWrite:
    """Open-loop 4 KB writes and reads straight at the Trail driver."""

    name = "sync-write"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        pages = wd_caviar_10gb().geometry().total_sectors // PAGE_SECTORS
        kinds = [False] * SYNC_READS + [True] * (SYNC_OPS - SYNC_READS)
        rng.shuffle(kinds)
        versions: Dict[int, int] = {}
        due = 0.0
        #: (due_ms, lba, data or None for a read)
        self.ops: List[Tuple[float, int, Optional[bytes]]] = []
        for is_write in kinds:
            due += rng.expovariate(SYNC_RATE_PER_S / 1000.0)
            if rng.random() < SYNC_HOT_FRACTION:
                page = rng.randrange(SYNC_HOT_PAGES)
            else:
                page = rng.randrange(SYNC_HOT_PAGES, pages)
            data = None
            if is_write:
                versions[page] = versions.get(page, -1) + 1
                data = page_content(rng, page, versions[page])
            self.ops.append((due, page * PAGE_SECTORS, data))

    def unit(self, traced: bool) -> Unit:
        unit = Unit()
        harness = Harness(traced)
        instance = build_trail(harness)
        sim, driver = instance.sim, instance.driver
        op_ms = unit.op_ms
        late = [0.0]
        done_at = [0.0]

        origin = sim.now  # due times count from the end of mount

        def arrivals() -> Any:
            events = []
            for offset, lba, data in self.ops:
                due = origin + offset
                if due > sim.now:
                    yield sim.timeout(due - sim.now)
                late[0] = max(late[0], sim.now - due)
                if data is None:
                    event = driver.read(lba, PAGE_SECTORS)
                else:
                    event = driver.write(lba, data)

                def completed(_event: Any, due: float = due) -> None:
                    op_ms.append(sim.now - due)
                    done_at[0] = sim.now
                event.add_callback(completed)
                events.append(event)
            yield sim.all_of(events)
            yield from driver.flush()

        harness.timed(unit, lambda: sim.run_until(sim.process(arrivals())))
        unit.ops = unit.attempted = len(self.ops)
        unit.sim_ops_per_min = unit.ops * 60_000 / (
            done_at[0] - origin - self.ops[0][0])
        unit.notes["generator_late_ms"] = late[0]
        if traced:
            harness.run_layers(unit)
        sim.run_until(sim.process(driver.clean_shutdown()))
        harness.finish(unit)
        return unit


# ----------------------------------------------------------------------
# tpcc


class Tpcc:
    """TPC-C on Trail, assembled from the parts run_tpcc() uses."""

    name = "tpcc"

    def __init__(self, seed: int) -> None:
        self.config = TpccRunConfig(
            system="trail", transactions=TPCC_TRANSACTIONS,
            concurrency=TPCC_TERMINALS, seed=seed)

    def unit(self, traced: bool) -> Unit:
        config = self.config
        unit = Unit()
        # Synchronous-write latency is the WAL's: the pool's page
        # write-backs are Trail writes too, but nobody waits for them.
        harness = Harness(traced, timed_disks={LOG_DISK})
        sim = harness.new_sim()
        # run_tpcc's creation order: table disks, then the log disk.
        data_disks = {disk_id: harness.drive(wd_caviar_10gb(),
                                             f"ide{disk_id}", "data")
                      for disk_id in range(3)}
        log_drive = harness.drive(st41601n(), "trail-log", "log")
        instance = TrailInstance(sim, log_drive, data_disks, TrailConfig(),
                                 mount=False)
        driver = instance.driver
        harness.attach(instance)
        wal = WriteAheadLog(
            sim, driver, disk_id=LOG_DISK, start_lba=0,
            capacity_sectors=MiB(config.wal_capacity_mb) // SECTOR,
            policy=SyncCommitPolicy())
        pool = BufferPool(sim, driver, capacity_pages=config.pool_pages,
                          page_sectors=config.page_sectors,
                          flush_interval_ms=config.flush_interval_ms,
                          flush_batch=config.flush_batch)
        locks = LockManager(sim)
        engine = TransactionEngine(sim, driver, wal, pool, locks,
                                   cpu_ms_per_op=config.cpu_ms_per_op)
        rnd = TpccRandom(config.seed)
        db = TpccDatabase(engine, TpccScale(config.warehouses), rnd)
        db.load()
        db.warm_cache()
        instance.mount()
        metrics = TpccMetrics(sim)

        def run() -> Any:
            pool.start()
            metrics.begin_run()
            terminals = launch_terminals(
                sim, engine, db, metrics,
                total_transactions=config.transactions,
                concurrency=config.concurrency, rnd=rnd,
                think_time_ms=config.think_time_ms)
            yield sim.all_of(terminals)
            yield wal.force()
            metrics.end_run()
            pool.stop()

        harness.timed(unit, lambda: sim.run_until(sim.process(run())))
        unit.ops = metrics.completed
        unit.attempted = (metrics.completed + metrics.rolled_back
                          + metrics.deadlock_failures)
        unit.failures.extend(["a transaction failed on deadlock"]
                             * metrics.deadlock_failures)
        unit.op_ms = metrics.response.samples
        unit.sim_ops_per_min = metrics.tpmc
        unit.notes.update(
            tpmc=metrics.tpmc, avg_response_s=metrics.avg_response_s,
            transactions_completed=metrics.completed,
            rolled_back=metrics.rolled_back)
        if traced:
            harness.run_layers(unit)
        sim.run_until(sim.process(driver.clean_shutdown()))
        harness.finish(unit)
        txns = unit.ops
        wal_stats = wal.stats
        layers = unit.layers
        layers["db.wal.forces_per_txn"] = wal_stats.flushes / txns
        layers["db.wal.bytes_per_force"] = ratio(wal_stats.bytes_flushed,
                                                 wal_stats.flushes)
        layers["db.wal.force_ms_mean"] = ratio(wal_stats.flush_io.total,
                                               wal_stats.flush_io.count)
        layers["db.wal.latch_wait_ms_per_txn"] = \
            wal_stats.latch_wait_ms / txns
        layers["db.pool.hit_ratio"] = pool.stats.hit_ratio
        layers["db.pool.dirty_evictions_per_txn"] = \
            pool.stats.dirty_evictions / txns
        layers["db.locks.waits_per_txn"] = locks.stats.waits / txns
        layers["db.locks.wait_ms_per_txn"] = locks.stats.total_wait_ms / txns
        layers["db.locks.deadlock_aborts"] = locks.stats.deadlock_aborts
        layers["tpcc.work_ms_mean"] = metrics.work_time.mean
        return unit

    def reference_notes(self) -> Dict[str, Any]:
        """run_tpcc()'s results for the same config and seed."""
        result = run_tpcc(self.config)
        return {"tpmc": result.tpmc,
                "avg_response_s": result.avg_response_s,
                "transactions_completed": result.transactions_completed}


# ----------------------------------------------------------------------
# crash-recover


class CrashRecover:
    """Crash, remount and read back, cycle after cycle on one log."""

    name = "crash-recover"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        pages = wd_caviar_10gb().geometry().total_sectors // PAGE_SECTORS
        versions: Dict[int, int] = {}
        #: Per cycle: [(gap_ms, lba, data)], distinct pages in a cycle.
        self.cycles: List[List[Tuple[float, int, bytes]]] = []
        for _cycle in range(CRASH_CYCLES):
            writes = []
            for page in rng.sample(range(pages), CRASH_PENDING):
                versions[page] = versions.get(page, -1) + 1
                writes.append((rng.expovariate(CRASH_RATE_PER_S / 1000.0),
                               page * PAGE_SECTORS,
                               page_content(rng, page, versions[page])))
            self.cycles.append(writes)

    def unit(self, traced: bool) -> Unit:
        unit = Unit()
        harness = Harness(traced)
        instance = build_trail(harness)
        sim = instance.sim
        reports = []
        remount_host_s = []
        pending_counts = []
        recovery_spans = []

        def cycle(writes: List[Tuple[float, int, bytes]]) -> None:
            driver = instance.driver
            driver.writeback.stop()
            before = driver.stats.physical_log_writes

            def write_all() -> Any:
                acks = []
                for gap, lba, data in writes:
                    yield sim.timeout(gap)
                    acks.append(driver.write(lba, data))
                yield sim.all_of(acks)
            sim.run_until(sim.process(write_all()))
            pending_counts.append(
                driver.stats.physical_log_writes - before)
            error = driver.buffers.accounting_error()
            if error is not None:
                unit.failures.append(f"buffer accounting: {error}")
            instance.crash()
            sim.run(until=sim.now + 100)
            power_on = sim.now
            host_start = time.perf_counter()
            report = instance.remount()
            remount_host_s.append(time.perf_counter() - host_start)
            reports.append(report)
            harness.attach(instance)
            driver = instance.driver

            def read_back() -> Any:
                for _gap, lba, _data in writes:
                    yield driver.read(lba, PAGE_SECTORS)
                    unit.op_ms.append(sim.now - power_on)
            sim.run_until(sim.process(read_back()))
            recovery_spans.append(sim.now - power_on)

        def run() -> None:
            for writes in self.cycles:
                cycle(writes)

        harness.timed(unit, run)
        unit.ops = unit.attempted = CRASH_CYCLES * CRASH_PENDING
        unit.sim_ops_per_min = unit.ops / sum(recovery_spans) * 60_000
        for index, (report, pending) in enumerate(
                zip(reports, pending_counts)):
            if report is None:
                unit.failures.append(f"cycle {index}: remount ran no "
                                     f"recovery")
                continue
            if report.damaged:
                unit.failures.append(f"cycle {index}: recovery reports "
                                     f"damage")
            if report.records_found != pending:
                unit.failures.append(
                    f"cycle {index}: recovery found "
                    f"{report.records_found} records, {pending} pending")
        if traced:
            harness.run_layers(unit)
        driver = instance.driver
        sim.run_until(sim.process(driver.clean_shutdown()))
        harness.finish(unit)
        done = [report for report in reports if report is not None]
        totals = [report.total_ms for report in done]
        unit.notes.update(
            recovery_ms=percentile(totals, 50), recovery_cycles=len(totals),
            pending_records=pending_counts)
        layers = unit.layers
        for step in ("locate_ms", "rebuild_ms", "writeback_ms"):
            layers[f"core.recovery.{step}"] = percentile(
                [getattr(report, step) for report in done], 50)
        layers["core.recovery.tracks_scanned"] = percentile(
            [report.tracks_scanned for report in done], 50)
        layers["core.recovery.host_s"] = percentile(remount_host_s, 50)
        return unit


WORKLOADS = {cls.name: cls for cls in (SyncWrite, Tpcc, CrashRecover)}


def all_layer_metrics(unit: Unit, names: List[str]) -> Dict[str, float]:
    """Every named per-layer metric; a layer that did not run reads 0."""
    return {name: float(unit.layers.get(name, 0.0)) for name in names}

