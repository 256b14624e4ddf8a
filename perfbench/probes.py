"""Measurement and checking hooks installed from outside the program.

Nothing here edits ``repro``: every hook is an instance attribute set
on an object the benchmark built, or a callback added to an event the
program returned.  None of them schedules a simulation event, so the
simulated schedule is the same with or without them (the traced run
checks this by comparing fingerprints and sim metrics).
"""

from __future__ import annotations

import cProfile
import math
import os
import pstats
import signal
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import DiskHaltedError

#: Profile buckets: self time and calls by ``repro.<package>``.
LAYERS = ("sim", "disk", "core", "db", "tpcc")

#: A data extent as the program addresses it.
Key = Tuple[int, int, int]  # (disk_id, lba, nsectors)


def percentile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-th percentile.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)q, (n+1)(1-q)) distribution (q = p/100).  Simulated
    latencies are quantized: a single order statistic often lands on a
    value many samples share, and then reads the same for every seed.
    The weighted mean does not, and it varies less from seed to seed.
    """
    data = sorted(values)
    count = len(data)
    if not count:
        raise ValueError("no samples")
    q = p / 100.0
    a, b = q * (count + 1), (1.0 - q) * (count + 1)
    # Weights outside 12 standard deviations of the Beta are below 1e-30.
    spread = 12.0 * math.sqrt(q * (1.0 - q) / (count + 2))
    low = max(0, int((q - spread) * count))
    high = min(count, int(math.ceil((q + spread) * count)) + 1)
    total = 0.0
    below = _beta_cdf(a, b, low / count)
    for index in range(low, high):
        upto = _beta_cdf(a, b, (index + 1) / count)
        total += (upto - below) * data[index]
        below = upto
    return total


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 100_000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            step = c * d
            result *= step
        if abs(step - 1.0) < 1e-15:
            return result
    raise ArithmeticError("incomplete beta did not converge")


class ContentOracle:
    """What every extent may legally read as, from the writes issued.

    A read must return the last write acknowledged before it was
    issued, or a write issued after that one (it may overtake a write
    still in flight), or zeros if no write to the extent was
    acknowledged yet.
    """

    def __init__(self) -> None:
        self.issued: Dict[Key, List[bytes]] = {}
        self.acked: Dict[Key, int] = {}
        #: ``(key, data)`` in acknowledgement order.
        self.ack_log: List[Tuple[Key, bytes]] = []
        self.read_keys: Set[Key] = set()

    def write_issued(self, key: Key, data: bytes) -> int:
        versions = self.issued.setdefault(key, [])
        versions.append(data)
        return len(versions) - 1

    def write_acked(self, key: Key, version: int) -> None:
        if version > self.acked.get(key, -1):
            self.acked[key] = version
        self.ack_log.append((key, self.issued[key][version]))

    def read_floor(self, key: Key) -> int:
        self.read_keys.add(key)
        return self.acked.get(key, -1)

    def read_ok(self, key: Key, floor: int, data: bytes) -> bool:
        versions = self.issued.get(key, ())
        if floor < 0 and data == bytes(len(data)):
            return True
        return any(data == versions[v]
                   for v in range(max(floor, 0), len(versions)))

    def final_mismatches(self, stores: Dict[int, Any],
                         sector_size: int) -> List[str]:
        """Compare each data disk with the last acknowledged contents."""
        expected: Dict[Tuple[int, int], bytes] = {}
        owner: Dict[Tuple[int, int], Key] = {}
        mixed = set()
        for key, data in self.ack_log:
            disk_id, lba, nsectors = key
            for index in range(nsectors):
                sector = (disk_id, lba + index)
                expected[sector] = data[index * sector_size:
                                        (index + 1) * sector_size]
                if owner.setdefault(sector, key) != key:
                    mixed.add(sector)
        problems = []
        for (disk_id, lba), data in expected.items():
            if stores[disk_id].read(lba, 1) != data:
                problems.append(f"disk {disk_id} sector {lba}: not the "
                                f"last acknowledged contents")
        # The per-read check compares whole extents; it is exact only
        # when no read extent overlaps a differently shaped write.
        for disk_id, lba, nsectors in self.read_keys:
            for sector in range(lba, lba + nsectors):
                key = owner.get((disk_id, sector))
                if key is not None and (key != (disk_id, lba, nsectors)
                                        or (disk_id, sector) in mixed):
                    problems.append(f"read extent {(disk_id, lba, nsectors)}"
                                    f" overlaps write extent {key}")
                    break
        return problems


class DriverProbe:
    """Records write/read latency and checks read bytes on one driver.

    Installed by replacing ``driver.write`` and ``driver.read`` with
    wrappers on the instance, so the database layer's own calls pass
    through it too.  ``backlog_max`` samples the write-back queue at
    every call.
    """

    def __init__(self, oracle: ContentOracle,
                 timed_disks: Optional[Set[int]] = None) -> None:
        self.oracle = oracle
        #: Disks whose write latency is recorded (None: every disk).
        self.timed_disks = timed_disks
        self.write_ms: List[float] = []
        self.read_ms: List[float] = []
        self.user_sectors = 0
        self.failures: List[str] = []
        self.backlog_max = 0

    def install(self, driver: Any) -> None:
        sim = driver.sim
        sector_size = driver.sector_size
        oracle = self.oracle
        write_ms = self.write_ms
        read_ms = self.read_ms
        failures = self.failures
        timed_disks = self.timed_disks
        writeback = driver.writeback
        write = driver.write
        read = driver.read

        def probed_write(lba: int, data: bytes, disk_id: int = 0) -> Any:
            event = write(lba, data, disk_id)
            pad = -len(data) % sector_size
            if pad:
                data = data + bytes(pad)
            nsectors = len(data) // sector_size
            key = (disk_id, lba, nsectors)
            version = oracle.write_issued(key, data)
            start = sim.now
            self.user_sectors += nsectors
            backlog = writeback.backlog
            if backlog > self.backlog_max:
                self.backlog_max = backlog

            timed = timed_disks is None or disk_id in timed_disks

            def acked(done: Any) -> None:
                if done.ok:
                    if timed:
                        write_ms.append(sim.now - start)
                    oracle.write_acked(key, version)
                elif not isinstance(done.exception, DiskHaltedError):
                    # Only a power cut may fail a write, and then it was
                    # never acknowledged.
                    failures.append(f"write {key} failed: "
                                    f"{done.exception!r}")
            event.add_callback(acked)
            return event

        def probed_read(lba: int, nsectors: int, disk_id: int = 0) -> Any:
            event = read(lba, nsectors, disk_id)
            key = (disk_id, lba, nsectors)
            floor = oracle.read_floor(key)
            start = sim.now
            backlog = writeback.backlog
            if backlog > self.backlog_max:
                self.backlog_max = backlog

            def done(finished: Any) -> None:
                if not finished.ok:
                    failures.append(f"read {key} failed: "
                                    f"{finished.exception!r}")
                    return
                read_ms.append(sim.now - start)
                if not oracle.read_ok(key, floor, finished.value):
                    failures.append(f"read {key} returned wrong bytes")
            event.add_callback(done)
            return event

        driver.write = probed_write
        driver.read = probed_read


class IoCollector:
    """Collects each disk command's IoResult, by drive role.

    Installed by replacing ``submit`` on each drive instance; the
    drive's own ``read``/``write`` call ``self.submit`` and so pass
    through it.
    """

    def __init__(self) -> None:
        self.results: Dict[str, List[Any]] = {"log": [], "data": []}

    def install(self, drive: Any, role: str) -> None:
        submit = drive.submit
        results = self.results[role]

        def collect(done: Any) -> None:
            if done.ok:
                results.append(done.value)

        def probed_submit(*args: Any, **kwargs: Any) -> Any:
            process = submit(*args, **kwargs)
            process.add_callback(collect)
            return process

        drive.submit = probed_submit

    def mark(self) -> Tuple[int, int]:
        return len(self.results["log"]), len(self.results["data"])

    def since(self, mark: Tuple[int, int]) -> Dict[str, List[Any]]:
        return {"log": self.results["log"][mark[0]:],
                "data": self.results["data"][mark[1]:]}


class SpeedProbe:
    """Host time rescaled by how fast this CPU runs Python right now.

    On a shared host the CPU's speed swings by half within seconds, so
    raw host seconds of two runs are not comparable.  While started, a
    SIGALRM handler times a fixed pure-Python loop every 20 ms; the
    program time between two samples is divided by the loop duration
    measured at the end of it, and reported in *reference seconds*:
    the time the program would take if the loop took REFERENCE_LOOP_S.
    Handler time itself is excluded.  The handler never touches the
    simulation.
    """

    INTERVAL_S = 0.02
    #: One loop's duration on the reference host: fixes the scale of a
    #: reference second (about a host second when the CPU runs fast).
    REFERENCE_LOOP_S = 250e-6

    def __init__(self) -> None:
        #: (perf_counter at the end of a sample, loop duration in s)
        self.samples: List[Tuple[float, float]] = []
        self._previous: Any = None

    @staticmethod
    def loop() -> int:
        table: Dict[int, int] = {}
        total = 0
        for index in range(2000):
            table[index & 255] = index
            total += table.get((index * 7) & 255, 0)
        return total

    def _sample(self, _signum: int, _frame: Any) -> None:
        start = time.perf_counter()
        self.loop()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self, start: float, end: float) -> float:
        """Program time in [start, end], in reference seconds."""
        total = 0.0
        left = float("-inf")
        for when, duration in self.samples:
            low, high = max(left, start), min(when - duration, end)
            if high > low:
                total += (high - low) / duration
            left = when
        if self.samples and end > max(left, start):
            total += (end - max(left, start)) / self.samples[-1][1]
        return total * self.REFERENCE_LOOP_S


def decomposition_errors(results: List[Any]) -> int:
    """Commands whose queue+overhead+seek+rotation+transfer != latency."""
    bad = 0
    for io in results:
        parts = (io.queue_ms + io.overhead_ms + io.seek_ms
                 + io.rotation_ms + io.transfer_ms)
        if abs(parts - io.latency_ms) > 1e-6:
            bad += 1
    return bad


def _layer_of(filename: str) -> str:
    parts = filename.replace(os.sep, "/").split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            package = parts[index + 1]
            return package if package in LAYERS else "other"
    return "other"


def profile_by_layer(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Self time (s) and call counts of a profile, bucketed by layer.

    ``other`` holds the stdlib, builtins, the few ``repro`` modules
    outside the five layers, and this benchmark's own hooks.
    """
    buckets = {layer: {"self_s": 0.0, "calls": 0}
               for layer in LAYERS + ("other",)}
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, _name), (_cc, calls, self_s, _cum, _callers) \
            in stats.items():
        bucket = buckets[_layer_of(filename)]
        bucket["self_s"] += self_s
        bucket["calls"] += calls
    return buckets


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
