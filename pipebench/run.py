"""Pipeline benchmark of the gaugeNN reproduction.

Usage::

    python3 pipebench/run.py --workload census_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/repro``.  A run:

1. times ``SETUPS`` fresh-interpreter set-ups of the workload
   (``setup_s`` is their median);
2. runs the workload's pipeline a fixed number of times, each on fresh
   inputs into a fresh store (``pipeline_s`` is the median), gating every
   repetition;
3. runs a seeded, fixed read/write mix (:mod:`pipebench.ops`) over HTTP
   against a ``repro serve`` process: for ``serve_mixed`` the server of the
   first set-up, for ``census_sweep`` and ``fleet_sparse`` one started over
   a copy of the first repetition's store.  The server runs only while the
   mix does (it is stopped with SIGSTOP in between), on a CPU of its own,
   the client on another;
4. checks responses against offline recomputations, and checks that the
   deterministic counts repeat across repetitions and across runs with
   the same arguments and the same code.

The amount of work is a function of ``--seconds`` and the workload alone,
so every run with the same arguments does exactly the same operations.
The host's speed drifts by tens of percent between runs, so end-to-end
times and rates are printed at a nominal host speed: the run samples a
fixed reference computation after every epoch of the mix and every
repetition, while the server is stopped, and scales each measured value
by the ratio of :data:`pipebench.hostspeed.NOMINAL_S` to the reference's
median
(:func:`pipebench.hostspeed.at_nominal_speed`).  The values as measured,
and that median, are in the environment block.

With ``--trace 1`` the layer probes are installed (every other pipeline
repetition, the whole mix, and inside the server) and the per-layer
ledger, as measured, is printed instead of the end-to-end metrics.  The
last line of standard output is the JSON result; the line before it is
the environment block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from pipebench import stats  # noqa: E402
from pipebench.client import (HttpExecutor, ServerProcess,  # noqa: E402
                              program_env)
from pipebench.hostspeed import (at_nominal_speed,  # noqa: E402
                                 reference_seconds)
from pipebench.ops import WRITE_ROWS, operation_sequence, warmup_targets  # noqa: E402
from pipebench.probes import PROBES, per_layer_catalog  # noqa: E402
from pipebench.tracer import Tracer, install, ledger  # noqa: E402
from pipebench.workloads import WORKLOADS, digest, store_layout  # noqa: E402

#: Fresh-interpreter set-ups per run.
SETUPS = 3
#: Commits (and so generations, and reports) in the read/write mix: enough
#: samples for the write and report medians, while the 32-row commits stay
#: a small share of every base store, so the store the last reads see is
#: nearly the store the first reads saw.
EPOCHS = 48
#: Reads per block of the pooled p99, the fewest that carry a p99 with ten
#: reads beyond it: ``read_p99_ms`` is the median of the p99s of
#: consecutive blocks of at least this many reads, so that a burst of host
#: load moves one block's p99 rather than the run's.
P99_BLOCK = 1000
#: Every n-th read is recomputed offline; every report is.
SAMPLE_EVERY = 25
#: Untimed reads that warm the server up before the sequence starts.
WARMUP_READS = 40
#: `repro serve --refresh` of the served workload.
REFRESH_S = 0.02
#: Reference computations per host-speed sample.
HOST_SAMPLES = 3
#: Clock-rounding tolerance of the per-thread ledger check (seconds).
CLOSURE_EPS_S = 1e-6

_clock = time.perf_counter

#: With two CPUs or more, the mix's client runs on the first and every
#: `repro serve` on the second, so neither waits for the other's CPU.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPU, SERVER_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) >= 2 else (
    None, None)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref
    return ref


def code_digest() -> str:
    """SHA-256 over the program's sources and the benchmark's own files:
    deterministic counts are only comparable between runs of the same code."""
    sha = hashlib.sha256()
    for top in ("src", "pipebench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                sha.update(str(path.relative_to(ROOT)).encode() + b"\0")
                sha.update(path.read_bytes() + b"\0")
    return sha.hexdigest()


def environment(workload, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "workload": {"name": workload.name, "generator": workload.generator,
                     "params": workload.params(), "seed": seed},
        "seconds": seconds,
        "trace": trace,
    }


def shape(workload, seconds: int) -> tuple[int, int, int]:
    """``(repetitions, epochs, epoch_len)`` of a run of ``seconds``."""
    reps = max(2, round(seconds * (1 - workload.read_share)
                        / workload.rep_cost_s))
    reads = round(seconds * workload.read_share / workload.read_cost_s)
    return reps, EPOCHS, max(3, reads // EPOCHS + 2)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def interleave(epochs: int, reps: int, setups: int
               ) -> dict[int, list[tuple[str, int]]]:
    """Spread repetitions ``1..reps`` and set-ups ``1..setups`` evenly
    over the mix: epoch -> tasks to run after it."""
    tasks = [((index + 1) / (reps + 1), "rep", index + 1)
             for index in range(reps)]
    tasks += [((index + 0.5) / setups, "setup", index + 1)
              for index in range(setups)]
    schedule: dict[int, list[tuple[str, int]]] = {}
    for position, kind, index in sorted(tasks):
        epoch = min(epochs - 1, int(position * epochs))
        schedule.setdefault(epoch, []).append((kind, index))
    return schedule


class Bench:
    """One run of one workload."""

    def __init__(self, name: str, seed: int, seconds: int,
                 trace: bool) -> None:
        self.workload = WORKLOADS[name]()
        self.seed = seed
        self.seconds = seconds
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.work = ROOT / ".pipebench" / f"work-{os.getpid()}"
        self.log = self.work / "program.log"
        self.attempted = 0
        self.failed = 0
        #: Gate violations of the run as a whole (not of one operation).
        self.errors: list[str] = []
        self.fingerprint: dict = {}
        self.metrics: dict[str, tuple[float, str]] = {}
        #: The measured `repro serve` (served workload only).
        self.server: Optional[ServerProcess] = None
        self.server_trace = self.work / "server-trace.json"
        self.setup_layout: Optional[dict] = None
        #: Repetition seconds, untraced (False) and traced (True).
        self.rep_s: dict[bool, list[float]] = {False: [], True: []}
        self.previous_rep: Optional[Path] = None
        #: Reference-computation seconds sampled through the run.
        self.host_s: list[float] = []

    # ------------------------------------------------------------------ #
    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"pipebench: FAILED: {message}", file=sys.stderr)

    def error(self, message: str) -> None:
        self.errors.append(message)
        print(f"pipebench: ERROR: {message}", file=sys.stderr)

    def traced(self):
        """Install the probes and mark a traced region (no-op untraced)."""
        if self.tracer is None:
            return nullcontext()
        return _Traced(self.tracer)

    # ------------------------------------------------------------------ #
    def run(self) -> dict:
        """Set-ups, repetitions and mix epochs, interleaved over the run.

        The host's speed drifts over seconds, so every metric draws its
        samples from the whole run rather than from one block of it.
        """
        reps, epochs, epoch_len = shape(self.workload, self.seconds)
        self.work.mkdir(parents=True)
        try:
            serving = self.workload.name == "serve_mixed"
            setup_s = [self.setup(0, keep_server=serving)]
            self.rep(0)
            if serving:
                mix_root = self.work / "setup-0"
            else:
                # The mix commits into its own copy of the first repetition.
                mix_root = self.work / "mix"
                shutil.copytree(self.work / "rep-0", mix_root)
                self.server = self.serve(mix_root, measured=True)
                self.server.pause()
            layout = store_layout(mix_root)
            self.record("store_bytes_per_row",
                        layout["bytes"] / layout["rows"], "B/row")
            self.fingerprint["mix_store"] = layout
            mix = _Mix(self, mix_root, epochs, epoch_len)
            schedule = interleave(epochs, reps - 1, SETUPS - 1)
            for epoch in range(epochs):
                mix.epoch(epoch)
                self.sample_host()
                for kind, index in schedule.get(epoch, ()):
                    if kind == "rep":
                        self.rep(index)
                    else:
                        setup_s.append(self.setup(index))
            mix.finish()
            self.record("setup_s", stats.median(setup_s), "s")
            self.record("pipeline_s", stats.median(self.rep_s[False]), "s")
            if self.rep_s[True]:
                self.record("trace.overhead_ratio",
                            stats.median(self.rep_s[True])
                            / stats.median(self.rep_s[False]) - 1, "ratio")
            self.score(mix)
            if self.tracer is not None:
                self.per_layer(mix)
            self.check_fingerprint()
        finally:
            if self.server is not None:
                self.server.stop()
            shutil.rmtree(self.work, ignore_errors=True)
        return self.result()

    def record(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def sample_host(self) -> None:
        """Time the reference computation; the measured server is paused
        here, like everywhere outside the mix (see :meth:`serving`)."""
        self.host_s += [reference_seconds() for _ in range(HOST_SAMPLES)]

    @contextmanager
    def serving(self):
        """Let the measured server run for the duration of the block, with
        this (client) thread on :data:`CLIENT_CPU`."""
        if CLIENT_CPU is not None:
            os.sched_setaffinity(0, {CLIENT_CPU})
        self.server.resume()
        try:
            yield
        finally:
            self.server.pause()
            if CLIENT_CPU is not None:
                os.sched_setaffinity(0, _CPUS)

    def serve(self, root: Path, *, measured: bool) -> ServerProcess:
        """Start `repro serve` over ``root``; only the measured server is
        traced."""
        trace_out = self.server_trace if (
            measured and self.tracer is not None) else None
        return ServerProcess(ROOT, root, self.log, refresh_s=REFRESH_S,
                             trace_out=trace_out, cpu=SERVER_CPU)

    # ------------------------------------------------------------------ #
    # Set-up
    # ------------------------------------------------------------------ #
    def setup(self, index: int, *, keep_server: bool = False) -> float:
        """One timed fresh-interpreter set-up; for the served workload it
        ends when `/v1/health` answers.  With ``keep_server`` the server
        stays up as the one the mix measures."""
        root = self.work / f"setup-{index}"
        start = _clock()
        with open(self.log, "ab") as log:
            subprocess.run(
                [sys.executable, str(ROOT / "pipebench" / "prepare.py"),
                 self.workload.name, str(self.seed), str(root)],
                cwd=ROOT, env=program_env(ROOT), check=True,
                stdout=subprocess.DEVNULL, stderr=log)
        if self.workload.name != "serve_mixed":
            return _clock() - start
        server = self.serve(root, measured=keep_server)
        try:
            server.wait_healthy()
            elapsed = _clock() - start
        finally:
            if keep_server:
                self.server = server
                server.pause()
            else:
                server.stop()
        layout = store_layout(root)
        if index == 0:
            self.setup_layout = layout
        else:
            if layout != self.setup_layout:
                self.error(f"set-up {index} built {layout}, set-up 0 built "
                           f"{self.setup_layout}")
            shutil.rmtree(root)
        return elapsed

    # ------------------------------------------------------------------ #
    # Pipeline repetitions
    # ------------------------------------------------------------------ #
    def rep(self, index: int) -> None:
        """One gated repetition on fresh inputs into a fresh store."""
        from repro.store import ResultStore
        # Through the module, so that the call sees an installed probe.
        from repro.store import diff

        inputs = self.workload.inputs(self.seed)
        root = self.work / f"rep-{index}"
        # Traced runs alternate, so the tracing overhead is measured in-run.
        traced = self.tracer is not None and index % 2 == 1
        with (self.traced() if traced else nullcontext()):
            start = _clock()
            rep = self.workload.repetition(inputs, root, self.seed)
            elapsed = _clock() - start
            violations = list(rep.violations)
            if self.previous_rep is not None and \
                    self.workload.name == "fleet_sparse":
                for kind in ("fleet_events", "fleet_load"):
                    if not diff.diff_kind(ResultStore(self.previous_rep),
                                          ResultStore(root),
                                          diff.spec_for(kind)).identical:
                        violations.append(
                            f"{kind} differs from the previous repetition")
        self.rep_s[traced].append(elapsed)
        self.attempted += 1
        self.sample_host()
        check = getattr(self.workload, "check_reference", None)
        if check is not None:
            violations += check(rep)
        counts = {"tables": rep.tables, **rep.counts, **store_layout(root)}
        reference = self.fingerprint.setdefault("repetition", counts)
        if counts != reference:
            violations.append(f"counts {counts} != first repetition's "
                              f"{reference}")
        if violations:
            self.fail(f"repetition {index}: {'; '.join(violations)}")
        if self.previous_rep is not None:
            shutil.rmtree(self.previous_rep)
        self.previous_rep = root

    def score(self, mix: "_Mix") -> None:
        """End-to-end read/write metrics, plus every correctness gate."""
        root, ops, latencies = mix.root, mix.ops, mix.latencies
        responses, generations, cache = mix.responses, mix.generations, \
            mix.cache
        by_class: dict[str, list[float]] = {}
        for op, latency in zip(ops, latencies):
            by_class.setdefault(op.cls, []).append(latency)
        reads = [latency for op, latency in zip(ops, latencies)
                 if op.cls != "write"]
        blocks = max(1, len(reads) // P99_BLOCK)
        if stats.tail_percentile(len(reads) // blocks) < 99.0:
            self.error(f"{len(reads)} reads cannot support a p99; "
                       f"run longer")
        self.record("read_qps", len(reads) / sum(reads), "1/s")
        self.record("read_p99_ms",
                    stats.block_percentile(reads, 99.0, blocks) * 1e3, "ms")
        for cls in ("hit", "scan", "lookup", "report", "write"):
            self.record(f"{cls}_p50_ms", stats.median(by_class[cls]) * 1e3,
                        "ms")

        offline = _Offline(root)
        per_class: dict[str, dict[str, int]] = {}
        for op, (status, summary, body) in zip(ops, responses):
            if op.cls == "write":
                continue
            if status != 200:
                self.fail(f"op {op.index} ({op.cls}) answered {status}")
                continue
            expected = generations[op.epoch]
            if summary["generation"] != expected:
                self.fail(f"op {op.index} ({op.cls}) served generation "
                          f"{summary['generation']}, expected {expected}")
                continue
            if op.cls in ("scan", "lookup"):
                totals = per_class.setdefault(op.cls, {})
                for key, value in summary["stats"].items():
                    totals[key] = totals.get(key, 0) + value
                totals["rows_returned"] = (totals.get("rows_returned", 0)
                                           + summary["rows"])
            if body is not None:
                if offline.body(expected, op.target) != body:
                    self.fail(f"op {op.index} ({op.cls}) differs from the "
                              f"offline recomputation at generation "
                              f"{expected}")
        self.per_class = per_class

        hits = len(by_class.get("hit", ()))
        misses = len(reads) - hits + len(mix.warmup)
        result = cache["result"]
        if (result["hits"], result["misses"]) != (hits, misses):
            self.error(f"result cache hits/misses {result['hits']}/"
                       f"{result['misses']}, sequence implies {hits}/{misses}")
        self.fingerprint["mix"] = {
            "per_class": per_class, "generations": generations,
            "cache": {tier: {k: v for k, v in entry.items()
                             if k in ("hits", "misses")}
                      for tier, entry in cache.items()},
            "store": store_layout(root),
        }

    # ------------------------------------------------------------------ #
    # 4. per-layer ledger
    # ------------------------------------------------------------------ #
    def per_layer(self, mix: "_Mix") -> None:
        """Self times, counts and ratios of the traced run, client and
        server process merged."""
        book = ledger(self.tracer.finished(), self.tracer.regions)
        self_s, total_s = dict(book.self_s), dict(book.total_s)
        counts = dict(self.tracer.counts)
        threads = list(book.threads.values())
        if self.server_trace.exists():
            server = json.loads(self.server_trace.read_text())
            for mine, theirs in ((self_s, server["self_s"]),
                                 (total_s, server["total_s"]),
                                 (counts, server["counts"])):
                for name, value in theirs.items():
                    mine[name] = mine.get(name, 0) + value
            threads += [tuple(entry) for entry in server["threads"]]
        else:
            self.error("the server wrote no trace")
        # Layer self times plus unattributed time make up each thread's
        # wall time; a negative remainder would mean double-counted time.
        for wall, attributed, unattributed in threads:
            if unattributed < -CLOSURE_EPS_S:
                self.error(f"layer self times {attributed} s exceed the "
                           f"thread's traced wall time {wall} s")

        for layer, value in self_s.items():
            self.record(f"{layer}_s", value, "s")
        self.record("serve.http_s", total_s.get("serve.client", 0.0)
                    - total_s.get("serve.dispatch", 0.0), "s")
        self.record("trace.unattributed_s",
                    sum(entry[2] for entry in threads), "s")
        for name, value in counts.items():
            self.record(name, value, "count")
        totals = {key: sum(self.per_class.get(cls, {}).get(key, 0)
                           for cls in ("scan", "lookup"))
                  for key in ("segments_scanned", "segments_skipped",
                              "rows_scanned", "rows_returned")}
        for cls in ("scan", "lookup"):
            for key in ("segments_scanned", "segments_skipped"):
                self.record(f"query.{cls}_{key}",
                            self.per_class.get(cls, {}).get(key, 0), "count")
        for key in ("segments_scanned", "segments_skipped"):
            self.record(f"query.{key}", totals[key], "count")
        self.record("query.rows_scanned_per_returned",
                    _ratio(totals["rows_scanned"], totals["rows_returned"]),
                    "ratio")
        self.record("core.valid_ratio",
                    _ratio(counts.get("core.validated", 0),
                           counts.get("core.candidates", 0)), "ratio")
        self.record("runtime.jobs_kept_ratio",
                    _ratio(counts.get("runtime.jobs", 0),
                           counts.get("runtime.combinations", 0)), "ratio")
        for tier in ("result", "segment"):
            entry = mix.cache[tier]
            self.record(f"serve.{tier}_hit_ratio",
                        _ratio(entry["hits"], entry["hits"] + entry["misses"]),
                        "ratio")

    # ------------------------------------------------------------------ #
    def check_fingerprint(self) -> None:
        """Deterministic counts must repeat across runs of the same code
        with the same arguments.  Only a run that passed every other gate
        leaves its counts for later runs to match."""
        directory = ROOT / ".pipebench" / "fingerprints"
        path = directory / (f"{self.workload.name}-seed{self.seed}"
                            f"-s{self.seconds}-{code_digest()[:16]}.json")
        current = json.loads(json.dumps(self.fingerprint))
        if path.exists():
            earlier = json.loads(path.read_text())
            if earlier != current:
                self.error(f"deterministic counts differ from an earlier run "
                           f"({digest(earlier)[:12]} != "
                           f"{digest(current)[:12]}, see {path})")
        elif self.failed == 0 and not self.errors:
            directory.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(current, sort_keys=True))

    def result(self) -> dict:
        """The printed result; end-to-end times at the nominal host speed."""
        reference_s = stats.median(self.host_s)
        if self.tracer is not None:
            wanted = per_layer_catalog()
        else:
            wanted = [(metric["name"], metric["unit"]) for metric in
                      json.loads((ROOT / "BENCHMARK.json").read_text())
                      ["end_to_end"]]
        metrics = {}
        for name, unit in wanted:
            value, _ = self.metrics.get(name, (0.0, unit))
            if self.tracer is None:
                value = at_nominal_speed(value, unit, reference_s)
            metrics[name] = {"value": value, "unit": unit}
        return {"correct": self.failed == 0 and not self.errors,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


class _Mix:
    """The seeded read/write mix against one store, run epoch by epoch."""

    def __init__(self, bench: Bench, root: Path, epochs: int,
                 epoch_len: int) -> None:
        from repro.campaign import synthetic_fleet_batch
        from repro.store import ResultStore, StoreWriter

        workload = bench.workload
        self.bench = bench
        self.root = root
        self.epoch_len = epoch_len
        templates = workload.templates(workload.inputs(bench.seed))
        self.ops = operation_sequence(bench.seed, epochs, epoch_len,
                                      templates)
        self.batches = [synthetic_fleet_batch(epoch, WRITE_ROWS,
                                              seed=bench.seed)
                        for epoch in range(epochs)]
        self.executor = HttpExecutor(bench.server.host, bench.server.port,
                                     bench.tracer)
        self.warmup = warmup_targets(bench.seed, WARMUP_READS, templates)
        # Traced like the mix: the client's spans must fall in a region.
        with bench.serving(), bench.traced():
            for target in self.warmup:
                status, _ = self.executor.get(target)
                if status != 200:
                    bench.fail(f"warm-up read {target} answered {status}")
        self.writer = StoreWriter(ResultStore(root))
        self.latencies: list[float] = []
        #: Per operation: status, the fields scoring reads, and the exact
        #: bytes of the sampled responses (see :meth:`_keep`).
        self.responses: list[tuple[int, Optional[dict], Optional[bytes]]] = []
        #: Generation committed by each epoch's write.
        self.generations: list[int] = []
        self.cache: dict = {}

    def epoch(self, epoch: int) -> None:
        ops = self.ops[epoch * self.epoch_len:(epoch + 1) * self.epoch_len]
        with self.bench.serving(), self.bench.traced():
            for op in ops:
                if op.cls == "write":
                    start = _clock()
                    self.writer.append_batch("fleet_events",
                                             self.batches[op.epoch])
                    self.writer.flush()
                    self.latencies.append(_clock() - start)
                    self.generations.append(self.writer.store.generation)
                    self.responses.append((200, None, None))
                    self.executor.advance(self.generations[-1])
                else:
                    start = _clock()
                    status, body = self.executor.get(op.target)
                    self.latencies.append(_clock() - start)
                    self.responses.append(self._keep(op, status, body))
        self.bench.attempted += len(ops)

    @staticmethod
    def _keep(op, status: int, body: bytes):
        """What scoring needs of a response, so that the client does not
        hold every response body: the bytes of every report and of every
        :data:`SAMPLE_EVERY`-th read, the parsed fields of the rest."""
        if status != 200:
            return status, None, None
        payload = json.loads(body)
        summary = {"generation": payload.get("generation"),
                   "stats": payload.get("stats"),
                   "rows": len(payload.get("rows", ()))}
        sampled = op.cls == "report" or op.index % SAMPLE_EVERY == 0
        return status, summary, body if sampled else None

    def finish(self) -> None:
        """Close the writer, read the cache counters, stop the server.

        ``peak_rss_mb`` is the server's for ``serve_mixed``; the other
        workloads run their pipeline in this process, so it is this
        process's."""
        bench = self.bench
        self.writer.close()
        with bench.serving():
            self.cache = self.executor.cache_stats()
        self.executor.close()
        if bench.workload.name == "serve_mixed":
            bench.record("peak_rss_mb", bench.server.peak_rss_mb(), "MB")
        else:
            bench.record("peak_rss_mb", resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        bench.server.stop()
        bench.server = None


class _Traced:
    """Probes installed plus a traced region on the calling thread."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> None:
        self.uninstall = install(self.tracer, PROBES)
        self.region = self.tracer.region()
        self.region.__enter__()

    def __exit__(self, *exc_info) -> None:
        self.region.__exit__(*exc_info)
        self.uninstall()


class _Offline:
    """Uncached recomputation of a request at a pinned generation."""

    class _Pinned:
        def __init__(self, snapshot) -> None:
            from repro.store import ReportServer

            self.pair = (snapshot, ReportServer(snapshot))

        def current(self):
            return self.pair

    def __init__(self, root: Path) -> None:
        from repro.store import ResultStore

        self.store = ResultStore(root)
        self.routers: dict[int, object] = {}

    def body(self, generation: int, target: str) -> bytes:
        from repro.serve import QueryService, Router

        router = self.routers.get(generation)
        if router is None:
            snapshot = self.store.open_snapshot(generation=generation)
            router = Router(QueryService(self._Pinned(snapshot)))
            self.routers = {generation: router}
        status, payload = router.dispatch("GET", target)
        return json.dumps(payload).encode("utf-8")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the `finally` blocks, which stop the server, on SIGTERM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"pipebench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(bench.workload, args.seed, args.seconds,
                      bool(args.trace))
    result = bench.run()
    env["host_reference_ms"] = stats.median(bench.host_s) * 1e3
    env["measured"] = {name: value
                       for name, (value, _) in bench.metrics.items()}
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
