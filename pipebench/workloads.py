"""The three workloads, each a ``(generator, params, seed)`` triple.

Every workload has the same parts, sized from the run length:

* ``inputs(seed)`` — the generated inputs the program receives (the seed
  itself never reaches the program except through them);
* ``prepare(seed, root)`` — the set-up body a fresh interpreter runs;
* ``repetition(inputs, root, seed)`` — one pass of the workload's
  pipeline into a fresh store, returning its outputs for the gates;
* ``templates(inputs)`` — the request shapes of the read/write mix that
  follows the pipeline (see :mod:`pipebench.ops`).

Why each workload exists is in ``BENCHMARK.json``.  Every workload's scan
template costs a few milliseconds on its store (census: latency per model,
device and backend; fleet: per user; serve: per device and target on a
denser store), so that the pooled read p99 lies among scans, which the
program's work dominates, rather than among sub-millisecond requests,
whose p99 the host's scheduling jitter dominates.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, NamedTuple, Optional

from pipebench.ops import COMMITTED_USERS, Templates


def digest(obj: Any) -> str:
    """SHA-256 of a canonical JSON rendering (floats in full precision)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=float)
    return hashlib.sha256(text.encode()).hexdigest()


def store_layout(root: Path) -> dict:
    """Deterministic shape of a store on disk: segments, rows and bytes."""
    from repro.store import ResultStore

    store = ResultStore(root)
    files = [path for path in root.rglob("*") if path.is_file()]
    return {"segments": len(store.segments), "rows": store.num_rows(),
            "bytes": sum(path.stat().st_size for path in files)}


class Rep(NamedTuple):
    """Outputs of one pipeline repetition."""

    #: Canonical digest of the report tables the repetition produced.
    tables: str
    #: Deterministic counts that must repeat exactly.
    counts: dict
    #: Gate violations (empty when the repetition is correct).
    violations: tuple[str, ...]
    #: Extra outputs an in-memory cross-check needs.
    extra: Optional[dict] = None


_FLEET_SCAN = (("kind", "fleet_events"), ("where", "latency_ms>{u}"),
               ("where", f"user_id>={COMMITTED_USERS}"),
               ("group_by", "device_name,target"),
               ("agg", "latency_ms:mean,p99"), ("agg", "energy_mj:sum"))
#: The fleet's per-user tail latency: one group per user.
_FLEET_USER_SCAN = (("kind", "fleet_events"), ("where", "latency_ms>{u}"),
                    ("where", f"user_id>={COMMITTED_USERS}"),
                    ("group_by", "user_id"), ("agg", "latency_ms:p99"))
_FLEET_LOOKUP = (("kind", "fleet_events"), ("where", "user_id=={k}"),
                 ("where", "time_s>={u}"), ("agg", "latency_ms:mean,max"),
                 ("agg", "energy_mj:sum"))


def _fleet_tables(store) -> dict:
    """The tables `repro fleet --cloud-capacity --store` prints."""
    from repro.cloud import load_report
    from repro.fleet import (battery_drain_ecdf, offload_summary,
                             tail_latency_table)

    return {
        "tail_latency": tail_latency_table(store, group_by="device_name"),
        "cloud_tail": tail_latency_table(store, group_by="region",
                                         target="cloud"),
        "drain": list(battery_drain_ecdf(store).quantiles((0.5, 0.9))),
        "offload": offload_summary(store),
        "load": load_report(store),
    }


# --------------------------------------------------------------------------- #
# census_sweep
# --------------------------------------------------------------------------- #
class CensusSweep:
    """The paper's Fig. 1 pipeline: census, persistence, device sweep, tables."""

    name = "census_sweep"
    generator = "repro.android.appgen:AppGenerator"
    scale = 0.1
    #: The snapshot's APK bytes swing with its seed (21-32 MB over seeds
    #: 11-15 at this scale, analysis time with them), so the census runs on
    #: one fixed snapshot; the workload seed drives the sweep, the operation
    #: sequence and the committed batches.
    snapshot_seed = 0
    batch_sizes = (1, 8)
    #: Nominal seconds of one repetition and of one read of the mix, and
    #: the share of the run given to the mix; they size a run.
    rep_cost_s = 2.4
    read_cost_s = 0.0046
    read_share = 0.5

    def params(self) -> dict:
        return {"snapshot": "2021", "scale": self.scale,
                "snapshot_seed": self.snapshot_seed,
                "devices": "DEVICE_FLEET (6)", "backends": "all",
                "batch_sizes": list(self.batch_sizes)}

    def inputs(self, seed: int):
        from repro.android import AppGenerator, GeneratorConfig, PlayStore
        from repro.android.appgen import ModelPool

        config = dataclasses.replace(
            GeneratorConfig.snapshot_2021(scale=self.scale),
            seed=self.snapshot_seed)
        return PlayStore([AppGenerator(config, ModelPool()).generate()])

    def prepare(self, seed: int, root: Path) -> None:
        self.inputs(seed)

    def _sweep(self, analysis, seed: int):
        from repro import GaugeNN
        from repro.devices.device import DEVICE_FLEET
        from repro.runtime import Backend, SweepRunner, SweepSpec

        spec = SweepSpec(devices=DEVICE_FLEET,
                         graphs=tuple(GaugeNN.unique_graphs(analysis)),
                         backends=tuple(Backend),
                         batch_sizes=self.batch_sizes, seed=seed)
        return SweepRunner(spec)

    @staticmethod
    def store_tables(server, devices) -> dict:
        """Figs. 8/9/10/15 served from the store."""
        return {
            "fig8": {d: sorted(server.latency_vs_flops(d)) for d in devices},
            "fig9": {d: list(e.values)
                     for d, e in server.latency_ecdf_by_device().items()},
            "fig10": server.energy_distributions(),
            "fig15": server.cloud_api_usage(),
        }

    @staticmethod
    def memory_tables(analysis, results) -> dict:
        """The same figures from the in-memory results (the reference)."""
        from repro.core import reports

        by_device: dict[str, list] = {}
        for result in results:
            by_device.setdefault(result.device_name, []).append(result)
        return {
            "fig8": {d: sorted(reports.latency_vs_flops(rs))
                     for d, rs in by_device.items()},
            "fig9": {d: list(e.values) for d, e in
                     reports.latency_ecdf_by_device(by_device).items()},
            "fig10": reports.energy_distributions(by_device),
            "fig15": reports.cloud_api_usage(analysis),
        }

    def repetition(self, playstore, root: Path, seed: int) -> Rep:
        from repro import GaugeNN
        from repro.store import ReportServer, ResultStore

        analysis = GaugeNN(playstore).analyze_snapshot("2021")
        store = ResultStore(root)
        GaugeNN.persist_snapshot(analysis, store)
        results: list = []
        self._sweep(analysis, seed).run_to_store(store,
                                                  on_result=results.append)
        devices = sorted({result.device_name for result in results})
        tables = self.store_tables(ReportServer(store), devices)
        return Rep(digest(tables), {"jobs": len(results)}, (),
                   {"analysis": analysis, "results": results})

    def check_reference(self, rep: Rep) -> list[str]:
        """Store-served tables must equal the in-memory path."""
        extra = rep.extra or {}
        reference = digest(self.memory_tables(extra["analysis"],
                                              extra["results"]))
        if reference != rep.tables:
            return ["census tables served from the store differ from the "
                    "in-memory path"]
        return []

    def templates(self, playstore) -> Templates:
        packages = tuple(sorted(playstore.snapshot("2021").listings))
        return Templates(
            # Latency per model, device and backend (the sweep's table).
            scan=(("kind", "executions"), ("where", "latency_ms>{u}"),
                  ("group_by", "model_name,device_name,backend"),
                  ("agg", "latency_ms:mean,p99"), ("agg", "energy_mj:sum")),
            lookup=(("kind", "apps"), ("where", "package=={k}"),
                    ("where", "downloads>{u}"), ("agg", "downloads:sum"),
                    ("agg", "rating:mean")),
            keys=packages,
            report="/v1/report/latency_ecdf",
        )


# --------------------------------------------------------------------------- #
# fleet_sparse
# --------------------------------------------------------------------------- #
class FleetSparse:
    """`repro fleet --cloud-capacity --store` on the sparse Ambient fleet."""

    name = "fleet_sparse"
    generator = "repro.campaign.workloads:ambient_spec"
    users = 3000
    horizon_s = 86400.0
    rep_cost_s = 2.4
    read_cost_s = 0.0062
    read_share = 0.5

    def params(self) -> dict:
        return {"num_users": self.users, "horizon_s": self.horizon_s,
                "capacity": "CapacityModel()",
                "interference": "InterferenceConfig()",
                "rows_per_segment": 8192}

    def inputs(self, seed: int):
        from repro.campaign import ambient_spec

        return ambient_spec(self.users, seed=seed, horizon_s=self.horizon_s)

    def prepare(self, seed: int, root: Path) -> None:
        self.inputs(seed)

    def repetition(self, spec, root: Path, seed: int) -> Rep:
        from repro.cloud import CapacityModel, InterferenceSimulator
        from repro.fleet import queue_summary
        from repro.store import ResultStore

        store = ResultStore(root)
        rows, result = InterferenceSimulator(
            spec, CapacityModel()).run_to_store(store)
        queue = queue_summary(store, expected_arrived=result.arrived)
        tables = _fleet_tables(store)
        tables["queue"] = queue
        violations = []
        if not result.converged:
            violations.append("cloud fixed point did not converge")
        if not queue["conserved"]:
            violations.append(f"queue conservation violated: {queue}")
        return Rep(digest(tables), {"passes": result.passes, "events": rows},
                   tuple(violations))

    def templates(self, spec) -> Templates:
        return Templates(scan=_FLEET_USER_SCAN, lookup=_FLEET_LOOKUP,
                         keys=tuple(range(COMMITTED_USERS, self.users)),
                         report="/v1/report/tail_latency")


# --------------------------------------------------------------------------- #
# serve_mixed
# --------------------------------------------------------------------------- #
class ServeMixed:
    """`repro serve` over a dense fleet + sweep store, with commits."""

    name = "serve_mixed"
    generator = "repro.campaign.workloads:zoo_spec + repro.runtime:SweepSpec"
    users = 30
    #: The dense zoo population's event count is heavy-tailed in its seed
    #: (a few video-call users dominate), so the served base store is one
    #: fixed population; the workload seed drives the sweep, the operation
    #: sequence and the committed batches.
    fleet_seed = 0
    horizon_s = 86400.0
    rep_cost_s = 0.32
    read_cost_s = 0.0033
    read_share = 0.75

    def params(self) -> dict:
        return {"num_users": self.users, "fleet_seed": self.fleet_seed,
                "horizon_s": self.horizon_s,
                "capacity": "CapacityModel()",
                "sweep": "DEVICE_FLEET x zoo_population() graphs, cpu",
                "serve": "defaults, --port 0 --refresh 0.02"}

    def inputs(self, seed: int):
        from repro.campaign.workloads import zoo_spec
        from repro.devices.device import DEVICE_FLEET
        from repro.fleet import zoo_population
        from repro.runtime import SweepSpec

        fleet = zoo_spec(self.users, seed=self.fleet_seed,
                         horizon_s=self.horizon_s)
        sweep = SweepSpec(devices=DEVICE_FLEET,
                          graphs=tuple(g for g, _ in zoo_population()),
                          seed=seed)
        return fleet, sweep

    def repetition(self, inputs, root: Path, seed: int) -> Rep:
        from repro.cloud import CapacityModel, InterferenceSimulator
        from repro.runtime import SweepRunner
        from repro.store import ResultStore

        fleet, sweep = inputs
        store = ResultStore(root)
        rows, result = InterferenceSimulator(
            fleet, CapacityModel()).run_to_store(store)
        jobs = SweepRunner(sweep).run_to_store(store)
        violations = () if result.converged else (
            "cloud fixed point did not converge",)
        return Rep("", {"passes": result.passes, "events": rows,
                        "jobs": jobs}, violations)

    def prepare(self, seed: int, root: Path) -> None:
        rep = self.repetition(self.inputs(seed), root, seed)
        if rep.violations:
            raise RuntimeError("; ".join(rep.violations))

    def templates(self, inputs) -> Templates:
        return Templates(scan=_FLEET_SCAN, lookup=_FLEET_LOOKUP,
                         keys=tuple(range(COMMITTED_USERS, self.users)),
                         report="/v1/report/tail_latency")


WORKLOADS = {workload.name: workload
             for workload in (CensusSweep, FleetSparse, ServeMixed)}
