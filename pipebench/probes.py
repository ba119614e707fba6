"""Which public functions of ``repro`` the traced run wraps, and the
per-layer metric catalog the benchmark prints.

Every probe's layer name is also a printed ``<layer>_s`` self-time metric,
so the printed self times plus ``trace.unattributed_s`` close to the
traced wall time.  Counts are recorded by the probes' return hooks, or by
the workloads from responses and store statistics.
"""

from __future__ import annotations

from pipebench.tracer import Probe


def _count(name: str, of=None):
    def hook(tracer, args, kwargs, result):
        tracer.count(name, 1 if of is None else of(args, result))
    return hook


def _extracted(tracer, args, kwargs, result):
    tracer.count("core.apps")
    tracer.count("core.candidates", result.candidate_count)


def _jobs(tracer, args, kwargs, result):
    tracer.count("runtime.jobs", len(result))
    tracer.count("runtime.combinations", args[0].spec.num_combinations)


def _simulated(tracer, args, kwargs, result):
    tracer.count("fleet.users")
    tracer.count("fleet.events", result.num_events)


def _sealed(tracer, args, kwargs, result):
    tracer.count("store.segments_sealed")
    tracer.count("store.bytes_written",
                 (args[0] / result.data_filename).stat().st_size)


def _adopt_pool_parent(tracer, args, kwargs):
    """Pool worker threads record the submitting span as their cause."""
    if kwargs.get("use_processes"):
        return args, kwargs
    run_chunk, parent = args[0], tracer.current()

    def adopted(items):
        tracer.adopt(parent)
        try:
            return run_chunk(items)
        finally:
            tracer.adopt(None)
    return (adopted, *args[1:]), kwargs


PROBES = (
    # repro.android / repro.core / repro.formats: the census pipeline.
    Probe("android.download", "repro.android.playstore:PlayStore.download"),
    Probe("core.crawl", "repro.core.crawler:Crawler.crawl"),
    Probe("core.extract", "repro.core.extractor:ModelExtractor.extract",
          _extracted),
    Probe("core.validate", "repro.core.validator:ModelValidator.validate_many",
          _count("core.validated", lambda args, result: len(result))),
    Probe("core.model_analysis",
          "repro.core.model_analysis:ModelAnalyzer.analyze"),
    Probe("core.app_analysis", "repro.core.app_analysis:AppAnalyzer.analyze"),
    # repro.runtime: sweep and the shared fan-out.
    Probe("runtime.sweep", "repro.runtime.sweep:SweepRunner.compatible_jobs",
          _jobs),
    Probe("runtime.sweep", "repro.runtime.sweep:SweepRunner.run_to_store"),
    Probe("runtime.sweep", "repro.runtime.executor:Executor.run"),
    Probe("runtime.pool_wait", "repro.runtime.pool:iter_mapped_chunks",
          on_call=_adopt_pool_parent),
    # repro.fleet
    Probe("fleet.materialize", "repro.fleet.population:FleetSpec.materialize"),
    Probe("fleet.simulate_user",
          "repro.fleet.simulator:FleetSimulator.simulate_user", _simulated),
    Probe("fleet.column_batch", "repro.fleet.simulator:UserTrace.column_batch"),
    Probe("fleet.report", "repro.fleet.reports:tail_latency_table"),
    Probe("fleet.report", "repro.fleet.reports:battery_drain_ecdf"),
    Probe("fleet.report", "repro.fleet.reports:offload_summary"),
    Probe("fleet.report", "repro.fleet.reports:queue_summary"),
    Probe("fleet.report", "repro.cloud.load:load_report"),
    # repro.cloud
    Probe("cloud.solve", "repro.cloud.interference:InterferenceSimulator.solve",
          _count("cloud.passes", lambda args, result: result.passes)),
    Probe("cloud.add_trace", "repro.cloud.load:LoadProfile.add_trace"),
    # repro.store, write side
    Probe("store.append_row", "repro.store.writer:StoreWriter.append_row"),
    Probe("store.append_batch", "repro.store.writer:StoreWriter.append_batch",
          _count("store.batches")),
    Probe("store.coerce", "repro.store.columnar:coerce_batch"),
    Probe("store.seal", "repro.store.segment:write_segment", _sealed),
    Probe("store.seal", "repro.store.segment:write_columnar_segment", _sealed),
    Probe("store.flush", "repro.store.writer:StoreWriter._flush"),
    Probe("store.diff", "repro.store.diff:diff_kind"),
    # repro.store, read side
    Probe("store.report", "repro.store.serving:ReportServer.summary"),
    Probe("store.report",
          "repro.store.serving:ReportServer.latency_ecdf_by_device"),
    Probe("store.report",
          "repro.store.serving:ReportServer.energy_distributions"),
    Probe("store.report", "repro.store.serving:ReportServer.latency_vs_flops"),
    Probe("store.report", "repro.store.serving:ReportServer.cloud_api_usage"),
    Probe("query.aggregate", "repro.store.query:Query.aggregate"),
    Probe("query.load", "repro.store.segment:load_columns"),
    Probe("kernels.factorize", "repro.store.kernels:factorize_parts"),
    Probe("kernels.reduce", "repro.store.kernels:GroupedReducer.reduce"),
    # repro.serve (in the server process for `repro serve`)
    Probe("serve.dispatch", "repro.serve.routes:Router.dispatch"),
    Probe("serve.query", "repro.serve.service:QueryService.query"),
    Probe("serve.report", "repro.serve.service:QueryService.report"),
    Probe("serve.refresh", "repro.serve.snapshot:SnapshotManager.poll"),
)

#: Spans the benchmark opens in its own code around calls into a layer.
CLIENT_LAYERS = ("serve.client", "serve.encode", "serve.advance_wait")

SPAN_LAYERS = tuple(dict.fromkeys(
    [probe.layer for probe in PROBES] + list(CLIENT_LAYERS)))

#: Counts and ratios printed beside the self times.
COUNT_METRICS = (
    "core.apps", "core.candidates", "runtime.jobs", "fleet.users",
    "fleet.events", "cloud.passes", "store.batches", "store.segments_sealed",
    "query.segments_scanned", "query.segments_skipped",
    "query.scan_segments_scanned", "query.scan_segments_skipped",
    "query.lookup_segments_scanned", "query.lookup_segments_skipped",
)
RATIO_METRICS = (
    "core.valid_ratio", "runtime.jobs_kept_ratio",
    "query.rows_scanned_per_returned", "serve.result_hit_ratio",
    "serve.segment_hit_ratio", "trace.overhead_ratio",
)


def per_layer_catalog() -> list[tuple[str, str]]:
    """``(metric name, unit)`` of every per-layer metric, in print order."""
    catalog = [(f"{layer}_s", "s") for layer in SPAN_LAYERS]
    catalog += [("serve.http_s", "s"), ("trace.unattributed_s", "s")]
    catalog += [(name, "count") for name in COUNT_METRICS]
    catalog += [("store.bytes_written", "B")]
    catalog += [(name, "ratio") for name in RATIO_METRICS]
    return catalog
