"""Per-layer metrics read off the traced round's span aggregates.

Layers are this repo's packages.  ``*_ms_per_op`` is *self* wall time: a
span's duration minus the part covered by its child spans.  Counts are
taken at the same boundaries as the spans.
"""

from __future__ import annotations

from stats import ratio


def traced_layer_metrics(summary: dict, ops: int, unresolved: dict[str, list[str]]) -> dict:
    """Metric name -> value, or None where the layer's boundaries are gone.

    ``summary`` is :meth:`spans.Tracer.summary` of the traced round.
    """
    by_name = summary["by_name"]
    layer_ms = summary["by_layer_self_ms"]
    created = summary["created"]
    counters = summary["counters"]

    def spans(name: str) -> int:
        return by_name.get(name, {}).get("spans", 0)

    def self_ms(name: str) -> float:
        return by_name.get(name, {}).get("self_ms", 0.0)

    def total_ms(name: str) -> float:
        return by_name.get(name, {}).get("total_ms", 0.0)

    def layer(name: str) -> float:
        return layer_ms.get(name, 0.0)

    api = [name for name in by_name if name.startswith("CloudAPI.")]
    api_calls = sum(spans(name) for name in api)
    api_self_ms = sum(self_ms(name) for name in api)
    api_errors = sum(n for name, n in summary["errors"].items() if name.startswith("CloudAPI."))
    events = spans("Engine.step")
    records = spans("LogStream.emit")
    processed = spans("LocalLogProcessor.process")
    checks = spans("ConformanceChecker._check")
    # Testbed.__init__ builds the POD service, whose wiring is reported
    # apart; PODDiagnosis.watch runs later, outside it.
    wiring_in_init_ms = total_ms("PODDiagnosis.__init__")

    metrics = {
        "sim.self_ms_per_op": ratio(layer("sim"), ops),
        "sim.events_per_op": ratio(events, ops),
        "sim.us_per_event": ratio(layer("sim") * 1e3, events),
        "cloud.self_ms_per_op": ratio(layer("cloud"), ops),
        "cloud.api_calls_per_op": ratio(api_calls, ops),
        "cloud.us_per_api_call": ratio(api_self_ms * 1e3, api_calls),
        "cloud.api_errors_per_op": ratio(api_errors, ops),
        "cloud.reconcile_calls_per_op": ratio(spans("AsgController.reconcile"), ops),
        "cloud.reconcile_self_ms_per_op": ratio(self_ms("AsgController.reconcile"), ops),
        "cloud.monitor_ticks_per_op": ratio(spans("CloudMonitor.take_snapshot"), ops),
        "cloud.monitor_self_ms_per_op": ratio(self_ms("CloudMonitor.take_snapshot"), ops),
        "operations.self_ms_per_op": ratio(layer("operations"), ops),
        "operations.log_lines_per_op": ratio(spans("Operation.log"), ops),
        "logsys.self_ms_per_op": ratio(layer("logsys"), ops),
        "logsys.records_per_op": ratio(records, ops),
        "logsys.us_per_record": ratio(layer("logsys") * 1e3, records),
        # Inclusive: everything an emitted record sets off downstream.
        "logsys.records_per_s": ratio(records, total_ms("LogStream.emit") / 1e3),
        "logsys.shipped_frac": ratio(counters.get("logsys.shipped", 0), processed),
        "process.self_ms_per_op": ratio(layer("process"), ops),
        "process.checks_per_op": ratio(checks, ops),
        "process.us_per_check": ratio(layer("process") * 1e3, checks),
        "process.nonfit_frac": ratio(counters.get("process.nonfit", 0), checks),
        "assertions.self_ms_per_op": ratio(layer("assertions"), ops),
        "assertions.evaluations_per_op": ratio(counters.get("assertions.evaluations", 0), ops),
        "assertions.client_calls_per_op": ratio(created.get("ConsistentApiClient.call", 0), ops),
        "diagnosis.self_ms_per_op": ratio(layer("diagnosis"), ops),
        "faulttree.self_ms_per_op": ratio(layer("faulttree"), ops),
        "recovery.self_ms_per_op": ratio(layer("recovery"), ops),
        "obs.export_ms_per_op": ratio(
            total_ms("Observability.export_trace") + total_ms("Observability.export_metrics"), ops
        ),
        "pod.wiring_ms_per_op": ratio(wiring_in_init_ms + total_ms("PODDiagnosis.watch"), ops),
        "testbed.provision_ms_per_op": ratio(
            total_ms("Testbed.__init__") - wiring_in_init_ms, ops
        ),
        "evaluation.self_ms_per_op": ratio(layer("evaluation"), ops),
    }
    for name in metrics:
        if name.split(".", 1)[0] in unresolved:
            metrics[name] = None
    return metrics
