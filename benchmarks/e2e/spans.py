"""Boundary spans, recorded from the benchmark's own files.

The program under test is not edited.  One table (:data:`BOUNDARIES`)
maps its public entry points to layers — this repo's packages — and
:func:`tracing` wraps them at class (or module) level for the traced
round only, then puts the originals back.  The code is single-threaded,
so one span stack gives the parent links.

A layer's *self* time is its spans' duration minus the part covered by
child spans, so the self times of all layers add up to the duration of
the root spans exactly (integer nanoseconds).

Generator entry points get a :class:`GenProxy` that opens one span per
resumption; ``Engine.process`` is wrapped so that every generator handed
to the engine is attributed, per resumption, to the package that owns its
code object — otherwise private walker/evaluator processes would be
booked as ``sim`` self time.

A wrapper's own cost lands in the *parent's* self time (the clock is read
last on entry and first on exit), so a layer with many child spans —
``sim`` above all — is inflated in the traced round.
``harness.trace_overhead_ratio`` states the total.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import sys
import time
import typing as _t

#: Spans kept verbatim for ``trace.json``; aggregates are always complete.
KEEP_SPANS = 20_000


class Tracer:
    """Span stack + per-name aggregates for one traced round."""

    def __init__(
        self, keep_spans: int = KEEP_SPANS, clock: _t.Callable[[], int] = time.perf_counter_ns
    ) -> None:
        self.clock = clock
        self.keep_spans = keep_spans
        #: Identifier of the op in flight; set by the load generator.
        self.op = 0
        self._stack: list[list] = []
        self.span_count = 0
        #: ``(id, parent id, name, layer, start ns, end ns, op)``.
        self.spans: list[tuple] = []
        #: name -> ``[layer, spans, total ns, self ns]``.
        self.by_name: dict[str, list] = {}
        #: Generator boundaries: generators created (``by_name`` counts
        #: their resumptions).
        self.created: dict[str, int] = {}
        #: name -> exceptions that left the boundary.
        self.errors: dict[str, int] = {}
        #: Tallies taken by :attr:`Boundary.count` hooks.
        self.counters: dict[str, int] = {}

    def push(self, name: str, layer: str) -> None:
        span_id = self.span_count
        self.span_count = span_id + 1
        # [id, name, layer, child ns, op, start ns]
        self._stack.append([span_id, name, layer, 0, self.op, self.clock()])

    def pop(self) -> None:
        end = self.clock()
        span_id, name, layer, child_ns, op, start = self._stack.pop()
        duration = end - start
        parent_id = None
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        aggregate = self.by_name.get(name)
        if aggregate is None:
            aggregate = self.by_name[name] = [layer, 0, 0, 0]
        aggregate[1] += 1
        aggregate[2] += duration
        aggregate[3] += duration - child_ns
        # Ids are handed out on entry, so a kept span's parent is kept.
        if span_id < self.keep_spans:
            self.spans.append((span_id, parent_id, name, layer, start, end, op))

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> _t.Iterator[None]:
        self.push(name, layer)
        try:
            yield
        finally:
            self.pop()

    def add(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- read-out ----------------------------------------------------------

    def layer_self_ns(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for layer, _spans, _total, self_ns in self.by_name.values():
            totals[layer] = totals.get(layer, 0) + self_ns
        return totals

    def summary(self) -> dict:
        """JSON-ready aggregates (milliseconds)."""
        return {
            "span_count": self.span_count,
            "spans_kept": len(self.spans),
            "by_layer_self_ms": {
                layer: ns / 1e6 for layer, ns in sorted(self.layer_self_ns().items())
            },
            "by_name": {
                name: {
                    "layer": layer,
                    "spans": spans,
                    "total_ms": total / 1e6,
                    "self_ms": self_ns / 1e6,
                }
                for name, (layer, spans, total, self_ns) in sorted(self.by_name.items())
            },
            "created": dict(sorted(self.created.items())),
            "errors": dict(sorted(self.errors.items())),
            "counters": dict(sorted(self.counters.items())),
        }

    def span_dicts(self) -> list[dict]:
        """The kept spans, in entry order, for ``trace.json``."""
        return [
            {
                "id": span_id,
                "parent": parent_id,
                "name": name,
                "layer": layer,
                "start_ns": start,
                "end_ns": end,
                "op": op,
            }
            for span_id, parent_id, name, layer, start, end, op in sorted(self.spans)
        ]


class GenProxy:
    """A generator stand-in that opens one span per resumption.

    Usable wherever the program drives a generator: ``Process`` calls
    ``send``/``throw`` on it, and ``yield from`` accepts it because it is
    an iterator with ``send``, ``throw`` and ``close``.
    """

    def __init__(self, generator: _t.Generator, name: str, layer: str, tracer: Tracer) -> None:
        self._generator = generator
        self._name = name
        self._layer = layer
        self._tracer = tracer
        # ``Process`` names itself after its generator.
        self.__name__ = getattr(generator, "__name__", name)

    def __iter__(self) -> "GenProxy":
        return self

    def __next__(self) -> _t.Any:
        return self.send(None)

    def send(self, value: _t.Any) -> _t.Any:
        tracer = self._tracer
        tracer.push(self._name, self._layer)
        try:
            return self._generator.send(value)
        finally:
            tracer.pop()

    def throw(self, *exc_info: _t.Any) -> _t.Any:
        tracer = self._tracer
        tracer.push(self._name, self._layer)
        try:
            return self._generator.throw(*exc_info)
        finally:
            tracer.pop()

    def close(self) -> None:
        tracer = self._tracer
        tracer.push(self._name, self._layer)
        try:
            self._generator.close()
        finally:
            tracer.pop()


def layer_of_file(filename: str) -> str:
    """The ``repro`` package (or top-level module) a source file belongs to."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" in parts[:-1]:
        owner = parts[len(parts) - 1 - parts[::-1].index("repro") + 1]
        return owner[:-3] if owner.endswith(".py") else owner
    return "harness"


# -- the boundary table ------------------------------------------------------

CountHook = _t.Callable[[Tracer, tuple, dict, _t.Any], None]


@dataclasses.dataclass(frozen=True)
class Boundary:
    """One public entry point (or family of them) and the layer it enters.

    ``target`` is ``module:Class.method``, ``module:function`` or
    ``module:Class.prefix*`` (every public function of the class whose name
    starts with the prefix).  ``count`` is called after each call with
    ``(tracer, args, kwargs, result)`` — for a generator entry point, once
    when the generator is created, with ``result=None``.
    """

    target: str
    layer: str
    exclude: tuple[str, ...] = ()
    count: CountHook | None = None


def _count_shipped(tracer: Tracer, args: tuple, kwargs: dict, result: _t.Any) -> None:
    if result:
        tracer.add("logsys.shipped")


def _count_nonfit(tracer: Tracer, args: tuple, kwargs: dict, result: _t.Any) -> None:
    if result.status != "fit":
        tracer.add("process.nonfit")


def _count_triggered(tracer: Tracer, args: tuple, kwargs: dict, result: _t.Any) -> None:
    # trigger_from_log(self, record, assertion_ids) /
    # trigger_from_timer(self, firing, assertion_ids, params=None)
    ids = kwargs["assertion_ids"] if "assertion_ids" in kwargs else args[2]
    tracer.add("assertions.evaluations", len(ids))


def _count_on_demand(tracer: Tracer, args: tuple, kwargs: dict, result: _t.Any) -> None:
    tracer.add("assertions.evaluations")


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("repro.evaluation.campaign:Campaign.run", "evaluation"),
    Boundary("repro.evaluation.campaign:run_single", "evaluation"),
    Boundary("repro.testbed:Testbed.__init__", "testbed"),
    Boundary("repro.testbed:Testbed.run_upgrade", "testbed"),
    Boundary("repro.pod.service:PODDiagnosis.__init__", "pod"),
    Boundary("repro.pod.service:PODDiagnosis.watch", "pod"),
    Boundary("repro.sim.engine:Engine.run", "sim"),
    Boundary("repro.sim.engine:Engine.step", "sim"),
    # Every public method is an API call except the two that only hand out
    # or wire up a facade.
    Boundary("repro.cloud.api:CloudAPI.*", "cloud", exclude=("with_principal", "subscribe")),
    Boundary("repro.cloud.controller:AsgController.reconcile", "cloud"),
    Boundary("repro.cloud.monitor:CloudMonitor.take_snapshot", "cloud"),
    Boundary("repro.operations.rolling_upgrade:RollingUpgradeOperation.run", "operations"),
    Boundary("repro.operations.base:Operation.log", "operations"),
    Boundary("repro.logsys.record:LogStream.emit", "logsys"),
    Boundary("repro.logsys.pipeline:LocalLogProcessor.process", "logsys", count=_count_shipped),
    # ``ConformanceChecker.check`` is rebound per instance to ``_check``
    # when the product's own tracer is off, so a class-level wrapper on
    # ``check`` would be bypassed on the live path; ``check`` reaches
    # ``_check`` either way.
    Boundary("repro.process.conformance:ConformanceChecker._check", "process",
             count=_count_nonfit),
    Boundary("repro.assertions.evaluation:AssertionEvaluationService.trigger_from_log",
             "assertions", count=_count_triggered),
    Boundary("repro.assertions.evaluation:AssertionEvaluationService.trigger_from_timer",
             "assertions", count=_count_triggered),
    Boundary("repro.assertions.evaluation:AssertionEvaluationService.evaluate_on_demand",
             "assertions", count=_count_on_demand),
    Boundary("repro.assertions.consistent_api:ConsistentApiClient.call", "assertions"),
    Boundary("repro.assertions.consistent_api:ConsistentApiClient.call_until", "assertions"),
    Boundary("repro.diagnosis.engine:DiagnosisEngine.diagnose*", "diagnosis"),
    Boundary("repro.faulttree.instantiate:instantiate_tree", "faulttree"),
    Boundary("repro.recovery.supervisor:recover_run", "recovery"),
    Boundary("repro.recovery.engine:RecoveryEngine.execute", "recovery"),
    Boundary("repro.obs:Observability.export_trace", "obs"),
    Boundary("repro.obs:Observability.export_metrics", "obs"),
)

#: Wrapped apart from the table: it attributes the *generator* it is
#: handed, not itself.
PROCESS_ENTRY = "repro.sim.engine:Engine.process"


@dataclasses.dataclass(frozen=True)
class Site:
    """One attribute to replace: ``setattr(owner, attr, wrapper)``."""

    owner: _t.Any
    attr: str
    original: _t.Callable
    name: str


def _module_function_sites(module: _t.Any, attr: str) -> list[Site]:
    original = getattr(module, attr)
    # ``from x import f`` copies the reference: wrap it in every loaded
    # module of the program that holds it.
    return [
        Site(holder, holder_attr, original, attr)
        for holder_name, holder in sorted(sys.modules.items())
        if holder is not None
        and (holder_name == "repro" or holder_name.startswith("repro."))
        for holder_attr, value in sorted(vars(holder).items())
        if value is original
    ]


def resolve(target: str, exclude: tuple[str, ...] = ()) -> list[Site]:
    """The attributes ``target`` names; LookupError names what is missing."""
    module_name, _, path = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{target}: cannot import {module_name} ({exc})") from exc
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        if not callable(getattr(module, attr, None)):
            raise LookupError(f"{target}: {module_name} has no function {attr!r}")
        return _module_function_sites(module, attr)
    owner = getattr(module, owner_name, None)
    if not inspect.isclass(owner):
        raise LookupError(f"{target}: {module_name} has no class {owner_name!r}")
    if attr.endswith("*"):
        prefix = attr[:-1]
        names = [
            name
            for name, value in vars(owner).items()
            if inspect.isfunction(value)
            and name.startswith(prefix)
            and not name.startswith("_")
            and name not in exclude
        ]
        if not names:
            raise LookupError(f"{target}: {owner_name} has no public method {attr!r}")
    else:
        names = [attr]
    sites = []
    for name in sorted(names):
        original = vars(owner).get(name)
        if not inspect.isfunction(original):
            raise LookupError(f"{target}: {owner_name} defines no method {name!r}")
        sites.append(Site(owner, name, original, f"{owner_name}.{name}"))
    return sites


def _wrap(tracer: Tracer, name: str, layer: str, original: _t.Callable,
          count: CountHook | None) -> _t.Callable:
    if inspect.isgeneratorfunction(original):

        @functools.wraps(original)
        def generator_wrapper(*args, **kwargs):
            tracer.created[name] = tracer.created.get(name, 0) + 1
            if count is not None:
                count(tracer, args, kwargs, None)
            return GenProxy(original(*args, **kwargs), name, layer, tracer)

        return generator_wrapper

    push, pop = tracer.push, tracer.pop

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        push(name, layer)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            tracer.errors[name] = tracer.errors.get(name, 0) + 1
            raise
        finally:
            pop()
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


def _wrap_process(tracer: Tracer, original: _t.Callable) -> _t.Callable:
    @functools.wraps(original)
    def process(engine, generator, name=None):
        if not isinstance(generator, GenProxy):
            code = getattr(generator, "gi_code", None)
            if code is not None:
                layer = layer_of_file(code.co_filename)
                label = f"process {getattr(code, 'co_qualname', code.co_name)}"
                generator = GenProxy(generator, label, layer, tracer)
        return original(engine, generator, name)

    return process


@contextlib.contextmanager
def tracing(tracer: Tracer) -> _t.Iterator[dict[str, list[str]]]:
    """Wrap every boundary for the duration of the block.

    Yields ``layer -> [what could not be resolved]``.  A boundary that no
    longer resolves is skipped, never fatal: the caller reports that
    layer's traced metrics as null with these messages.
    """
    unresolved: dict[str, list[str]] = {}
    replaced: list[Site] = []
    try:
        for boundary in BOUNDARIES:
            try:
                sites = resolve(boundary.target, boundary.exclude)
            except LookupError as exc:
                unresolved.setdefault(boundary.layer, []).append(str(exc))
                continue
            for site in sites:
                wrapper = _wrap(tracer, site.name, boundary.layer, site.original, boundary.count)
                setattr(site.owner, site.attr, wrapper)
                replaced.append(site)
        try:
            (site,) = resolve(PROCESS_ENTRY)
        except LookupError as exc:
            unresolved.setdefault("sim", []).append(str(exc))
        else:
            setattr(site.owner, site.attr, _wrap_process(tracer, site.original))
            replaced.append(site)
        yield unresolved
    finally:
        for site in reversed(replaced):
            setattr(site.owner, site.attr, site.original)
