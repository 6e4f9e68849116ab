"""Span self-time arithmetic on synthetic cases, with a scripted clock."""

import sys
import types

import pytest

import spans


def scripted(*ticks):
    ticks = iter(ticks)
    return lambda: next(ticks)


def self_ns(tracer):
    return {name: agg[3] for name, agg in tracer.by_name.items()}


def test_nested_span_is_subtracted_from_its_parent():
    tracer = spans.Tracer(clock=scripted(0, 2, 5, 10))
    with tracer.span("outer", "a"):
        with tracer.span("inner", "b"):
            pass
    assert self_ns(tracer) == {"outer": 7, "inner": 3}
    assert tracer.layer_self_ns() == {"a": 7, "b": 3}
    (inner, outer) = sorted(tracer.spans, key=lambda s: -s[0])
    assert inner[1] == outer[0] and outer[1] is None  # parent links


def test_siblings_are_both_subtracted_and_self_times_add_up_to_the_root():
    tracer = spans.Tracer(clock=scripted(0, 1, 4, 6, 7, 20))
    with tracer.span("root", "a"):
        with tracer.span("first", "b"):
            pass
        with tracer.span("second", "b"):
            pass
    assert self_ns(tracer) == {"root": 20 - 3 - 1, "first": 3, "second": 1}
    assert sum(tracer.layer_self_ns().values()) == 20


def test_generator_proxy_opens_one_span_per_resumption():
    def worker():
        received = yield "first"
        yield received

    # Two resumptions: (10, 13) and (20, 21).
    tracer = spans.Tracer(clock=scripted(10, 13, 20, 21))
    proxy = spans.GenProxy(worker(), "worker", "layer", tracer)
    assert next(proxy) == "first"
    assert proxy.send("echo") == "echo"
    assert tracer.by_name["worker"] == ["layer", 2, 4, 4]
    assert proxy.__name__ == "worker"


def test_yield_from_a_proxy_nests_and_passes_values_through():
    tracer = spans.Tracer(clock=scripted(0, 1, 3, 10, 20, 21, 24, 30))

    def inner():
        got = yield "from-inner"
        return got * 2

    def outer():
        result = yield from spans.GenProxy(inner(), "inner", "b", tracer)
        yield result

    proxy = spans.GenProxy(outer(), "outer", "a", tracer)
    assert proxy.send(None) == "from-inner"     # outer (0..10) over inner (1..3)
    assert proxy.send(21) == 42                 # outer (20..30) over inner (21..24)
    assert self_ns(tracer) == {"outer": (10 - 2) + (10 - 3), "inner": 2 + 3}
    with pytest.raises(StopIteration):
        proxy.send(None)


def test_exception_thrown_into_a_proxy_reaches_the_generator():
    tracer = spans.Tracer()
    seen = []

    def worker():
        try:
            yield 1
        except KeyError as exc:
            seen.append(exc)
            yield 2

    proxy = spans.GenProxy(worker(), "worker", "layer", tracer)
    next(proxy)
    assert proxy.throw(KeyError("boom")) == 2
    assert seen and tracer.by_name["worker"][1] == 2
    proxy.close()


def test_span_cap_keeps_parents_of_kept_spans():
    tracer = spans.Tracer(keep_spans=2)
    with tracer.span("a", "x"):
        with tracer.span("b", "x"):
            with tracer.span("c", "x"):
                pass
    kept = {span[0]: span[1] for span in tracer.spans}
    assert kept == {0: None, 1: 0}
    assert tracer.span_count == 3 and tracer.by_name["c"][1] == 1


@pytest.fixture
def fake_program(monkeypatch):
    module = types.ModuleType("repro_fake_for_spans_test")

    class Service:
        def call(self, value):
            return helper(value) + 1

        def stream(self, n):
            for i in range(n):
                yield i

    def helper(value):
        return value * 2

    module.Service, module.helper = Service, helper
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_tracing_wraps_restores_and_reports_what_is_missing(fake_program, monkeypatch):
    name = fake_program.__name__
    monkeypatch.setattr(spans, "BOUNDARIES", (
        spans.Boundary(f"{name}:Service.call", "svc"),
        spans.Boundary(f"{name}:Service.stream", "svc"),
        spans.Boundary(f"{name}:Service.gone", "lost"),
        spans.Boundary(f"{name}:Service.ca*", "svc2"),
    ))
    monkeypatch.setattr(spans, "PROCESS_ENTRY", f"{name}:Service.missing_process")
    original = fake_program.Service.call
    tracer = spans.Tracer()
    with spans.tracing(tracer) as unresolved:
        service = fake_program.Service()
        assert service.call(3) == 7
        assert list(service.stream(3)) == [0, 1, 2]
    assert fake_program.Service.call is original
    assert tracer.by_name["Service.call"][1] == 2  # the exact target and the ca* family
    assert tracer.created == {"Service.stream": 1}
    assert tracer.by_name["Service.stream"][1] == 4  # three values and the StopIteration
    assert set(unresolved) == {"lost", "sim"}
    assert "'gone'" in unresolved["lost"][0] and "missing_process" in unresolved["sim"][0]


def test_layer_of_file():
    assert spans.layer_of_file("/x/src/repro/cloud/api.py") == "cloud"
    assert spans.layer_of_file("/x/src/repro/testbed.py") == "testbed"
    assert spans.layer_of_file("/x/benchmarks/e2e/workloads.py") == "harness"
