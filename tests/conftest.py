"""Shared fixtures for the POD-Diagnosis reproduction test suite."""

import concurrent.futures
import contextlib
import os

import pytest

from repro.cloud.provider import SimulatedCloud
from repro.sim.engine import Engine


class PoolSpy(list):
    """The ``max_workers`` of every process pool started, in order."""

    @contextlib.contextmanager
    def expect(self, *sizes: int):
        """Assert the block starts exactly these pools (no sizes: none)."""
        self.clear()
        yield
        assert self == list(sizes), f"pools started: {list(self)}, expected: {list(sizes)}"


@pytest.fixture(scope="class")
def pool_spy():
    """A 4-core host whose campaign worker pools are counted.

    The campaign executor clamps workers to ``os.cpu_count()``, so on a
    small CI box a "serial ≡ parallel" test would silently compare the
    serial loop with itself.  This patches ``os.cpu_count`` to 4 and
    swaps ``ProcessPoolExecutor`` for a subclass that records each pool
    in the yielded :class:`PoolSpy`; a test wraps its parallel run in
    ``with pool_spy.expect(workers):``.  Class-scoped so a class-scoped
    campaign fixture can use it.
    """
    started = PoolSpy()

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "cpu_count", lambda: 4)
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        yield started


@pytest.fixture
def engine():
    """A fresh discrete-event engine."""
    return Engine()


@pytest.fixture
def cloud():
    """A fresh simulated cloud (control loops not yet started)."""
    return SimulatedCloud(seed=42)


@pytest.fixture
def provisioned_cloud():
    """A cloud with the standard application stack provisioned and booted.

    Resources: two AMIs (v1/v2), key pair, security group, ELB, launch
    configuration v1, and ASG `asg-dsn` with 4 running instances.
    """
    cloud = SimulatedCloud(seed=42)
    api = cloud.api("setup")
    ami_v1 = api.register_image("app", "v1")["ImageId"]
    ami_v2 = api.register_image("app", "v2")["ImageId"]
    api.create_key_pair("key-prod")
    api.create_security_group("sg-web")
    api.create_load_balancer("elb-dsn")
    api.create_launch_configuration("lc-v1", ami_v1, "m1.small", "key-prod", ["sg-web"])
    api.create_auto_scaling_group("asg-dsn", "lc-v1", 1, 8, 4, ["elb-dsn"])
    cloud.start()
    cloud.engine.run(until=300.0)
    cloud.ami_v1 = ami_v1
    cloud.ami_v2 = ami_v2
    return cloud
