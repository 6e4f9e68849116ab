"""Every boundary-table name resolves against the current ``src/``."""

import pytest

import spans


@pytest.mark.parametrize("boundary", spans.BOUNDARIES, ids=lambda b: b.target)
def test_boundary_resolves(boundary):
    # A LookupError here names the missing module, class or attribute.
    sites = spans.resolve(boundary.target, boundary.exclude)
    assert sites, boundary.target
    for site in sites:
        assert getattr(site.owner, site.attr) is site.original


def test_process_entry_resolves():
    (site,) = spans.resolve(spans.PROCESS_ENTRY)
    assert site.name == "Engine.process"


def test_cloud_api_family_leaves_out_the_plumbing():
    names = {site.attr for site in spans.resolve("repro.cloud.api:CloudAPI.*",
                                                 ("with_principal", "subscribe"))}
    assert "describe_instances_in_asg" in names and "terminate_instance" in names
    assert not names & {"with_principal", "subscribe"}
    assert not any(name.startswith("_") for name in names)


def test_missing_attribute_is_named():
    with pytest.raises(LookupError, match="no_such_method"):
        spans.resolve("repro.sim.engine:Engine.no_such_method")
    with pytest.raises(LookupError, match="NoSuchClass"):
        spans.resolve("repro.sim.engine:NoSuchClass.step")
    with pytest.raises(LookupError, match="repro.no_such_module"):
        spans.resolve("repro.no_such_module:f")
