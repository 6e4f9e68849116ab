"""§V.D conformance-checking results.

Paper: the first 4 fault types are invisible to conformance checking (log
output unchanged); of the 80 resource-fault runs, conformance flagged 20
erroneous traces before assertion checking.  (The "about 10 ms when
called locally" service time is pinned in tests/process/test_conformance.py.)
"""

RESOURCE_FAULTS = ("AMI_UNAVAILABLE", "KEYPAIR_UNAVAILABLE", "SG_UNAVAILABLE", "ELB_UNAVAILABLE")
CONFIG_FAULTS = ("AMI_CHANGED", "KEYPAIR_WRONG", "SG_WRONG", "INSTANCE_TYPE_CHANGED")


def test_conformance_detectability(campaign_outcomes):
    def count(fault_types):
        # Interference-free runs only: concurrent scale-ins/terminations
        # perturb the log trace regardless of the injected fault type.
        return sum(
            1
            for o in campaign_outcomes
            if o.spec.fault_type in fault_types
            and o.conformance_before_assertion
            and o.truth == [o.spec.fault_type]
        )

    config_first = count(CONFIG_FAULTS)
    resource_first = count(RESOURCE_FAULTS)
    resource_total = sum(
        1 for o in campaign_outcomes if o.spec.fault_type in RESOURCE_FAULTS
    )
    print(
        f"\n§V.D — conformance flagged first: paper 20/80 resource-fault runs ->"
        f" {resource_first}/{resource_total}; config-fault runs: {config_first}"
    )
    # Configuration faults leave the log trace unchanged.
    assert config_first == 0
    # A meaningful minority of resource-fault runs is conformance-first.
    assert 5 <= resource_first <= 40
