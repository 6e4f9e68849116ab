"""§V.D conformance-checking results.

Paper: the first 4 fault types are invisible to conformance checking (log
output unchanged); of the 80 resource-fault runs, conformance flagged 20
erroneous traces before assertion checking.  (The "about 10 ms when
called locally" service time has no virtual-time model here; a check's
implementation cost is the ledger's ``process.us_per_check``.)

The seeded campaign's answer is pinned run by run: 7 of the 80, every one
an ELB outage.
"""

from repro.evaluation.faults import CONFIG_FAULTS, RESOURCE_FAULTS

#: The interference-free resource-fault runs of the seed-2014 campaign
#: that conformance flagged before any assertion failed.
CONFORMANCE_FIRST = {
    f"elb_unavailable-{index:02d}" for index in (4, 6, 9, 12, 13, 17, 18)
}


def test_conformance_detectability(campaign_outcomes, campaign_metrics):
    def flagged_first(fault_types):
        # Interference-free runs only: concurrent scale-ins/terminations
        # perturb the log trace regardless of the injected fault type.
        return {
            o.spec.run_id
            for o in campaign_outcomes
            if o.spec.fault_type in fault_types
            and o.conformance_before_assertion
            and o.truth == [o.spec.fault_type]
        }

    config_first = flagged_first(CONFIG_FAULTS)
    resource_first = flagged_first(RESOURCE_FAULTS)
    resource_total = sum(
        1 for o in campaign_outcomes if o.spec.fault_type in RESOURCE_FAULTS
    )
    print(
        f"\n§V.D — conformance flagged first: paper 20/80 resource-fault runs ->"
        f" {len(resource_first)}/{resource_total}; config-fault runs: {len(config_first)}"
    )
    # Configuration faults leave the log trace unchanged.
    assert config_first == set()
    assert resource_first == CONFORMANCE_FIRST
    # The campaign's metric counts the same runs.
    assert campaign_metrics.conformance_first_runs == len(CONFORMANCE_FIRST) == 7
    assert campaign_metrics.conformance_eligible_runs == resource_total == 80
