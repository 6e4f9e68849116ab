"""Cross-cutting invariants: determinism and property-based checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.process.compiled import CompiledReplayer
from repro.process.model import ProcessModel


class TestDeterminism:
    """The whole stack is deterministic under a fixed seed — the property
    every reproducibility claim in EXPERIMENTS.md rests on."""

    def _run(self, seed):
        from repro.testbed import build_testbed

        testbed = build_testbed(cluster_size=4, seed=seed)

        def inject():
            yield testbed.engine.timeout(45)
            testbed.cloud.injector.make_ami_unavailable(testbed.stack.ami_v2)

        testbed.engine.process(inject())
        testbed.run_upgrade()
        detections = [(round(d.time, 6), d.kind, d.detail, d.cause) for d in testbed.pod.detections]
        causes = sorted(
            (c.node_id, c.status) for r in testbed.pod.reports for c in r.root_causes
        )
        durations = [round(r.duration, 6) for r in testbed.pod.reports]
        return detections, causes, durations

    def test_identical_runs_identical_outcomes(self):
        assert self._run(1234) == self._run(1234)

    def test_different_seeds_diverge(self):
        # Not a strict requirement, but if every seed produced identical
        # timing the latency models would be broken.
        a = self._run(1234)
        b = self._run(4321)
        assert a[2] != b[2]


class TestPetriNetInvariants:
    @given(
        st.integers(min_value=2, max_value=8),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_xor_nets_conserve_a_single_token(self, length, extra_edges):
        """An XOR-only workflow net is a state machine: exactly one token
        exists at all times, wherever replay wanders."""
        names = [f"s{i}" for i in range(length)]
        model = ProcessModel("xor")
        model.add_sequence(*names)
        for a, b in extra_edges:
            source, target = names[a % length], names[b % length]
            if source != target:
                model.add_edge(source, target)
        model.mark_start(names[0])
        model.mark_end(names[-1])
        if model.validate():
            return  # extra edges may make activities unreachable; skip
        instance = CompiledReplayer(model).instance_for("t")
        assert sum(instance.marking) == 1
        # Replay any enabled activity repeatedly; token count must stay 1.
        for _ in range(12):
            enabled = instance.enabled_activities()
            if not enabled:
                break
            instance.replay(enabled[0])
            assert sum(instance.marking) == 1

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_forced_replay_never_crashes_and_bounds_fitness(self, trace):
        """Replaying an arbitrary event sequence (however ill-fitting)
        must never error, and fitness must stay within [0, 1]."""
        model = ProcessModel("m")
        model.add_sequence("a", "b", "c", "d")
        model.mark_start("a")
        model.mark_end("d")
        instance = CompiledReplayer(model).instance_for("t")
        for activity in trace:
            instance.replay(activity)
            assert 0.0 <= instance.fitness() <= 1.0

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_fit_flags_match_fitness_one(self, trace):
        """If every replay step was fit and the trace completed, token
        replay fitness is exactly 1."""
        model = ProcessModel("m")
        model.add_sequence("a", "b", "c")
        model.mark_start("a")
        model.mark_end("c")
        instance = CompiledReplayer(model).instance_for("t")
        fits = [instance.replay(activity) for activity in trace]
        if all(fits) and instance.completed:
            assert instance.fitness() == 1.0


class TestMaskingInvariants:
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF), st.integers(min_value=0, max_value=99))
    @settings(max_examples=80, deadline=None)
    def test_mask_is_id_invariant(self, instance_hex, count):
        """Lines differing only in ids/counters mask to one template —
        the property the clustering step depends on."""
        from repro.process.mining.cluster import mask_line

        a = f"Instance i-{instance_hex:08x} ready. {count} of 4 done."
        b = "Instance i-00000001 ready. 1 of 4 done."
        assert mask_line(a) == mask_line(b)

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_mask_total_on_arbitrary_text(self, text):
        from repro.process.mining.cluster import mask_line

        mask_line(text)  # must never raise


class TestSpecLanguageInvariants:
    @given(st.sampled_from([
        "asg {asg_name} has {desired_capacity} running instances",
        "instance $instanceid matches target config",
        "asg {asg_name} uses correct ami",
        "resource key_pair {expected_key_name} exists",
        "elb {elb_name} serves at least {min_in_service} instances",
    ]))
    @settings(max_examples=20, deadline=None)
    def test_specs_parse_idempotently(self, spec):
        from repro.assertions.spec import parse_assertion_spec

        a_assertion, a_params = parse_assertion_spec(spec)
        b_assertion, b_params = parse_assertion_spec(spec)
        assert type(a_assertion) is type(b_assertion)
        assert a_params == b_params

    @given(st.text(max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_parser_never_crashes(self, text):
        from repro.assertions.spec import AssertionSpecError, parse_assertion_spec

        try:
            parse_assertion_spec(text)
        except AssertionSpecError:
            pass  # rejection is the expected failure mode
