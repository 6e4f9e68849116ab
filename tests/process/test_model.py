"""Tests for process models, Petri compilation and token replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.process.compiled import CompiledReplayer
from repro.process.model import ProcessModel


def linear_model(*names):
    model = ProcessModel("linear")
    model.add_sequence(*names)
    model.mark_start(names[0])
    model.mark_end(names[-1])
    return model


def loop_model():
    """start → a → [b → c]* → end (the Fig. 2 shape, simplified)."""
    model = ProcessModel("loop")
    model.add_sequence("start", "a", "b", "c")
    model.add_edge("c", "b")
    model.add_edge("c", "end")
    model.mark_start("start")
    model.mark_end("end")
    return model


class TestModelConstruction:
    def test_add_edge_implies_activities(self):
        model = ProcessModel("m")
        model.add_edge("x", "y")
        assert set(model.activities) == {"x", "y"}

    def test_duplicate_edges_collapsed(self):
        model = ProcessModel("m")
        model.add_edge("x", "y")
        model.add_edge("x", "y")
        assert model.edges == [("x", "y")]

    def test_successors_predecessors(self):
        model = loop_model()
        assert set(model.successors("c")) == {"b", "end"}
        assert set(model.predecessors("b")) == {"a", "c"}

    def test_validate_flags_missing_start(self):
        model = ProcessModel("m")
        model.add_edge("x", "y")
        model.mark_end("y")
        assert any("start" in p for p in model.validate())

    def test_validate_flags_unreachable(self):
        model = linear_model("a", "b")
        model.add_activity("orphan")
        assert any("orphan" in p for p in model.validate())

    def test_valid_model_has_no_problems(self):
        assert loop_model().validate() == []

    def test_shortest_path(self):
        model = loop_model()
        assert model.shortest_path(["start"], "c") == ["start", "a", "b", "c"]
        assert model.shortest_path(["b"], "end") == ["b", "c", "end"]
        assert model.shortest_path(["end"], "start") is None


class TestPetriCompilation:
    def test_invalid_model_cannot_compile(self):
        model = ProcessModel("m")
        model.add_edge("x", "y")
        with pytest.raises(ValueError):
            model.to_petri_net()

    def test_compile_cached(self):
        model = loop_model()
        assert model.to_petri_net() is model.to_petri_net()

    def test_edit_invalidates_cache(self):
        model = loop_model()
        net1 = model.to_petri_net()
        model.add_edge("a", "end")
        assert model.to_petri_net() is not net1

    def test_initial_marking_enables_start_only(self):
        model = loop_model()
        net = model.to_petri_net()
        assert net.enabled_transitions(net.initial_marking) == ["start"]

    def test_xor_split_enables_both_branches(self):
        model = ProcessModel("xor")
        model.add_edge("a", "b")
        model.add_edge("a", "c")
        model.mark_start("a")
        model.mark_end("b")
        model.mark_end("c")
        net = model.to_petri_net()
        marking, _ = net.fire(net.initial_marking, "a")
        assert net.enabled_transitions(marking) == ["b", "c"]
        # Firing one branch disables the other (XOR, not AND).
        after_b, _ = net.fire(marking, "b")
        assert not net.enabled(after_b, "c")

    def test_and_split_requires_both_branches(self):
        model = ProcessModel("and")
        model.add_edge("a", "b")
        model.add_edge("a", "c")
        model.add_edge("b", "d")
        model.add_edge("c", "d")
        model.mark_start("a")
        model.mark_end("d")
        model.mark_parallel_split("a")
        model.mark_parallel_join("d")
        net = model.to_petri_net()
        marking, _ = net.fire(net.initial_marking, "a")
        marking, _ = net.fire(marking, "b")
        assert not net.enabled(marking, "d"), "AND-join must wait for c"
        marking, _ = net.fire(marking, "c")
        assert net.enabled(marking, "d")

    def test_fire_disabled_without_force_raises(self):
        model = linear_model("a", "b")
        net = model.to_petri_net()
        with pytest.raises(ValueError):
            net.fire(net.initial_marking, "b")


class TestReplay:
    def test_perfect_trace_fitness_one(self):
        instance = CompiledReplayer(loop_model()).instance_for("t")
        for activity in ["start", "a", "b", "c", "b", "c", "end"]:
            assert instance.replay(activity), activity
        assert instance.fitness() == 1.0
        assert instance.completed

    def test_skipped_activity_is_unfit(self):
        instance = CompiledReplayer(linear_model("a", "b", "c")).instance_for("t")
        instance.replay("a")
        assert not instance.replay("c")  # skipped b
        assert instance.fitness() < 1.0

    def test_unknown_activity_raises(self):
        instance = CompiledReplayer(linear_model("a", "b")).instance_for("t")
        with pytest.raises(KeyError):
            instance.replay("zzz")

    def test_hypothesize_skipped(self):
        instance = CompiledReplayer(linear_model("a", "b", "c", "d")).instance_for("t")
        instance.replay("a")
        assert instance.hypothesize_skipped("d") == ["b", "c"]

    def test_hypothesize_skipped_adjacent_is_empty(self):
        instance = CompiledReplayer(linear_model("a", "b")).instance_for("t")
        instance.replay("a")
        assert instance.hypothesize_skipped("b") == []

    def test_last_fit_activity(self):
        instance = CompiledReplayer(linear_model("a", "b", "c")).instance_for("t")
        instance.replay("a")
        instance.replay("c")
        assert instance.last_fit == "a"

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_any_linear_model_replays_itself(self, length, loops):
        """Property: a linear model (optionally with one loop) always
        replays its own happy-path trace with fitness 1."""
        names = [f"s{i}" for i in range(length)]
        model = linear_model(*names)
        trace = list(names)
        if loops and length >= 3:
            model.add_edge(names[-2], names[1])
            body = names[1:-1]
            trace = [names[0]] + body * (loops + 1) + [names[-1]]
        instance = CompiledReplayer(model).instance_for("t")
        for activity in trace:
            assert instance.replay(activity)
        assert instance.fitness() == 1.0
