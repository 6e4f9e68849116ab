"""The walk binds: it diagnoses on the registry's own nodes and never
copies or writes a tree.

Diagnosis used to copy every selected tree per request, substituting each
``$var`` into every kept node on the way, and then walk the copy.  The
walk now reads the registry's nodes, skips what the step scoping cuts and
binds a variable only where it uses it.  :func:`copy_instantiated` is the
old copying pass, kept here as the oracle: walking its copy with nothing
left to bind must decide exactly what the binding walk decides.
"""

import copy
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagnosis.walk import walk
from repro.faulttree.instantiate import instantiate_tree
from repro.faulttree.library import build_standard_fault_trees, shared_standard_fault_trees
from repro.faulttree.tree import DiagnosticTest, FaultNode, FaultTree, node, substitute, substitute_params
from repro.operations.steps import SEQUENCE

STANDARD = build_standard_fault_trees()


def copy_instantiated(node: FaultNode, params: dict, step, pruned: list) -> FaultNode:
    """The copying instantiation the walk replaced: a new node for every
    kept node, ``$var`` substituted into each description and test."""
    children = []
    for child in node.children:
        if step is not None and child.step_context and step not in child.step_context:
            pruned.append(child.node_id)
        else:
            children.append(copy_instantiated(child, params, step, pruned))
    test = node.test
    if test is not None:
        test = DiagnosticTest(test.kind, test.name, substitute_params(test.params, params),
                              test.when_not_observed)
    return FaultNode(node.node_id, substitute(node.description, params), children, test,
                     node.step_context, node.probability)


def variables(tree: FaultTree) -> set[str]:
    """Every ``$var`` a tree's descriptions and test params name."""
    texts = [n.description for n in tree.root.iter_nodes()]
    texts += [v for n in tree.root.iter_nodes() if n.test for v in n.test.params.values()
              if isinstance(v, str)]
    return {name for text in texts for name in re.findall(r"\$(\w+)", text)}


ALL_VARIABLES = sorted(set().union(*(variables(STANDARD.get(t)) for t in STANDARD.tree_ids())))


def drive(steps, observe):
    """Run a walk to its end; ``observe(look)`` answers each look."""
    looks = []
    observation = None
    try:
        while True:
            look = steps.send(observation)
            looks.append((look.node.node_id, look.params))
            observation = observe(look)
    except StopIteration as done:
        causes, tests = done.value
    return causes, tests, looks


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    tree_ids=st.lists(st.sampled_from(STANDARD.tree_ids()), min_size=1, max_size=3, unique=True),
    step=st.sampled_from((None, *SEQUENCE)),
    bound=st.sets(st.sampled_from(ALL_VARIABLES)),
    answers=st.lists(st.sampled_from((True, False, None)), max_size=30),
)
def test_binding_walk_equals_walking_a_copy(tree_ids, step, bound, answers):
    trees = [STANDARD.get(t) for t in tree_ids]
    params = {name: 4 if name == "N" else f"{name}-value" for name in bound}

    def observer():
        sent = iter(answers)

        def observe(look):
            observed = next(sent, True)
            return observed, {"node": look.node.node_id}, observed is None

        return observe

    copied_pruned: list[str] = []
    copies = [copy_instantiated(tree.root, params, step, copied_pruned) for tree in trees]
    copied_leaves = sum(n.is_leaf for root in copies for n in root.iter_nodes())
    # Nothing is left to bind or cut in the copy.
    expected = drive(walk(copies, {}, None, since=3.0), observer())

    cut = [instantiate_tree(tree, step) for tree in trees]
    assert drive(walk([tree.root for tree in trees], params, step, since=3.0), observer()) == expected
    assert [i for pruned, _ in cut for i in pruned] == copied_pruned
    assert sum(leaves for _, leaves in cut) == copied_leaves


def test_confirmed_inner_node_whose_children_are_all_cut_is_undetermined():
    """The one place the binding walk differs from walking a copy: a
    confirmed inner node all of whose children are out of scope was a leaf
    of the copy, and so a *confirmed* root cause and a potential fault.
    On the registry's node it still has children, none of them relevant
    here: the diagnosis cannot determine why, so it is *undetermined*, and
    it is no potential fault.  No standard tree has such a node at any
    step, so no campaign outcome tells the two apart."""
    probe = DiagnosticTest("custom", "probe")
    below = node("below", "d", test=probe, steps=("other",))
    tree = FaultTree("t", "", root=node("r", "root", node("inner", "inner of $asg", below, test=probe)))
    causes, tests, looks = drive(walk([tree.root], {"asg": "a"}, "this", since=0.0),
                                 lambda look: (True, {}, False))
    assert [(c.node_id, c.description, c.status) for c in causes] == [
        ("inner", "inner of a", "undetermined")
    ]
    assert [t.node_id for t in tests] == ["inner"] and len(looks) == 1
    assert instantiate_tree(tree, "this") == (["below"], 0)
    for tree_id in STANDARD.tree_ids():
        for inner in STANDARD.get(tree_id).root.iter_nodes():
            for step in SEQUENCE:
                assert inner.is_leaf or any(c.in_scope(step) for c in inner.children), inner.node_id


def test_the_registry_is_never_written():
    """Walks over the shared registry, with every variable bound and with
    none, at every step, leave each tree equal to a deep copy taken first."""
    registry = shared_standard_fault_trees()
    before = {t: copy.deepcopy(registry.get(t)) for t in registry.tree_ids()}
    everything = {name: f"{name}-value" for name in ALL_VARIABLES}
    for params in (everything, {}):
        for step in (None, *SEQUENCE):
            for tree_id in registry.tree_ids():
                tree = registry.get(tree_id)
                instantiate_tree(tree, step)
                for observed in (True, False, None):
                    drive(walk([tree.root], params, step, since=1.0),
                          lambda look: (observed, {}, observed is None))
    assert {t: registry.get(t) for t in registry.tree_ids()} == before
