"""The ingest corpus: deterministic per seed, labels equal the seed code's verdicts."""

import pytest

import ingest_gen
import workloads


def test_same_seed_same_episodes_other_seed_other_episodes():
    first = ingest_gen.build_episodes(11, 6)
    again = ingest_gen.build_episodes(11, 6)
    other = ingest_gen.build_episodes(12, 6)
    assert [(e.lines, e.labels) for e in first] == [(e.lines, e.labels) for e in again]
    assert [e.lines for e in first] != [e.lines for e in other]


def test_episodes_have_the_advertised_shape():
    episodes = ingest_gen.build_episodes(2014, 30)
    sizes = [len(e.lines) for e in episodes]
    assert 600 <= sum(sizes) / len(sizes) <= 1400
    for episode in episodes:
        assert len(episode.labels) == ingest_gen.FLEET
        assert {node for _when, node, _message in episode.lines} == set(range(ingest_gen.FLEET))
        assert episode.lines == sorted(episode.lines, key=lambda line: line[0])
    labels = [label for e in episodes for label in e.labels]
    statuses = set().union(*labels)
    assert statuses == {ingest_gen.UNFIT, ingest_gen.ERROR, ingest_gen.UNCLASSIFIED}
    assert 0.2 < sum(bool(label) for label in labels) / len(labels) < 0.7


@pytest.mark.parametrize("seed", [2014, 7, 1])
def test_labels_match_the_verdicts_of_the_seed_code(seed):
    workload = workloads.IngestWorkload("ingest_replay", seed, quick=True)
    workload.episode_count = 25
    workload.setup()
    result = workload.round(0)
    assert result.crashed == 0
    assert workload.accuracy(result.counts) == {
        "detect_recall": 1.0, "detect_precision": 1.0, "verdict_accuracy": 1.0,
    }
    assert result.counts["deviant"] > 0 and result.counts["traces"] == 25 * ingest_gen.FLEET
    assert workload.round(1).digest == result.digest
