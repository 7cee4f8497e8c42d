"""The run-document skeleton of tests/doc_digests.py."""

import copy

import pytest

import doc_digests
from pregrasp import RunConfig, run_pipeline, synth_shape


@pytest.fixture(scope="module")
def doc():
    return run_pipeline(synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), 2000, seed=1),
                        RunConfig())


def test_skeleton_ignores_floats_and_keeps_the_ranking_order(doc):
    """Moving a float leaves the skeleton's digest as it is; swapping two
    ranking entries changes it."""
    ranked = [r for r in doc["ranking"] if r["quality"] > 0]
    assert len(ranked) >= 2 and ranked[0]["contact_count"] > 0
    want = doc_digests.digest(doc_digests.skeleton(doc))

    nudged = copy.deepcopy(doc)
    ranking = nudged["ranking"]
    ranking[0]["quality"] *= 1 + 1e-12
    ranking[0]["contacts"][0]["position"][0] += 1e-12
    nudged["tree"]["nodes"][0]["box"]["center"][0] += 1e-12
    nudged["pool"][0]["position"][0] += 1e-12
    nudged["classifications"][0]["lambdas"][0] += 1e-12
    assert nudged != doc
    assert doc_digests.digest(doc_digests.skeleton(nudged)) == want

    swapped = copy.deepcopy(doc)
    ranking = swapped["ranking"]
    ranking[0], ranking[1] = ranking[1], ranking[0]
    assert doc_digests.digest(doc_digests.skeleton(swapped)) != want
