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


def test_floats_within_bound_pass_and_the_first_out_of_bound_is_named(doc, capsys):
    """A 1e-12 nudge of every kind of float stays within its bound; a 1e-6
    nudge of a box center does not, and the check names its label and JSON
    path."""
    diagonal = 0.3
    nudged = copy.deepcopy(doc)
    nudged["ranking"][0]["quality"] += 1e-12
    nudged["ranking"][0]["contacts"][0]["normal"][1] -= 1e-12
    nudged["tree"]["nodes"][0]["box"]["rotation"][2][1] += 1e-12
    nudged["pool"][0]["position"][0] += 1e-12
    nudged["classifications"][0]["lambdas"][0] *= 1 + 1e-12
    assert nudged != doc
    first, gaps = doc_digests.float_gaps(doc, nudged, diagonal)
    assert first is None
    assert 0.0 < gaps["length"] < 1e-11 and 0.0 < gaps["unitless"] < 1e-11
    assert gaps["lambda"] > 0.0
    assert doc_digests.check_floats({"a": (diagonal, doc)}, {"a": nudged}) == 0

    nudged["tree"]["nodes"][2]["box"]["center"][1] += 1e-6
    path = "tree.nodes[2].box.center[1]"
    assert doc_digests.float_gaps(doc, nudged, diagonal)[0] == path
    capsys.readouterr()
    assert doc_digests.check_floats({"a": (diagonal, doc)}, {"a": nudged}) == 1
    assert capsys.readouterr().out == f"a {path}\n"


def test_floats_require_equal_skeletons_and_equal_other_values(doc, capsys):
    """A flipped decision is reported as a skeleton difference, whatever the
    floats; a value with no float bound (a config float, a string) must be
    equal."""
    swapped = copy.deepcopy(doc)
    ranking = swapped["ranking"]
    ranking[0], ranking[1] = ranking[1], ranking[0]
    assert doc_digests.check_floats({"a": (0.3, doc)}, {"a": swapped, "b": doc}) == 1
    assert sorted(capsys.readouterr().out.splitlines()) == ["a skeleton", "b missing"]

    changed = copy.deepcopy(doc)
    changed["config"]["gripper"]["standoff"] += 1e-12
    assert doc_digests.float_gaps(doc, changed, 0.3)[0] == "config.gripper.standoff"
    changed = copy.deepcopy(doc)
    changed["cloud"]["source"] += "x"
    assert doc_digests.float_gaps(doc, changed, 0.3)[0] == "cloud.source"
