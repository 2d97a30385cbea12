"""Each benchmark check passes the program's real output and fails a
deliberately wrong one. Run from the repository root:

    python3 -m pytest bench/test_reference.py -q
"""
import copy
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from semcom import codec, forest, simulate, synthdata  # noqa: E402
from semcom.config import SimConfig  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
from workloads import ROOMS, Train  # noqa: E402

SCENARIO = "sleeping:8,eating:8"


@pytest.fixture(scope="module")
def model():
    return codec.CodecModel(seed=0)


@pytest.fixture(scope="module")
def segment():
    segments, _ = synthdata.make_codec_dataset(1, seed=5)
    return segments[3]


@pytest.fixture(scope="module")
def sim_report(model):
    u, y = synthdata.make_posture_dataset(80, seed=1)
    cfg = SimConfig(seed=4, scenario=SCENARIO)
    return simulate.run_simulation(cfg, model, forest.train_forest(u, y, seed=2))


def test_reference_forward_matches_and_perturbed_logits_fail(model, segment):
    program = codec.forward_logits(model, segment)
    ref = reference.logits(reference.model_params(model), segment.frames)
    assert reference.check_logits(program, ref) == []
    wrong = program.copy()
    wrong[2] += 1e-6 * np.max(np.abs(program))
    assert reference.check_logits(wrong, ref)


def test_gradients_match_and_scaled_gradient_fails(model):
    train = Train(seed=0)
    pairs = train.gradient_pairs(model, train.setup())
    assert {p[0].split("[")[0] for p in pairs} == set(reference.model_params(model))
    assert reference.check_gradients(pairs) == []
    scaled = [(label, 1.01 * a, n) for label, a, n in pairs]
    assert len(reference.check_gradients(scaled)) == len(pairs)


def test_loss_that_does_not_fall_fails():
    assert reference.check_loss_falls([1.61, 1.32, 1.07]) == []
    assert reference.check_loss_falls([1.61, 1.32, 1.61])
    assert reference.check_loss_falls([1.5, 1.5])


def test_ground_truth_timeline():
    timeline = reference.posture_timeline(reference.parse_scenario(SCENARIO))
    assert timeline == ["lying"] * 8 + ["walking"] * 4 + ["sitting"] * 8
    assert reference.posture_changes(timeline) == [
        (8, "lying", "walking"), (12, "walking", "sitting")]


def test_events_match_and_dropped_or_late_event_fails(sim_report):
    lines = sim_report.event_lines
    assert reference.check_events(lines, SCENARIO, 3, ROOMS) == []
    assert reference.check_events(lines[1:], SCENARIO, 3, ROOMS)
    early = [f"ACK t=9 from=lying to=walking targets={','.join(ROOMS)}"] + lines[1:]
    assert reference.check_events(early, SCENARIO, 3, ROOMS)
    swapped = [lines[0].replace("to=walking", "to=sitting")] + lines[1:]
    assert reference.check_events(swapped, SCENARIO, 3, ROOMS)


def test_ledger_identities_and_off_by_one_fail(sim_report):
    report = sim_report.to_dict()
    seconds = len(reference.posture_timeline(reference.parse_scenario(SCENARIO)))
    assert reference.check_ledger(report, seconds, 1) == []
    for key in ("N_t", "N_f", "raw_symbols"):
        wrong = copy.deepcopy(report)
        wrong["overhead"][key] += 1
        assert reference.check_ledger(wrong, seconds, 1), key
    wrong = copy.deepcopy(report)
    wrong["uploads"] -= 1
    assert reference.check_ledger(wrong, seconds, 1)


def test_activity_check_counts_useful_uploads(sim_report):
    report = sim_report.to_dict()
    # the lying->walking ACK lands in the walk, walking->sitting in eating
    assert reference.expected_useful_uploads(report, SCENARIO, 1) == 1
    wrong = copy.deepcopy(report)
    wrong["activity_table"]["eating"]["kitchen"]["count"] += 1
    assert reference.check_activity(wrong, SCENARIO, 1)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == [(name, unit) for name, unit, _, _ in run.PER_LAYER])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert math.isclose(run.ENC_CONV_MACS / 1e6, 65.03, abs_tol=0.01)
