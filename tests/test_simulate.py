"""Simulation-loop tests: ledger double-entry, determinism, the
no-transition degenerate case, config validation, and the blocked accel
uplink and the active-room-only uploads against the full-compute
per-second loop they replaced."""
import sys
from dataclasses import dataclass, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from per_second_controller import INITIAL_STATE, step
from semcom import overhead, simulate
from semcom.accel import (SYMBOLS_PER_FRAME, VALUES_PER_FRAME, GravityFilter,
                          amplitudes_to_codes, codes_to_amplitudes,
                          decode_raw, dequantize, encode_raw, gravity_feature,
                          quantize)
from semcom.channel import Channel, SymbolFrame
from semcom.cli import main as cli_main

from semcom.codec import (ACTIVITY_NAMES, FRAME_HEIGHT, FRAME_WIDTH,
                          SEGMENT_FRAMES, SYMBOLS_PER_SEGMENT, Activity,
                          CodecModel, classify, decode, encode)
from semcom.config import SimConfig, load_config, parse_config_text
from semcom.controller import AckPolicy, format_event
from semcom.forest import train_forest
from semcom.simulate import (SimReport, _derived_seed, _settled_mask,
                             posture_stream, run_simulation)
from semcom.synthdata import (ACTIVITY_ROOM, FPS, ROOMS, WALK_SECONDS,
                              RoomCamera, gen_accel_trace,
                              make_posture_dataset, step_timeline)


# The accel uplink as it ran before blocks, one second per step: the raw
# codec, then the simulation loop that also rendered, encoded and decoded
# every idle-room upload, kept as the oracle; only its accel types, its
# N_t bookkeeping and its scalar forest call were ported when those left
# the program.
@dataclass
class UploadRecord:
    t: int
    room: str
    grid_index: int
    predicted: Activity
    truth_activity: object
    truth_room: object


def grid_label(scenario, grid):
    """The (activity, room) that grid segment's first frame shows, or None
    while walking."""
    step = step_timeline(scenario)[grid * SEGMENT_FRAMES // FPS]
    if step < 0:
        return None
    activity = scenario.steps[step].activity
    return activity, ACTIVITY_ROOM[activity]


def per_frame_encode_raw(xyz):
    """Quantize and pack (n, 3) samples into one 75-symbol frame per full
    second.

    Values are packed sample-major (x, y, z per sample), two consecutive
    values per complex symbol. A trailing partial second is dropped.
    Frames are not power-normalized (``scale`` = 1.0): amplitudes are g/4,
    so channel noise scales with each frame's measured power rather than
    with full scale. Returns (frames, clamped_count).
    """
    codes, clamped = quantize(xyz)
    amps = codes_to_amplitudes(codes).reshape(-1)   # sample-major x,y,z
    n_frames = amps.size // VALUES_PER_FRAME
    frames = []
    for f in range(n_frames):
        chunk = amps[f * VALUES_PER_FRAME:(f + 1) * VALUES_PER_FRAME]
        pairs = chunk.reshape(SYMBOLS_PER_FRAME, 2)
        frames.append(SymbolFrame(pairs[:, 0] + 1j * pairs[:, 1]))
    return frames, clamped


def per_frame_decode_raw(frames):
    """Recover the (n, 3) samples from received raw frames."""
    values = []
    for idx, frame in enumerate(frames):
        if len(frame) != SYMBOLS_PER_FRAME:
            raise ValueError(
                f"frame {idx} has {len(frame)} symbols, expected {SYMBOLS_PER_FRAME}")
        pairs = np.empty(VALUES_PER_FRAME)
        pairs[0::2] = frame.symbols.real
        pairs[1::2] = frame.symbols.imag
        values.append(dequantize(amplitudes_to_codes(pairs)))
    if not values:
        return np.empty((0, 3))
    return np.concatenate(values).reshape(-1, 3)


def per_second_simulation(cfg, codec_model, forest):
    """run_simulation as it was before the accel uplink ran in blocks and
    the controller scanned runs, kept as the oracle: each second's posture
    steps the per-second state machine. It also returns the per-second u
    and postures. It bills
    each commanded segment to N_t when the ACK fans out and takes back
    the ones it skips."""
    scenario = cfg.parse_scenario()
    policy = AckPolicy(cfg.validation_windows, cfg.parse_targets(),
                       cfg.segments_per_ack)
    cameras = {room: RoomCamera(scenario, room) for room in ROOMS}
    xyz, posture_truth = gen_accel_trace(scenario)
    frames, clamped = per_frame_encode_raw(xyz)

    accel_channel = Channel(cfg.accel_snr_db, _derived_seed(cfg.seed, 1))
    video_channel = Channel(cfg.video_snr_db, _derived_seed(cfg.seed, 2))
    gravity = GravityFilter()
    state = INITIAL_STATE
    n_t = 0
    raw_symbols = 0

    posture_pred = []
    us = []
    uploads = []
    skipped = 0
    event_lines = []
    for sec, frame in enumerate(frames):
        noisy = accel_channel.send(frame)
        raw_symbols += SYMBOLS_PER_FRAME
        filtered = gravity.process(per_frame_decode_raw([noisy]))
        u = float(gravity_feature(filtered, sec)[0])
        us.append(u)
        predicted = int(forest.predict(np.array([u]))[0])
        posture_pred.append(predicted)
        state, event = step(state, predicted, sec, policy)
        if event is None:
            continue
        # the ACK's room x grid plan, formed here rather than by dispatch
        event_lines.append(format_event(event, policy.targets))
        for room in policy.targets:
            base_grid = (event.t * FPS) // SEGMENT_FRAMES
            camera = cameras[room]
            n_t += policy.segments_per_ack
            for k in range(policy.segments_per_ack):
                grid = base_grid + k
                if (grid + 1) * SEGMENT_FRAMES > camera.total_frames:
                    skipped += 1
                    n_t -= 1
                    continue
                segment = camera.segment_at_grid(grid)
                sent = video_channel.send(encode(codec_model, segment))
                logits, _ = decode(codec_model, sent)
                label = grid_label(scenario, grid)
                uploads.append(UploadRecord(
                    t=event.t, room=room, grid_index=grid,
                    predicted=classify(logits),
                    truth_activity=None if label is None else label[0],
                    truth_room=None if label is None else label[1]))

    n_f = len(ROOMS) * (cameras[ROOMS[0]].total_frames // SEGMENT_FRAMES)

    # posture bookkeeping
    truth_arr = [int(p) for p in posture_truth]
    pred_arr = [int(p) for p in posture_pred]
    settled = loop_settled_mask(truth_arr, cfg.settle_windows)
    correct = np.array([t == p for t, p in zip(truth_arr, pred_arr)])
    n_settled = int(settled.sum())
    posture_stats = {
        "total_windows": len(truth_arr),
        "settled_windows": n_settled,
        "raw_accuracy": float(correct.mean()) if truth_arr else None,
        "settled_accuracy": (float(correct[settled].mean())
                             if n_settled else None),
    }

    # Table-3-style matrix over ground-truthed uploads
    table = {ACTIVITY_NAMES[a]: {room: {"count": 0, "correct": 0}
                                 for room in ROOMS} for a in Activity}
    truthed = 0
    truthed_correct = 0
    background = 0
    for rec in uploads:
        if rec.truth_activity is None or rec.truth_room != rec.room:
            background += 1
            continue
        truthed += 1
        cell = table[ACTIVITY_NAMES[rec.predicted]][rec.room]
        cell["count"] += 1
        if rec.predicted == rec.truth_activity:
            cell["correct"] += 1
            truthed_correct += 1

    report = SimReport(
        overhead=overhead.report(n_f, n_t=n_t, L=SYMBOLS_PER_SEGMENT,
                                 raw_symbols=raw_symbols),
        posture=posture_stats,
        activity_table=table,
        clamped_samples=clamped,
        event_lines=event_lines,
        skipped_uploads=skipped,
    )
    # the report derives its upload counts and accuracy from the ledger and
    # the table this loop filled
    assert report.uploads == len(uploads)
    assert report.background_uploads == background
    assert report.activity_accuracy == (
        truthed_correct / truthed if truthed else None)
    return us, posture_pred, report


@pytest.fixture(scope="module")
def posture_forest():
    u, y = make_posture_dataset(80, seed=1)
    return train_forest(u, y, seed=2)


@pytest.fixture(scope="module")
def untrained_codec():
    return CodecModel(seed=5)


def small_config(**overrides):
    values = dict(seed=3, scenario="sleeping:8,eating:8",
                  video_snr_db=25.0, accel_snr_db=25.0)
    values.update(overrides)
    return SimConfig(**values)


def loop_settled_mask(truth, settle_windows):
    """_settled_mask as it was before it found run starts with numpy, kept
    verbatim as the oracle."""
    mask = np.zeros(len(truth), dtype=bool)
    run_start = 0
    first_run = True
    for i in range(len(truth)):
        if i > 0 and truth[i] != truth[i - 1]:
            run_start = i
            first_run = False
        mask[i] = first_run or (i - run_start) >= settle_windows
    return mask


class TestSettledMask:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 12)),
                    max_size=8).map(
               lambda runs: [code for code, n in runs for _ in range(n)]),
           st.integers(0, 8), st.booleans())
    def test_matches_loop(self, truth, settle_windows, as_array):
        # runs of posture codes, as lists or as the int64 truth arrays
        # run_simulation passes
        given_truth = np.array(truth, dtype=np.int64) if as_array else truth
        got = _settled_mask(given_truth, settle_windows)
        want = loop_settled_mask(truth, settle_windows)
        assert got.dtype == want.dtype == np.bool_
        assert got.tolist() == want.tolist()

    def test_first_run_fully_settled(self):
        mask = _settled_mask([0, 0, 0, 0], settle_windows=3)
        assert mask.tolist() == [True] * 4

    def test_margin_after_change(self):
        truth = [0, 0, 1, 1, 1, 1, 1]
        mask = _settled_mask(truth, settle_windows=3)
        assert mask.tolist() == [True, True, False, False, False, True, True]

    def test_zero_margin_keeps_everything(self):
        truth = [0, 1, 0, 1]
        assert _settled_mask(truth, 0).tolist() == [True] * 4


class TestRunSimulation:
    def test_no_transition_scenario_is_silent(self, posture_forest,
                                              untrained_codec):
        cfg = small_config(scenario="resting:10")
        report = run_simulation(cfg, untrained_codec, posture_forest)
        assert report.n_events == 0
        assert report.uploads == 0
        assert report.overhead["N_t"] == 0
        assert report.activity_accuracy is None
        counts = [cell["count"] for room_cells in report.activity_table.values()
                  for cell in room_cells.values()]
        assert sum(counts) == 0
        assert report.posture["settled_accuracy"] == 1.0

    def test_ledger_double_entry(self, posture_forest, untrained_codec):
        cfg = small_config()
        report = run_simulation(cfg, untrained_codec, posture_forest)
        assert report.n_events >= 1
        assert report.overhead["N_t"] == report.n_events * 3
        assert report.to_dict()["uploads"] == report.overhead["N_t"]
        assert len(report.event_lines) == report.n_events

    def test_upload_counts_are_derived(self):
        """uploads is the ledger's N_t and background_uploads the billed
        uploads outside the activity table; neither is stored."""
        report = SimReport(
            overhead=overhead.report(10, n_t=4, L=1), posture={},
            activity_table={"eating": {"kitchen": {"count": 3, "correct": 2}}},
            clamped_samples=0, event_lines=[], skipped_uploads=0)
        assert (report.uploads, report.background_uploads) == (4, 1)
        assert report.activity_accuracy == 2 / 3
        with pytest.raises(AttributeError):
            report.uploads = 5
        with pytest.raises(TypeError):
            SimReport({}, {}, {}, 0, [], 0, uploads=4)

    def test_derived_seeds_do_not_alias(self):
        # seeds were once masked to 32 bits, so 2**32 drew seed 0's noise
        assert _derived_seed(2**32, 1) != _derived_seed(0, 1)
        assert _derived_seed(2**32 - 1, 1) != _derived_seed(2**64 - 1, 1)

    def test_deterministic_reports(self, posture_forest, untrained_codec):
        cfg = small_config()
        r1 = run_simulation(cfg, untrained_codec, posture_forest)
        r2 = run_simulation(cfg, untrained_codec, posture_forest)
        assert r1.to_json() == r2.to_json()

    def test_raw_symbol_accounting(self, posture_forest, untrained_codec):
        cfg = small_config(scenario="resting:10")
        report = run_simulation(cfg, untrained_codec, posture_forest)
        assert report.overhead["raw_symbols"] == 10 * 75

    def test_n_f_counts_all_cameras(self, posture_forest, untrained_codec):
        cfg = small_config(scenario="resting:10")
        report = run_simulation(cfg, untrained_codec, posture_forest)
        assert report.overhead["N_f"] == 3 * ((10 * 50) // 16)

    def test_subset_targets(self, posture_forest, untrained_codec):
        cfg = small_config(ack_targets="kitchen")
        report = run_simulation(cfg, untrained_codec, posture_forest)
        if report.n_events:
            assert report.overhead["N_t"] == report.n_events
            assert all("targets=kitchen" in line for line in report.event_lines)

    def test_twelve_transitions_reproduce_reference_nt(self, posture_forest,
                                                       untrained_codec):
        """Six activity changes -> 12 validated PTs (each change passes
        through walking) -> N_t = 36 under broadcast, C_TC = 174,240."""
        cfg = small_config(scenario=("sleeping:10,resting:10,dress-up:10,"
                                     "eating:10,calling:10,sleeping:10,"
                                     "resting:10"))
        report = run_simulation(cfg, untrained_codec, posture_forest)
        assert report.n_events == 12
        assert report.overhead["N_t"] == 36
        rows = {r["method"]: r["overhead_symbols"]
                for r in report.overhead["rows"]}
        assert rows["HAR-SC-TC"] == 4840 * 36 == 174_240

    def test_uploads_past_scenario_end_are_skipped(self, posture_forest,
                                                   untrained_codec):
        """Eight segments per ACK run past the 700-frame end of this
        scenario: those uploads are skipped and not billed to N_t."""
        cfg = small_config(scenario="sleeping:5,resting:5", segments_per_ack=8)
        report = run_simulation(cfg, untrained_codec, posture_forest)
        assert report.n_events >= 1
        assert report.skipped_uploads > 0
        assert (report.overhead["N_t"] + report.skipped_uploads
                == report.n_events * 3 * 8)
        assert report.to_dict()["skipped_uploads"] == report.skipped_uploads
        assert run_simulation(cfg, untrained_codec,
                              posture_forest).to_json() == report.to_json()

    def test_report_without_skips_has_no_skip_key(self, posture_forest,
                                                  untrained_codec):
        report = run_simulation(small_config(), untrained_codec, posture_forest)
        assert report.skipped_uploads == 0
        assert "skipped_uploads" not in report.to_dict()

    def test_n_t_may_exceed_n_f(self, posture_forest):
        """N_t counts uploads, not distinct segments: ACKs whose windows
        overlap upload the same grid segments again, and each upload is
        billed. A noisy accel link here validates 21 transitions in 44 s,
        so N_t is more than twice N_f, and no N_t <= N_f check may be
        added. No count reads a clip's class, so the video codec is
        stubbed out: it would cost ~20 s for the 936 uploads."""
        cfg = SimConfig(seed=3, scenario="sleeping:20,resting:20",
                        validation_windows=1, segments_per_ack=16,
                        accel_snr_db=-10.0, video_snr_db=float("inf"),
                        accel_noise_g=1.0)
        with mock.patch.object(RoomCamera, "segment_at_grid",
                               lambda camera, grid: None), \
                mock.patch.object(simulate, "encode",
                                  lambda model, segment: np.ones(1)), \
                mock.patch.object(simulate, "decode",
                                  lambda model, frame: (np.zeros(5), None)):
            report = run_simulation(cfg, CodecModel(seed=0), posture_forest)
        assert report.n_events == 21
        assert report.overhead["N_f"] == 411
        assert report.overhead["N_t"] == 936
        assert report.skipped_uploads == 72
        assert 936 + 72 == 21 * 3 * 16


INVALID_CONFIG_LINES = [
    ("video_snr_db = nan", "video_snr_db"),
    ("accel_snr_db = nan", "accel_snr_db"),
    ("video_snr_db = -inf", "video_snr_db"),
    ("accel_snr_db = -inf", "accel_snr_db"),
    # linear ratios beyond float64: these once passed load, then 1e308
    # overflowed in add_noise
    ("video_snr_db = 1e308", "video_snr_db: SNR must be"),
    ("accel_snr_db = 3083", "accel_snr_db: SNR must be"),
    ("video_snr_db = -3077", "video_snr_db: SNR must be"),
    ("ack_targets = ,", "ack_targets names no room"),
    ("ack_targets = garage", "unknown room 'garage'"),
    ("ack_targets = kitchen, garage", "unknown room 'garage'"),
    # each segment was once uploaded and billed twice
    ("ack_targets = bedroom, bedroom", "room 'bedroom' is named twice"),
    ("seed = -1", "seed must be >= 0, got -1"),
    ("settle_windows = -1", "settle_windows"),
    ("accel_noise_g = -0.05", "accel_noise_g"),
    ("pixel_noise = -0.005", "pixel_noise"),
    ("position_jitter = -4", "position_jitter"),
    ("validation_windows = 0", "validation_windows must be >= 1"),
    ("segments_per_ack = 0", "segments_per_ack must be >= 1"),
    ("scenario = sleeping:-5,resting:5", "step 0 duration -5s"),
    # each once loaded: the first two would exhaust memory in a run, and the
    # third failed only at run time (low is out of bounds for int64)
    ("scenario = sleeping:100000000000000",
     "scenario lasts 100000000000000s, more than the 86400s"),
    ("segments_per_ack = 1000000000000",
     "segments_per_ack 1000000000000 exceeds the scenario's 362 segments"),
    ("position_jitter = 10000000000000000000",
     "position_jitter 10000000000000000000 exceeds the 112-px frame"),
]


class TestConfig:
    def test_parse_round_trip(self):
        text = """
        # comment
        seed = 9
        video_snr_db = 13
        accel_snr_db = inf
        scenario = sleeping:5,calling:6
        ack_targets = kitchen, bedroom
        """
        cfg = parse_config_text(text)
        assert cfg.seed == 9
        assert cfg.video_snr_db == 13.0
        assert cfg.accel_snr_db == float("inf")
        assert cfg.parse_targets() == ("kitchen", "bedroom")
        scenario = cfg.parse_scenario()
        assert [s.duration_s for s in scenario.steps] == [5, 6]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("bogus = 1")

    def test_removed_stride_key_rejected(self):
        # SimConfig.stride was read by nothing; uploads always use the
        # stride-16 segmentation
        with pytest.raises(ValueError, match="<config>:2: unknown key 'stride'"):
            parse_config_text("seed = 1\nstride = 16")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("not an assignment")

    def test_bad_value_names_line(self):
        with pytest.raises(ValueError, match=":2:"):
            parse_config_text("# ok\nseed = banana")

    def test_broadcast_default(self):
        assert SimConfig().parse_targets() == ROOMS
        assert SimConfig(ack_targets=" Broadcast ").parse_targets() == ROOMS

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "missing.cfg")

    def test_scenario_of_one_day_loads(self):
        """The bound counts the walks: 2 * 43,198 + 4 = 86,400 s."""
        assert SimConfig(scenario="sleeping:43198,resting:43198") \
            .parse_scenario().seconds == 86_400
        with pytest.raises(ValueError, match="lasts 86402s"):
            SimConfig(scenario="sleeping:43199,resting:43199")

    def test_segments_per_ack_up_to_a_cameras_segments(self):
        # 8 + 4 + 8 = 20 s of 50 frames: 62 whole 16-frame segments
        SimConfig(scenario="sleeping:8,eating:8", segments_per_ack=62)
        with pytest.raises(ValueError, match="63 exceeds the scenario's 62"):
            SimConfig(scenario="sleeping:8,eating:8", segments_per_ack=63)

    def test_position_jitter_up_to_the_frame(self):
        SimConfig(position_jitter=112)
        with pytest.raises(ValueError, match="113 exceeds the 112-px frame"):
            SimConfig(position_jitter=113)

    def test_scenario_duration_check(self):
        with pytest.raises(ValueError, match="validation"):
            SimConfig(scenario="sleeping:2", validation_windows=3)

    @pytest.mark.parametrize("line, message", INVALID_CONFIG_LINES)
    def test_invalid_value_rejected_at_load(self, line, message):
        with pytest.raises(ValueError, match=message) as exc:
            parse_config_text(f"seed = 1\n{line}")
        assert str(exc.value).startswith("<config>: ")
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("line, message", INVALID_CONFIG_LINES)
    def test_invalid_value_fails_simulate_cleanly(self, tmp_path, capsys, line,
                                                  message):
        config = tmp_path / "sim.cfg"
        config.write_text("codec_model = codec.semw\n"
                          f"forest_model = forest.semw\n{line}\n")
        assert cli_main(["simulate", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]


# every numeric SimConfig key, by its annotation
NUMERIC_KEYS = {f.name: f.type for f in fields(SimConfig)
                if f.type in ("int", "float")}
HUGE = {"int": "1" + "0" * 400, "float": "1e308"}
ONE_DAY_S = 86_400


@st.composite
def numeric_config_texts(draw):
    """(text, durations): config text whose every numeric key and both
    scenario durations are drawn from {0, -1, nan, +-inf, huge, valid}."""
    default = SimConfig()
    lines = [f"{name} = " + draw(st.sampled_from(
                 ["0", "-1", "nan", "inf", "-inf", HUGE[kind],
                  str(getattr(default, name))]))
             for name, kind in NUMERIC_KEYS.items()]
    durations = [draw(st.sampled_from(["0", "-1", "nan", "inf", "-inf",
                                       HUGE["int"], "20"]))
                 for _ in range(2)]
    lines.append(f"scenario = sleeping:{durations[0]},resting:{durations[1]}")
    return "\n".join(lines), durations


def valid_text_but(key=None, value=None, durations=("20", "20")):
    """numeric_config_texts' output with every draw valid but one key's."""
    default = SimConfig()
    lines = [f"{name} = {value if name == key else getattr(default, name)}"
             for name in NUMERIC_KEYS]
    lines.append(f"scenario = sleeping:{durations[0]},resting:{durations[1]}")
    return "\n".join(lines), list(durations)


class TestConfigBoundsProperty:
    """Any config text either loads, within the bounds a run needs, or
    fails with one line. Nothing here runs a simulation: a config that
    passed load wrongly could exhaust memory in one."""

    def test_draws_cover_every_numeric_key(self):
        assert set(NUMERIC_KEYS) == {
            "seed", "video_snr_db", "accel_snr_db", "validation_windows",
            "segments_per_ack", "settle_windows", "accel_noise_g",
            "pixel_noise", "position_jitter"}

    @settings(max_examples=300, deadline=None)
    @given(numeric_config_texts())
    # the three huge values that once loaded
    @example(valid_text_but(durations=("20", HUGE["int"])))
    @example(valid_text_but("segments_per_ack", HUGE["int"]))
    @example(valid_text_but("position_jitter", HUGE["int"]))
    def test_each_text_loads_within_bounds_or_fails_in_one_line(self, drawn):
        text, durations = drawn
        try:
            cfg = parse_config_text(text)
        except ValueError as exc:
            assert "\n" not in str(exc)
            return
        # arithmetic first: a camera over a longer scenario could not be built
        seconds = sum(int(d) for d in durations) + WALK_SECONDS
        assert seconds <= ONE_DAY_S
        camera = RoomCamera(cfg.parse_scenario(), ROOMS[0])
        assert cfg.segments_per_ack <= camera.n_segments
        assert cfg.position_jitter <= max(FRAME_HEIGHT, FRAME_WIDTH)


SNR_VALUES = st.one_of(st.integers(-5, 30).map(str), st.just("inf"))
ACTIVITIES = sorted(ACTIVITY_NAMES.values())


@st.composite
def config_texts(draw):
    """Config text for a small random run that is valid by construction
    (the rejected inputs are INVALID_CONFIG_LINES' job), with the facts its
    report should obey."""
    windows = draw(st.integers(1, 4))
    steps = [draw(st.sampled_from(ACTIVITIES))]
    for _ in range(draw(st.integers(1, 3))):
        steps.append(draw(st.sampled_from([a for a in ACTIVITIES if a != steps[-1]])))
    durations = [draw(st.integers(max(3, windows), 15)) for _ in steps]
    rooms = draw(st.one_of(st.none(), st.lists(st.sampled_from(ROOMS), min_size=1,
                                                max_size=len(ROOMS), unique=True)))
    segments = draw(st.integers(1, 3))
    lines = [
        f"seed = {draw(st.integers(0, 2**16))}",
        f"video_snr_db = {draw(SNR_VALUES)}",
        f"accel_snr_db = {draw(SNR_VALUES)}",
        f"validation_windows = {windows}",
        f"segments_per_ack = {segments}",
        "ack_targets = " + ("broadcast" if rooms is None else ", ".join(rooms)),
        f"accel_noise_g = {draw(st.sampled_from([0.0, 0.05, 0.2]))}",
        f"pixel_noise = {draw(st.sampled_from([0.0, 0.005, 0.05]))}",
        f"position_jitter = {draw(st.integers(0, 6))}",
        "scenario = " + ",".join(f"{a}:{d}" for a, d in zip(steps, durations)),
    ]
    seconds = sum(durations) + WALK_SECONDS * (len(steps) - 1)
    n_targets = len(ROOMS if rooms is None else rooms)
    return "\n".join(lines), seconds, n_targets, segments


class TestRandomConfigs:
    # each example runs two simulations of up to a minute of scenario time
    @settings(max_examples=3, deadline=None)
    @given(config_texts())
    def test_valid_config_runs_to_a_balanced_report(
            self, posture_forest, untrained_codec, drawn):
        text, seconds, n_targets, segments = drawn
        cfg = parse_config_text(text)
        report = run_simulation(cfg, untrained_codec, posture_forest)
        assert report.overhead["raw_symbols"] == 75 * seconds
        assert report.overhead["N_t"] == (report.n_events * n_targets * segments
                                          - report.skipped_uploads)
        assert run_simulation(cfg, untrained_codec,
                              posture_forest).to_json() == report.to_json()


def decoded_uploads(simulation, cfg, codec_model, forest):
    """Run simulation(cfg, ...) and return (its result, one record per
    decode it ran): the room and grid of the upload, whether that room
    films its own activity there by the ground truth, the noisy frame's
    symbols and scale, and the logits."""
    records = []
    upload = []
    segment_at_grid = RoomCamera.segment_at_grid
    original_decode = decode

    def tagging_segment_at_grid(camera, grid_index):
        upload[:] = [camera.room, grid_index,
                     camera.activity_at_grid(grid_index) is not None]
        return segment_at_grid(camera, grid_index)

    def recording_decode(model, frame, tape=None):
        logits, deep = original_decode(model, frame, tape)
        records.append((*upload, frame.symbols.tobytes(), frame.scale,
                        logits.tobytes()))
        return logits, deep

    with mock.patch.object(RoomCamera, "segment_at_grid",
                           tagging_segment_at_grid), \
            mock.patch.object(simulate, "decode", recording_decode), \
            mock.patch.object(sys.modules[__name__], "decode",
                              recording_decode):
        result = simulation(cfg, codec_model, forest)
    return result, records


# Walking-time ACKs (all rooms idle), then an active kitchen upload after
# two idle ones in the same broadcast, at a finite video SNR.
WALKING_EVENTS_CONFIG = """seed = 21
video_snr_db = 7
accel_snr_db = inf
validation_windows = 2
segments_per_ack = 2
ack_targets = broadcast
accel_noise_g = 0.0
pixel_noise = 0.005
position_jitter = 4
scenario = sleeping:8,eating:8"""

SUBSET_NOISELESS_CONFIG = """seed = 22
video_snr_db = inf
accel_snr_db = 25
validation_windows = 3
segments_per_ack = 3
ack_targets = kitchen, bedroom
accel_noise_g = 0.05
pixel_noise = 0.005
position_jitter = 2
scenario = dress-up:6,eating:6,calling:5"""


class TestActiveRoomUploads:
    """Only active-room uploads are rendered, encoded and decoded; each
    one's noisy frame and logits are bitwise those of the full-compute
    loop (per_second_simulation above), in the same order, so the idle
    uploads skipped in between took exactly their channel draws."""

    # each example runs the full-compute oracle: up to ~100 uploads
    @settings(max_examples=4, deadline=None)
    @given(config_texts())
    @example((WALKING_EVENTS_CONFIG, 20, 3, 2))
    @example((SUBSET_NOISELESS_CONFIG, 25, 2, 3))
    def test_matches_full_compute_loop(self, posture_forest, untrained_codec,
                                       drawn):
        cfg = parse_config_text(drawn[0])
        (_, _, want), every_upload = decoded_uploads(
            per_second_simulation, cfg, untrained_codec, posture_forest)
        got, decoded = decoded_uploads(run_simulation, cfg, untrained_codec,
                                       posture_forest)
        active = [record for record in every_upload if record[2]]
        assert decoded == active
        assert got.background_uploads == len(every_upload) - len(active)
        assert got.to_json() == want.to_json()

    def test_walking_example_skips_idle_uploads_before_active_ones(
            self, posture_forest, untrained_codec):
        """The first example above exercises the skip: an idle upload
        precedes an active one at a finite video SNR."""
        cfg = parse_config_text(WALKING_EVENTS_CONFIG)
        _, every_upload = decoded_uploads(per_second_simulation, cfg,
                                          untrained_codec, posture_forest)
        flags = [record[2] for record in every_upload]
        assert flags[0] is False and True in flags
        assert any(record[0] == "kitchen" for record in every_upload
                   if record[2])


@st.composite
def block_cases(draw):
    """A block size (1, 7 or the shipped one) and the keyword arguments of a
    valid SimConfig whose scenario lasts one second less than a block, one
    block or one second more. Uploads go to one room, so each example
    stays cheap at the longest length."""
    block = draw(st.sampled_from([1, 7, simulate.ACCEL_BLOCK_S]))
    seconds = max(1, block + draw(st.sampled_from([-1, 0, 1])))
    windows = draw(st.integers(1, min(3, seconds)))
    max_steps = (seconds + WALK_SECONDS) // (windows + WALK_SECONDS)
    n_steps = draw(st.integers(1, min(3, max_steps)))
    spare = seconds - n_steps * windows - WALK_SECONDS * (n_steps - 1)
    cuts = sorted(draw(st.lists(st.integers(0, spare), min_size=n_steps - 1,
                                max_size=n_steps - 1)))
    durations = [windows + hi - lo
                 for lo, hi in zip([0] + cuts, cuts + [spare])]
    steps = [draw(st.sampled_from(ACTIVITIES))]
    for _ in durations[1:]:
        steps.append(draw(st.sampled_from([a for a in ACTIVITIES
                                           if a != steps[-1]])))
    return block, dict(
        seed=draw(st.integers(0, 2**16)),
        scenario=",".join(f"{a}:{d}" for a, d in zip(steps, durations)),
        validation_windows=windows,
        accel_snr_db=draw(st.sampled_from([float("inf"), 25.0, 10.0])),
        accel_noise_g=draw(st.sampled_from([0.0, 0.05, 0.2])),
        ack_targets=draw(st.sampled_from(ROOMS)))


class TestBlockedUplink:
    """The blocked accel uplink gives, second by second, the bytes of the
    per-second loop it replaced (per_second_simulation above)."""

    # each example runs the simulation twice, up to 257 s of scenario
    @settings(max_examples=8, deadline=None)
    @given(block_cases())
    @example((simulate.ACCEL_BLOCK_S,
              dict(seed=11, scenario="sleeping:130,calling:123",
                   validation_windows=3, accel_snr_db=float("inf"),
                   accel_noise_g=0.0, ack_targets="bedroom")))
    @example((7, dict(seed=12, scenario="resting:8", validation_windows=1,
                      accel_snr_db=float("inf"), accel_noise_g=0.0,
                      ack_targets="kitchen")))
    def test_matches_per_second_loop(self, posture_forest, untrained_codec,
                                     case):
        block, kwargs = case
        cfg = SimConfig(**kwargs)
        us, postures, want = per_second_simulation(cfg, untrained_codec,
                                                   posture_forest)
        xyz, _ = gen_accel_trace(cfg.parse_scenario())
        assert len(xyz) // 50 in (block - 1, block, block + 1, 1)
        with mock.patch.object(simulate, "ACCEL_BLOCK_S", block):
            u, got_postures, clamped = posture_stream(
                xyz, Channel(cfg.accel_snr_db, _derived_seed(cfg.seed, 1)),
                posture_forest)
            got = run_simulation(cfg, untrained_codec, posture_forest)
        assert u.tobytes() == np.array(us).tobytes()
        assert got_postures.dtype == np.int64
        assert got_postures.tolist() == postures
        assert clamped == want.clamped_samples == got.clamped_samples
        assert got.to_json() == want.to_json()
        assert got.event_lines == want.event_lines

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(0, 49))
    def test_raw_codec_matches_per_frame(self, seed, seconds, extra_samples):
        rng = np.random.default_rng(seed)
        n = seconds * 50 + extra_samples
        xyz = rng.uniform(-4.5, 4.5, (n, 3))
        symbols, clamped = encode_raw(xyz)
        frames, want_clamped = per_frame_encode_raw(xyz)
        assert clamped == want_clamped
        assert symbols.tobytes() == b"".join(f.symbols.tobytes() for f in frames)
        noisy = symbols + rng.normal(0.0, 0.01, symbols.shape)
        got = decode_raw(noisy)
        want = per_frame_decode_raw([SymbolFrame(row) for row in noisy])
        assert got.shape == want.shape == (seconds * 50, 3)
        assert got.tobytes() == want.tobytes()
