"""Simulation-loop tests: ledger double-entry, determinism, the
no-transition degenerate case, config validation, and the blocked accel
uplink and the active-room-only uploads against the full-compute
per-second loop they replaced."""
import sys
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semcom import overhead, simulate
from semcom.accel import (SYMBOLS_PER_FRAME, VALUES_PER_FRAME, GravityFilter,
                          amplitudes_to_codes, codes_to_amplitudes,
                          decode_raw, dequantize, encode_raw, gravity_feature,
                          quantize)
from semcom.channel import Channel, SymbolFrame
from semcom.cli import main as cli_main

from semcom.codec import (ACTIVITY_NAMES, SEGMENT_FRAMES, Activity, CodecModel,
                          classify, decode, encode)
from semcom.config import SimConfig, load_config, parse_config_text
from semcom.controller import (AckPolicy, TransmissionController, dispatch,
                               format_event)
from semcom.forest import train_forest
from semcom.simulate import (SimReport, _derived_seed, _settled_mask,
                             posture_stream, run_simulation)
from semcom.synthdata import (FPS, ROOMS, WALK_SECONDS, RoomCamera,
                              gen_accel_trace, make_posture_dataset)


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
    """run_simulation as it was before the accel uplink ran in blocks, kept
    as the oracle; it also returns the per-second u and postures. It bills
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
    controller = TransmissionController(policy)
    ledger = overhead.OverheadLedger(L=overhead.SYMBOLS_PER_FEATURE)

    posture_pred = []
    us = []
    uploads = []
    skipped = 0
    event_lines = []
    for sec, frame in enumerate(frames):
        noisy = accel_channel.send(frame)
        ledger.raw_symbols += SYMBOLS_PER_FRAME
        filtered = gravity.process(per_frame_decode_raw([noisy]))
        u = float(gravity_feature(filtered, sec)[0])
        us.append(u)
        predicted = int(forest.predict(np.array([u]))[0])
        posture_pred.append(predicted)
        event = controller.observe(predicted, sec)
        if event is None:
            continue
        commands = dispatch(event, policy, ROOMS)
        event_lines.append(format_event(event))
        for command in commands:
            base_grid = (command.t * FPS) // SEGMENT_FRAMES
            camera = cameras[command.camera]
            ledger.n_t += command.segments
            for k in range(command.segments):
                grid = base_grid + k
                if (grid + 1) * SEGMENT_FRAMES > camera.total_frames:
                    skipped += 1
                    ledger.n_t -= 1
                    continue
                segment = camera.segment_at_grid(grid)
                sent = video_channel.send(encode(codec_model, segment))
                logits, _ = decode(codec_model, sent)
                label = camera.segment_label(grid)
                uploads.append(UploadRecord(
                    t=command.t, room=command.camera, grid_index=grid,
                    predicted=classify(logits),
                    truth_activity=None if label is None else label[0],
                    truth_room=None if label is None else label[1]))

    ledger.n_f = len(ROOMS) * (cameras[ROOMS[0]].total_frames // SEGMENT_FRAMES)

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

    return us, posture_pred, SimReport(
        overhead=overhead.report(ledger, scenario="simulation"),
        posture=posture_stats,
        activity_table=table,
        activity_accuracy=(truthed_correct / truthed) if truthed else None,
        n_events=len(controller.events),
        uploads=len(uploads),
        background_uploads=background,
        clamped_samples=clamped,
        event_lines=event_lines,
        skipped_uploads=skipped,
    )


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
        assert report.uploads == report.overhead["N_t"]
        assert len(report.event_lines) == report.n_events

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
        assert report.uploads == report.overhead["N_t"]
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
        assert report.overhead["N_t"] == report.uploads == 936
        assert report.skipped_uploads == 72
        assert 936 + 72 == 21 * 3 * 16


INVALID_CONFIG_LINES = [
    ("video_snr_db = nan", "video_snr_db"),
    ("accel_snr_db = nan", "accel_snr_db"),
    ("video_snr_db = -inf", "video_snr_db"),
    ("accel_snr_db = -inf", "accel_snr_db"),
    ("ack_targets = ,", "ack_targets names no room"),
    ("ack_targets = garage", "unknown room 'garage'"),
    ("ack_targets = kitchen, garage", "unknown room 'garage'"),
    ("settle_windows = -1", "settle_windows"),
    ("accel_noise_g = -0.05", "accel_noise_g"),
    ("pixel_noise = -0.005", "pixel_noise"),
    ("position_jitter = -4", "position_jitter"),
    ("validation_windows = 0", "validation_windows must be >= 1"),
    ("segments_per_ack = 0", "segments_per_ack must be >= 1"),
    ("scenario = sleeping:-5,resting:5", "step 0 duration -5s"),
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
        assert SimConfig().parse_targets() is None

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "missing.cfg")

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
        label = camera.segment_label(grid_index)
        upload[:] = [camera.room, grid_index,
                     label is not None and label[1] == camera.room]
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
