"""Simulation-loop tests: ledger double-entry, determinism, the
no-transition degenerate case, and config validation."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom.cli import main as cli_main

from semcom.codec import ACTIVITY_NAMES, CodecModel
from semcom.config import SimConfig, load_config, parse_config_text
from semcom.forest import train_forest
from semcom.simulate import _settled_mask, run_simulation
from semcom.synthdata import ROOMS, WALK_SECONDS, make_posture_dataset


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


class TestSettledMask:
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
