"""Simulation-loop tests: ledger double-entry, determinism, and the
no-transition degenerate case."""
import pytest

from semcom.codec import CodecModel
from semcom.config import SimConfig, load_config, parse_config_text
from semcom.forest import train_forest
from semcom.simulate import _settled_mask, run_simulation
from semcom.synthdata import make_posture_dataset


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
        cfg = SimConfig(scenario="sleeping:2", validation_windows=3)
        with pytest.raises(ValueError, match="validation"):
            cfg.parse_scenario()
