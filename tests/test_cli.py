"""CLI behaviour: exit codes, diagnostics, and artifact emission."""
import os
import subprocess
import sys

import numpy as np
import pytest

from semcom.cli import main
from semcom.codec import ACTIVITY_NAMES, Activity
from semcom.synthdata import ROOMS


class TestOverheadCommand:
    def test_paper_values(self, capsys):
        assert main(["overhead", "--paper"]) == 0
        out = capsys.readouterr().out
        assert "8,963,680" in out
        assert "174,240" in out
        assert "356,573,829" in out
        assert "210,237,977" in out
        assert "145,780,221" in out
        assert "111,048,888" in out
        assert "98.0%" in out

    def test_custom_ledger(self, capsys):
        assert main(["overhead", "--L", "10", "--n-f", "4", "--n-t", "2"]) == 0
        out = capsys.readouterr().out
        assert "40" in out and "20" in out

    def test_json_emission(self, tmp_path, capsys):
        target = tmp_path / "table.json"
        assert main(["overhead", "--paper", "--json", str(target)]) == 0
        capsys.readouterr()
        assert target.exists()
        import json
        data = json.loads(target.read_text())
        assert data["L"] == 4840


class TestGradcheckCommand:
    def test_default_seed_passes(self, capsys):
        assert main(["gradcheck", "--seed", "7"]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_bad_epsilon_diagnostic(self, capsys):
        assert main(["gradcheck", "--epsilon", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_diagnostic(self, capsys, epsilon):
        assert main(["gradcheck", "--epsilon", epsilon]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "epsilon" in captured.err
        assert captured.err.count("\n") == 1


class TestArgparseBehaviour:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["overhead", "--bogus"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestRuntimeImports:
    def test_scipy_stays_out_of_the_runtime(self):
        """scipy is a test-only oracle: importing it would add about 75 MB
        to the resident set of every run."""
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = ("import sys, semcom, semcom.simulate, semcom.cli; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestSimulateCommand:
    def test_missing_config_diagnostic(self, capsys):
        assert main(["simulate", "--config", "missing.cfg"]) == 1
        err = capsys.readouterr().err
        assert "file not found" in err

    def test_end_to_end_small(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["train-codec", "--per-class", "1", "--epochs", "1",
                     "--out", "codec.semw"]) == 0
        assert main(["train-forest", "--per-class", "20",
                     "--out", "forest.semw"]) == 0
        config = tmp_path / "sim.cfg"
        config.write_text(
            "seed = 1\n"
            "scenario = sleeping:8,eating:8\n"
            "codec_model = codec.semw\n"
            "forest_model = forest.semw\n"
            "out_report = report.json\n"
            "out_events = events.log\n")
        assert main(["simulate", "--config", str(config)]) == 0
        out = capsys.readouterr().out.splitlines()
        heading = out.index("detections (count, accuracy) by activity x room:")
        rows = out[heading + 1:heading + 1 + len(ACTIVITY_NAMES)]
        assert [row.split()[0] for row in rows] == [
            ACTIVITY_NAMES[a] for a in Activity]
        for row in rows:
            assert all(f"{room}: " in row for room in ROOMS)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "events.log").exists()

    def test_config_without_models_diagnostic(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("scenario = sleeping:8\n")
        assert main(["simulate", "--config", str(config)]) == 1
        assert "codec_model" in capsys.readouterr().err


class TestDataAndEval:
    def test_gen_data_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), "--dwell", "4"]) == 0
        capsys.readouterr()
        assert (out / "accel.csv").exists()
        assert (out / "postures.csv").exists()
        assert (out / "segment_labels.csv").exists()
        for room in ("bedroom", "living_room", "kitchen"):
            assert (out / f"{room}.semf").exists()
        from semcom.weights_io import read_frames
        frames = read_frames(out / "bedroom.semf")
        assert frames.shape[1:] == (112, 112, 3)

    def test_eval_writes_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["train-codec", "--per-class", "1", "--epochs", "1",
                     "--out", "codec.semw"]) == 0
        assert main(["eval", "--model", "codec.semw", "--per-class", "1",
                     "--seeds", "1", "--snr-test", "25",
                     "--out", "eval.csv"]) == 0
        capsys.readouterr()
        lines = (tmp_path / "eval.csv").read_text().strip().splitlines()
        assert lines[0] == "snr_test_db,accuracy_mean,accuracy_std"
        assert len(lines) == 2

    def test_eval_missing_model(self, capsys):
        assert main(["eval", "--model", "nope.semw"]) == 1
        assert "file not found" in capsys.readouterr().err


class TestDegenerateArguments:
    """Arguments that once ran to a nonsense artifact and exit 0 now fail
    with a one-line diagnostic and write nothing."""

    @staticmethod
    def assert_one_line_error(capsys, fragment):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("snr", ["nan", "-inf"])
    def test_train_codec_bad_snr(self, tmp_path, capsys, snr):
        out = tmp_path / "codec.semw"
        assert main(["train-codec", "--per-class", "1", "--epochs", "1",
                     f"--snr-train={snr}", "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "SNR")
        assert not out.exists()

    def test_eval_zero_seeds(self, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", "unused.semw", "--seeds", "0",
                     "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "--seeds")
        assert not out.exists()

    @pytest.mark.parametrize("per_class", ["0", "-1"])
    def test_train_forest_per_class_below_one(self, tmp_path, capsys,
                                              per_class):
        out = tmp_path / "forest.semw"
        assert main(["train-forest", "--per-class", per_class,
                     "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "n_per_class must be >= 1")
        assert not out.exists()

    def test_train_forest_zero_trees(self, tmp_path, capsys):
        out = tmp_path / "forest.semw"
        assert main(["train-forest", "--per-class", "5", "--trees", "0",
                     "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "tree")
        assert not out.exists()

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_train_forest_depth_below_one(self, tmp_path, capsys, depth):
        out = tmp_path / "forest.semw"
        assert main(["train-forest", "--per-class", "5", "--max-depth", depth,
                     "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "max_depth")
        assert not out.exists()

    def test_train_codec_zero_epochs(self, tmp_path, capsys):
        out = tmp_path / "codec.semw"
        assert main(["train-codec", "--per-class", "1", "--epochs", "0",
                     "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "epochs")
        assert not out.exists()

    def test_overhead_zero_symbols_prints_nothing(self, capsys):
        assert main(["overhead", "--L", "0", "--n-f", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: HAR-SC overhead is zero; "
                                "reduction undefined\n")

    def test_train_forest_accuracy_is_per_feature_vote(self, tmp_path, capsys):
        from semcom.forest import load_forest
        from semcom.synthdata import make_posture_dataset
        out = tmp_path / "forest.semw"
        assert main(["train-forest", "--per-class", "20", "--trees", "3",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        forest = load_forest(out)
        u, y = make_posture_dataset(20, seed=0)
        acc = sum(int(forest.predict(np.array([v]))[0]) == int(t)
                  for v, t in zip(u, y))
        assert f"training accuracy {acc / len(u):.3f};" in printed
