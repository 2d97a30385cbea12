"""CLI behaviour: exit codes, diagnostics, and artifact emission."""
import argparse
import hashlib
import io
import os
import re
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semcom.cli import build_parser, main
from semcom.codec import ACTIVITY_NAMES, Activity, CodecModel, save_model
from semcom.synthdata import ROOMS

PAPER_TABLE = """\
scenario: reference
L=4840  N_f=1852  N_t=36  N_b=922746880
method     SNR (dB)   overhead (symbols)
MPEG-4            7          356,573,829
MPEG-4           13          210,237,977
MPEG-4           19          145,780,221
MPEG-4           25          111,048,888
HAR-SC            -            8,963,680
HAR-SC-TC         -              174,240
HAR-SC-TC vs HAR-SC reduction: 98.0%
"""

CUSTOM_TABLE = """\
scenario: custom
L=4840  N_f=4  N_t=2  N_b=1000
method     SNR (dB)   overhead (symbols)
MPEG-4            7                  386
MPEG-4           13                  228
MPEG-4           19                  158
MPEG-4           25                  120
HAR-SC            -               19,360
HAR-SC-TC         -                9,680
HAR-SC-TC vs HAR-SC reduction: 50.0%
"""


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

    def test_ledger_source_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["overhead"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage" in err and "--paper" in err and "--n-f" in err

    @pytest.mark.parametrize("flags", [["--L", "10"], ["--n-t", "5"],
                                       ["--n-b", "0"], ["--L", "10", "--n-t", "5"]])
    def test_paper_refuses_custom_counters(self, capsys, flags):
        # these once went unread: the reference table printed, exit 0
        assert main(["overhead", "--paper", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --paper")
        assert captured.err.count("\n") == 1

    def test_custom_ledger_defaults_to_reference_l(self, tmp_path, capsys):
        target = tmp_path / "table.json"
        assert main(["overhead", "--n-f", "4", "--json", str(target)]) == 0
        capsys.readouterr()
        import json
        data = json.loads(target.read_text())
        assert (data["L"], data["N_f"], data["N_t"], data["N_b"]) == (
            4840, 4, 0, 0)

    def test_paper_and_custom_ledger_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["overhead", "--paper", "--n-f", "4"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_more_uploads_than_frames_is_a_negative_reduction(self, capsys):
        assert main(["overhead", "--n-f", "4", "--n-t", "9"]) == 0
        assert "reduction: -125.0%" in capsys.readouterr().out

    def test_json_emission(self, tmp_path, capsys):
        target = tmp_path / "table.json"
        assert main(["overhead", "--paper", "--json", str(target)]) == 0
        capsys.readouterr()
        assert target.exists()
        import json
        data = json.loads(target.read_text())
        assert data["L"] == 4840

    @pytest.mark.parametrize("flags,table,digest", [
        (["--paper"], PAPER_TABLE,
         "15b379e4d9cec08745babc2165de1ae50233e72f4d18b05f5d7191e3a538ded0"),
        (["--n-f", "4", "--n-t", "2", "--n-b", "1000"], CUSTOM_TABLE,
         "bc7a8e645bf70c336c88cbd91ef04e9bf15257ba9beaebb1a3ddce9377777ac6"),
    ], ids=["paper", "custom"])
    def test_text_and_json_bytes_pinned(self, tmp_path, capsys, flags, table,
                                        digest):
        # bytes recorded before report() took its counts as parameters
        target = tmp_path / "table.json"
        assert main(["overhead", *flags, "--json", str(target)]) == 0
        assert capsys.readouterr().out == table + f"wrote {target}\n"
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("flags,name", [
        (["--n-f", "4", "--n-b", "9" * 400], "n_b"),
        (["--n-f", "1", "--n-t", "9" * 400], "n_t"),
    ], ids=["n_b", "n_t"])
    def test_count_beyond_float64_is_one_line(self, capsys, flags, name):
        # these once died with OverflowError in c_mpeg / reduction_vs_sc
        assert main(["overhead", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} is beyond float64's range\n"

    def test_percentage_beyond_float64_is_one_line(self, capsys):
        # n_t = 10**306 is a float64, but its -1e308 % is not: this once
        # died with OverflowError in format_reduction_percent
        assert main(["overhead", "--n-f", "1", "--n-t", str(10**306)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: a reduction of -1e+306 has no float64 "
                                "percentage\n")


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


    def test_default_step_reading_pinned(self, capsys):
        assert main(["gradcheck", "--seed", "7", "--epsilon", "1e-5"]) == 0
        assert capsys.readouterr().out == (
            "max relative gradient error: 5.537e-09\n")

    @pytest.mark.parametrize("epsilon, reading", [("1", "1.829e+00"),
                                                  ("1e10", "1.454e+00")])
    def test_failed_check_is_one_error_line(self, capsys, epsilon, reading):
        assert main(["gradcheck", "--epsilon", epsilon]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: max relative gradient error {reading} "
                                "is not below 0.0001\n")

    def test_overflowing_step_is_one_line(self, capsys):
        # once three numpy RuntimeWarnings on stderr, then an error of 1.0
        assert main(["gradcheck", "--epsilon", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: loss is not finite at a step of 1e+308\n"


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
        # the label and posture files' bytes, recorded before the camera
        # owned the segment grid
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("segment_labels.csv", "postures.csv")}
        assert digests == {
            "segment_labels.csv": "dee18c6d6529ca0e5a806cb92c3e7508"
                                  "004b89f39bb89724e8cdeb197ca6aba5",
            "postures.csv": "351afbbb09d7d49ffdf4dd118fd6478b"
                            "d4e6ff6595319bbd7ef9fbbd601f4bfa"}
        # each SEMF stream's bytes, recorded before gen-data streamed them
        semf = {room: hashlib.sha256((out / f"{room}.semf").read_bytes())
                .hexdigest() for room in ROOMS}
        assert semf == {
            "bedroom": "aad9520c332e90a865e1643e9b02056d"
                       "7a1826a05ffeb76393b9a7cc759cc835",
            "living_room": "fb40d2f62fd5b34103da2e7659af1080"
                           "e34cc4c0568f9f659f9d4029e68ab991",
            "kitchen": "0ea439cdfbb396e066aa56477c458eb0"
                       "901c963c486a6971270e2d8af2b9922d"}

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

    def test_eval_rejects_nan_weight(self, tmp_path, capsys):
        """A signalling NaN once loaded with numpy's two-line cast warning
        and evaluated to a meaningless accuracy with exit 0."""
        path = tmp_path / "codec.semw"
        save_model(path, CodecModel(seed=1))
        data = bytearray(path.read_bytes())
        # first array's payload: after the 12-byte header, its u16 name
        # length, name, u8 rank and u32 dims
        (name_len,) = struct.unpack_from("<H", data, 12)
        rank = data[14 + name_len]
        start = 15 + name_len + 4 * rank
        data[start:start + 4] = struct.pack("<I", 0x7F800001)
        path.write_bytes(bytes(data))
        assert main(["eval", "--model", str(path), "--per-class", "1",
                     "--seeds", "1", "--snr-test", "25",
                     "--out", str(tmp_path / "eval.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "holds NaN" in captured.err
        assert not (tmp_path / "eval.csv").exists()


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

    @pytest.mark.parametrize("snr", ["1e308", "-1e308"])
    def test_eval_snr_beyond_float64_ratio(self, tmp_path, capsys, snr):
        # 1e308 once died with OverflowError in add_noise; -1e308 warned,
        # then reported an accuracy of non-finite symbols with exit 0
        model = tmp_path / "codec.semw"
        save_model(model, CodecModel(seed=1))
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(model), "--per-class", "1",
                     "--seeds", "1", f"--snr-test={snr}",
                     "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "normal float64")
        assert not out.exists()

    def test_train_forest_negative_seed(self, tmp_path, capsys):
        # once OverflowError in np.uint64(-1)
        out = tmp_path / "forest.semw"
        assert main(["train-forest", "--per-class", "5", "--seed", "-1",
                     "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "seed must be in [0, 2**64)")
        assert not out.exists()

    def test_train_codec_noise_seed_past_2_64(self, tmp_path, capsys):
        # the noise stream's seed is --seed + 2 = 2**64
        out = tmp_path / "codec.semw"
        assert main(["train-codec", "--per-class", "1", "--epochs", "1",
                     "--seed", str(2**64 - 2), "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, f"got {2**64}")
        assert not out.exists()

    def test_gen_data_negative_seed(self, tmp_path, capsys):
        # once masked to 32 bits: seed -1 wrote seed 2**32 - 1's data
        out = tmp_path / "data"
        assert main(["gen-data", "--seed", "-1", "--dwell", "3",
                     "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "seed must be >= 0, got -1")
        assert not out.exists()

    def test_gen_data_longer_than_a_day(self, tmp_path, capsys):
        # five dwells and four 4-s walks: 5 * 17,277 + 16 = 86,401 s; once
        # --dwell 100000000000000 died in a 25-line MemoryError traceback
        for dwell in ("17277", "100000000000000"):
            out = tmp_path / "data"
            assert main(["gen-data", "--dwell", dwell, "--out", str(out)]) == 1
            self.assert_one_line_error(capsys, "(one day) a run may simulate")
            assert not out.exists()

    def test_train_codec_negative_data_seed(self, tmp_path, capsys):
        out = tmp_path / "codec.semw"
        assert main(["train-codec", "--per-class", "1", "--epochs", "1",
                     "--data-seed", "-1", "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "seed must be >= 0, got -1")
        assert not out.exists()

    def test_eval_negative_data_seed(self, tmp_path, capsys):
        model = tmp_path / "codec.semw"
        save_model(model, CodecModel(seed=1))
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(model), "--per-class", "1",
                     "--seeds", "1", "--snr-test", "25", "--data-seed", "-1",
                     "--out", str(out)]) == 1
        self.assert_one_line_error(capsys, "seed must be >= 0, got -1")
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


class TestUnusableModelFiles:
    """Model files SEMW reads but the model cannot use: the commands exit 1
    with one line instead of a traceback or a hang."""

    @staticmethod
    def rewrite(path, name, index, value):
        from semcom.weights_io import read_arrays, write_arrays
        arrays = read_arrays(path)
        arrays[name][index] = value
        write_arrays(path, arrays)

    def test_eval_codec_with_infinite_epochs(self, tmp_path, capsys):
        model = tmp_path / "codec.semw"
        save_model(model, CodecModel(seed=1))
        self.rewrite(model, "meta", 0, np.inf)
        assert main(["eval", "--model", str(model), "--per-class", "1",
                     "--seeds", "1", "--out", str(tmp_path / "eval.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: meta epochs") and err.count("\n") == 1

    @pytest.mark.parametrize("name,index,value,fragment", [
        ("forest.meta", 2, np.inf, "forest.meta"),
        ("tree0.children", (0, 0), 99.0, "tree 0"),
    ], ids=["meta-inf", "child-out-of-range"])
    def test_simulate_with_unusable_forest(self, tmp_path, capsys, name,
                                           index, value, fragment):
        from semcom.forest import save_forest, train_forest
        from semcom.synthdata import make_posture_dataset
        save_model(tmp_path / "codec.semw", CodecModel(seed=1))
        forest = tmp_path / "forest.semw"
        save_forest(forest, train_forest(*make_posture_dataset(20, seed=0),
                                         n_trees=2))
        self.rewrite(forest, name, index, value)
        config = tmp_path / "sim.cfg"
        config.write_text(f"scenario = sleeping:8,eating:8\n"
                          f"codec_model = {tmp_path / 'codec.semw'}\n"
                          f"forest_model = {forest}\n"
                          f"out_report = {tmp_path / 'report.json'}\n"
                          f"out_events = {tmp_path / 'events.log'}\n")
        assert main(["simulate", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and fragment in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()



# a valid value of each numeric option of the fast commands; None marks an
# option that sizes work, drawn only from SIZES, never huge
VALID = {
    "overhead": {"--n-f": "4", "--L": "10", "--n-t": "2", "--n-b": "1000"},
    "gradcheck": {"--seed": "7", "--epsilon": "1e-5"},
    "train-forest": {"--seed": "3", "--data-seed": "5", "--per-class": None,
                     "--trees": None, "--max-depth": None},
}
ARTIFACT = {"overhead": ["--json", "table.json"],
            "train-forest": ["--out", "forest.semw"]}
SIZES = st.sampled_from(["0", "-1", "1", "2"])
HUGE = {int: "1" + "0" * 400, float: "1e308"}


def numeric_options(command):
    """{flag: type} of the command's int and float options."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {action.option_strings[0]: action.type
            for action in subparsers.choices[command]._actions
            if action.type in (int, float)}


def parses(kind, text):
    try:
        kind(text)
    except ValueError:
        return False
    return True


@st.composite
def fast_commands(draw):
    """(argv, whether argparse can parse every value, artifact file or None
    for stdout) of an overhead, gradcheck or train-forest run whose numeric
    options are drawn from {0, -1, nan, +-inf, huge, valid}."""
    command = draw(st.sampled_from(sorted(VALID)))
    types = numeric_options(command)
    values = {flag: draw(SIZES if valid is None else st.sampled_from(
                  ["0", "-1", "nan", "inf", "-inf", HUGE[types[flag]], valid]))
              for flag, valid in VALID[command].items()}
    argv = [command, *ARTIFACT.get(command, []),
            *(f"{flag}={value}" for flag, value in values.items())]
    parsable = all(parses(types[flag], value) for flag, value in values.items())
    return argv, parsable, ARTIFACT.get(command, [None, None])[1]


class TestNumericOptionsProperty:
    """Every numeric option of the fast commands, drawn from {0, -1, nan,
    +-inf, huge, valid}: a run exits 0 with a non-empty artifact and no
    nan on stdout, or exits 1 with exactly one stderr line and no
    artifact, or is argparse's own exit 2 for text its type cannot parse.
    No run prints a traceback or a numpy warning (the suite also makes
    RuntimeWarnings errors)."""

    def test_draws_cover_every_numeric_option(self):
        assert {command: set(numeric_options(command)) for command in VALID} \
            == {command: set(flags) for command, flags in VALID.items()}

    @settings(max_examples=150, deadline=None)
    @given(fast_commands())
    # once three numpy RuntimeWarnings, then exit 0
    @example((["gradcheck", "--seed=7", "--epsilon=1e308"], True, None))
    # finite steps whose check fails: once exit 1 with the reading on stdout
    @example((["gradcheck", "--seed=7", "--epsilon=1"], True, None))
    @example((["gradcheck", "--seed=7", "--epsilon=1e10"], True, None))
    @example((["overhead", "--json", "table.json", "--n-f=4", "--L=10",
               "--n-t=2", "--n-b=1000"], True, "table.json"))
    @example((["train-forest", "--out", "forest.semw", "--seed=3",
               f"--data-seed={HUGE[int]}", "--per-class=2", "--trees=2",
               "--max-depth=2"], True, "forest.semw"))
    def test_each_run_ends_one_of_three_ways(self, case):
        argv, parsable, artifact = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            old = os.getcwd()
            os.chdir(tmp)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                written = (os.path.getsize(artifact)
                           if artifact and os.path.exists(artifact) else None)
            finally:
                os.chdir(old)
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in out + err and "Warning" not in err
        if not parsable:
            assert code == 2 and "invalid" in err
        elif code == 0:
            assert (written if artifact else len(out)) > 0
            assert not re.search(r"\bnan\b", out, re.IGNORECASE)
        else:
            assert code == 1 and out == "" and written is None
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
