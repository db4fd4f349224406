import json

import numpy as np
import pytest

from pgpfr.cli import main


def write_config(tmp_path, **overrides):
    cfg = {
        "synth": {"classes": 6, "dim": 6, "per_class_train": 30,
                  "per_class_test": 10, "separation": 8.0, "seed": 1},
        "schedule": {"k": 3, "d": 1, "n_tasks": 4},
        "train": {"epochs_task0": 3, "epochs_incremental": 3,
                  "batch_size": 16, "lr": 0.001, "seed": 0},
        "losses": {"R": 0.3, "gamma": 1.0},
        "extractor": {"kind": "identity"},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_success_writes_outputs(self, tmp_path, capsys):
        code = main(["run", str(write_config(tmp_path))])
        assert code == 0
        out = tmp_path / "out"
        assert (out / "metrics.jsonl").exists()
        assert (out / "summary.csv").exists()
        records = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert len(records) == 4
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "task,global_acc,local_acc,ifm,old_acc,new_acc"

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        assert main(["run", str(write_config(tmp_path, bogus=1))]) == 2

    def test_unknown_nested_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["losses"]["mystery"] = 3
        cfg.write_text(json.dumps(raw))
        assert main(["run", str(cfg)]) == 2

    @pytest.mark.parametrize("override, message", [
        ("train.lr=abc", "train.lr must be a number, got 'abc'"),
        ("train.lr=NaN", "train.lr must be a number, got nan"),
        ("schedule.k=2.5", "schedule.k must be an integer, got 2.5"),
        ("train.batch_size=true", "train.batch_size must be an integer, got True"),
        ("train.epochs_task0=null", "train.epochs_task0 must be an integer, got None"),
        ("losses.R=abc", "losses.R must be a number, got 'abc'"),
        ("losses.R=Infinity", "losses.R must be a number, got inf"),
        ("losses.gamma=false", "losses.gamma must be a number, got False"),
        ("losses.enable_V=1", "losses.enable_V must be true or false, got 1"),
        ("schedule=3", "schedule must be an object, got 3"),
    ])
    def test_wrong_value_type_exits_2(self, tmp_path, capsys, override, message):
        assert main(["run", str(write_config(tmp_path)), "--set", override]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_divergence_exits_1_without_summary(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = main(["run", str(write_config(tmp_path)), "--set", "train.lr=1e300"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: task ") and "diverged" in err and err.count("\n") == 1
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_dataset_and_synth_both_given_exits_2(self, tmp_path, capsys):
        assert main(["run", str(write_config(tmp_path, dataset="x.pgfr"))]) == 2

    def test_runtime_validation_exits_1(self, tmp_path, capsys):
        # schedule needs more classes than the dataset has
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["schedule"]["n_tasks"] = 10
        cfg.write_text(json.dumps(raw))
        assert main(["run", str(cfg)]) == 1

    def test_reruns_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        first = (tmp_path / "out" / "summary.csv").read_bytes()
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "out" / "summary.csv").read_bytes() == first

    def test_set_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out2 = tmp_path / "out2"
        code = main(["run", str(cfg), "--set", f"output_dir={out2}"])
        assert code == 0 and (out2 / "summary.csv").exists()

    def test_env_output_dir_override(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        env_out = tmp_path / "envout"
        monkeypatch.setenv("PGPFR_OUTPUT_DIR", str(env_out))
        assert main(["run", str(cfg)]) == 0
        assert (env_out / "summary.csv").exists()

    def test_input_config_not_mutated(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        before = cfg.read_bytes()
        main(["run", str(cfg), "--set", "train.epochs_task0=1"])
        assert cfg.read_bytes() == before


class TestSynth:
    def test_writes_loadable_file(self, tmp_path, capsys):
        out = tmp_path / "d.pgfr"
        code = main(["synth", "--classes", "3", "--dim", "4",
                     "--per-class-train", "5", "--per-class-test", "2",
                     "--out", str(out)])
        assert code == 0
        from pgpfr.dataio import load_dataset
        assert load_dataset(out).n_samples == 21

    def test_seed_repeatable(self, tmp_path, capsys):
        a, b = tmp_path / "a.pgfr", tmp_path / "b.pgfr"
        args = ["synth", "--classes", "3", "--dim", "4", "--per-class-train",
                "5", "--per-class-test", "2", "--seed", "4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_dim_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--dim", "0", "--out", str(tmp_path / "x")]) == 2


class TestInspect:
    def test_histogram(self, tmp_path, capsys):
        out = tmp_path / "d.pgfr"
        main(["synth", "--classes", "3", "--dim", "4", "--per-class-train",
              "5", "--per-class-test", "2", "--out", str(out)])
        assert main(["inspect", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "samples: 21" in printed
        assert printed.count("\n") >= 7  # header lines + one row per class

    def test_corrupted_magic_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.pgfr"
        p.write_bytes(b"XXXX" + b"\x00" * 30)
        assert main(["inspect", str(p)]) == 1

    def test_empty_file_exits_1(self, tmp_path, capsys):
        p = tmp_path / "empty.pgfr"
        p.write_bytes(b"")
        assert main(["inspect", str(p)]) == 1

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "absent.pgfr")]) == 1
