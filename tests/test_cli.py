import functools
import json
import os
import struct
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pgpfr import cli
from pgpfr.cli import main
from pgpfr.dataio import save_dataset, synth_gaussian

SRC = Path(__file__).resolve().parents[1] / "src"
# over 2**47 bytes (the user address space), so numpy's allocation fails at
# once and nothing is touched
HUGE = 10 ** 13


def run_cli(*args):
    """Run the CLI in a fresh interpreter, as the `pgpfr` script would."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "pgpfr.cli", *map(str, args)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def assert_one_line_error(proc, code):
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


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


def csv_config(tmp_path, data: bytes):
    """A config that reads `data` as its dataset CSV."""
    (tmp_path / "d.csv").write_bytes(data)
    cfg = write_config(tmp_path)
    raw = json.loads(cfg.read_text())
    del raw["synth"]
    raw["dataset"] = str(tmp_path / "d.csv")
    cfg.write_text(json.dumps(raw))
    return cfg


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
        ("losses.R=NaN", "losses.R must be a number, got nan"),
        ("losses.gamma=NaN", "losses.gamma must be a number, got nan"),
        ("losses.enable_V=1", "losses.enable_V must be true or false, got 1"),
        ("schedule=3", "schedule must be an object, got 3"),
        ("schedule.class_order_seed=null",
         "schedule.class_order_seed must be an integer, got None"),
        (f"train.lr={10 ** 400}", f"train.lr must be a number, got {10 ** 400}"),
        # keys that only restated another setting are gone
        ("extractor.input_dim=3", "unknown key(s) ['input_dim'] in extractor"),
        ("losses.enable_sharpening=false", "unknown key(s) ['enable_sharpening'] in losses"),
    ])
    def test_wrong_value_type_exits_2(self, tmp_path, capsys, override, message):
        assert main(["run", str(write_config(tmp_path)), "--set", override]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_number_is_stored_as_a_float(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path), ["synth.separation=18446744073709551616",
                                                       "train.lr=1"])
        assert cfg["synth"]["separation"] == 2.0 ** 64 and cfg["train"]["lr"] == 1.0
        assert type(cfg["synth"]["separation"]) is float and type(cfg["train"]["lr"]) is float

    @pytest.mark.parametrize("where", ["file", "override"])
    @pytest.mark.parametrize("text", ["9" * 5000, "[" * 100000])
    def test_too_many_digits_or_too_deep_exits_2(self, tmp_path, capsys, where, text):
        cfg = write_config(tmp_path)
        if where == "file":
            cfg.write_text(cfg.read_text()[:-1] + f', "x": {text}}}')
            argv = ["run", str(cfg)]
        else:
            argv = ["run", str(cfg), "--set", f"train.lr={text}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @staticmethod
    def assert_diverges_in_one_line(tmp_path, capsys, override):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(write_config(tmp_path)), "--set", override])
        assert code == 1 and not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert err.startswith("error: task ") and "diverged" in err and err.count("\n") == 1
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_divergence_exits_1_without_summary(self, tmp_path, capsys):
        self.assert_diverges_in_one_line(tmp_path, capsys, "train.lr=1e300")

    @pytest.mark.parametrize("override", [
        "train.lr=1e308", "losses.gamma=1e308", "losses.R=1e-320"])
    def test_overflow_diverges_in_one_line_without_a_warning(self, tmp_path, capsys, override):
        self.assert_diverges_in_one_line(tmp_path, capsys, override)

    @pytest.mark.parametrize("n_tasks", [1, 3])
    def test_diverged_backbone_exits_1_naming_task_0(self, tmp_path, n_tasks):
        # one step at lr 1e300 leaves finite backbone weights near 1e300, so
        # the loss was finite but the embedded features overflow
        cfg = write_config(
            tmp_path, synth={"classes": 4, "dim": 6, "per_class_train": 30,
                             "per_class_test": 10, "seed": 1},
            schedule={"k": 2, "d": 1, "n_tasks": n_tasks},
            extractor={"kind": "mlp1", "feature_dim": 4, "hidden_dim": 8})
        proc = run_cli("run", cfg, "--set", "train.lr=1e300", "--set", "train.batch_size=1000",
                       "--set", "train.epochs_task0=1")
        assert_one_line_error(proc, 1)
        assert proc.stderr.startswith("error: task 0 diverged: ")
        assert "features are non-finite" in proc.stderr
        assert not (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize("lr", ["1e20", "1e30", "1e38", "1e39"])
    def test_float32_backbone_range_ends_at_3_4e38(self, tmp_path, capsys, lr):
        # the backbone is float32: one Adam step at this rate leaves weights
        # near lr (or inf), and the second step's features pass 3.4e38
        cfg = write_config(
            tmp_path, synth={"classes": 4, "dim": 6, "per_class_train": 20,
                             "per_class_test": 5, "seed": 1},
            schedule={"k": 2, "d": 1, "n_tasks": 3},
            train={"epochs_task0": 2, "epochs_incremental": 2, "batch_size": 8,
                   "lr": 0.001, "seed": 0},
            extractor={"kind": "mlp1", "feature_dim": 4, "hidden_dim": 8})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(cfg), "--set", f"train.lr={lr}"])
        assert code == 1 and not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err == "error: task 0 diverged: loss nan at epoch 0, step 1\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_dataset_and_synth_both_given_exits_2(self, tmp_path, capsys):
        assert main(["run", str(write_config(tmp_path, dataset="x.pgfr"))]) == 2

    def test_runtime_validation_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for override, message in [
                # the schedule needs more classes than the dataset has
                ("schedule.n_tasks=10", "schedule requires more classes than the dataset provides"),
                # a hidden width the identity backbone has no use for
                ("extractor.hidden_dim=8", "hidden_dim is for mlp1 only; identity takes none, got 8")]:
            assert main(["run", str(cfg), "--set", override]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        "synth.seed=-1", "schedule.class_order_seed=-1", "train.seed=-1",
        "extractor.seed=-1"])
    def test_negative_seed_exits_1(self, tmp_path, override):
        proc = run_cli("run", write_config(tmp_path), "--set", override)
        assert_one_line_error(proc, 1)
        assert "seed must be >= 0, got -1" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row", ["0,test,abc", "abc,test,1.0"])
    def test_non_numeric_csv_value_exits_1(self, tmp_path, row):
        data = f"label,split,f0\n0,train,1.0\n{row}\n".encode()
        proc = run_cli("run", csv_config(tmp_path, data))
        assert_one_line_error(proc, 1)
        assert "CSV line 3" in proc.stderr

    @pytest.mark.parametrize("label", ["-1", "99999999999999999999"])
    def test_csv_label_outside_u32_exits_1(self, tmp_path, label):
        data = f"label,split,f0\n0,train,1.0\n{label},test,1.0\n".encode()
        proc = run_cli("run", csv_config(tmp_path, data))
        assert_one_line_error(proc, 1)
        assert f"CSV line 3: label {label} outside [0, 2**32)" in proc.stderr

    def test_non_utf8_csv_exits_1(self, tmp_path):
        data = b"label,split,f0\n0,train,1.0\n0,te\xffst,1.0\n"
        proc = run_cli("run", csv_config(tmp_path, data))
        assert_one_line_error(proc, 1)
        assert proc.stderr == "error: CSV line 3 is not UTF-8\n"
        assert not (tmp_path / "out").exists()

    def test_csv_value_outside_float32_exits_1(self, tmp_path):
        data = b"label,split,f0\n0,train,1.0\n0,test,1e39\n"
        proc = run_cli("run", csv_config(tmp_path, data))
        assert_one_line_error(proc, 1)
        assert proc.stderr == "error: CSV line 3: feature 1e+39 is not a finite float32\n"
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_exits_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff\xfe{}")
        proc = run_cli("run", cfg)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: cannot read config: 'utf-8' codec")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("key", ["classes", "dim"])
    def test_synth_without_required_key_exits_2(self, tmp_path, key):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["synth"][key]
        cfg.write_text(json.dumps(raw))
        proc = run_cli("run", cfg)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr == f"config error: missing key(s) ['{key}'] in synth\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        [f"synth.dim={HUGE}"],
        ["extractor.kind=mlp1", f"extractor.hidden_dim={HUGE}"],
        # beyond what numpy can address: rejected before numpy sees the shape
        [f"synth.dim={2 ** 63}"],
        [f"synth.classes={10 ** 20}"],
        [f"synth.per_class_train={2 ** 63 - 1}"],
        ["extractor.kind=mlp1", "extractor.hidden_dim=4", f"extractor.feature_dim={2 ** 63}"],
        ["extractor.kind=mlp1", f"extractor.hidden_dim={10 ** 20}"],
        ["extractor.kind=linear", f"extractor.feature_dim={2 ** 64}"]])
    def test_size_too_large_to_allocate_exits_1(self, tmp_path, overrides):
        proc = run_cli("run", write_config(tmp_path),
                       *[a for o in overrides for a in ("--set", o)])
        assert_one_line_error(proc, 1)
        assert "Unable to allocate" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_float32_overflow_separation_exits_1(self, tmp_path):
        proc = run_cli("run", write_config(tmp_path), "--set", "synth.separation=1e39")
        assert_one_line_error(proc, 1)
        assert proc.stderr == "error: separation 1e+39 overflows the float32 feature range\n"
        assert not (tmp_path / "out").exists()

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

    def test_flags_left_out_default_as_a_config_synth_section(self, tmp_path, capsys):
        # both routes leave per_class_train, per_class_test and separation
        # to synth_gaussian's defaults
        flags = tmp_path / "flags.pgfr"
        assert main(["synth", "--classes", "4", "--dim", "6", "--seed", "1",
                     "--out", str(flags)]) == 0
        cfg = cli.load_config(write_config(tmp_path, synth={"classes": 4, "dim": 6, "seed": 1}))
        save_dataset(cli._build_dataset(cfg), tmp_path / "config.pgfr")
        assert (tmp_path / "config.pgfr").read_bytes() == flags.read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "synth seed must be >= 0, got -1"),
        ("--separation", "nan", "separation must be finite and >= 0, got nan"),
        ("--separation", "inf", "separation must be finite and >= 0, got inf"),
        ("--separation", "1e39", "separation 1e+39 overflows the float32 feature range"),
    ])
    def test_bad_value_exits_2_without_a_file(self, tmp_path, flag, value, message):
        out = tmp_path / "d.pgfr"
        proc = run_cli("synth", "--classes", "3", "--dim", "4", flag, value, "--out", out)
        assert_one_line_error(proc, 2)
        assert proc.stderr == f"error: {message}\n"
        assert not out.exists()

    def test_size_too_large_to_allocate_exits_1_without_a_file(self, tmp_path):
        out = tmp_path / "d.pgfr"
        proc = run_cli("synth", "--classes", "3", "--dim", HUGE, "--out", out)
        assert_one_line_error(proc, 1)
        assert "Unable to allocate" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--dim", 2 ** 63), ("--dim", 2 ** 62), ("--classes", 2 ** 64),
        ("--per-class-train", 2 ** 63 - 1)])
    def test_size_beyond_numpys_limit_exits_1_without_a_file(self, tmp_path, flag, value):
        out = tmp_path / "d.pgfr"
        proc = run_cli("synth", flag, value, "--out", out)
        assert_one_line_error(proc, 1)
        assert "more bytes than numpy can address" in proc.stderr
        assert not out.exists()


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

    def test_record_too_large_exits_1(self, tmp_path):
        p = tmp_path / "huge.pgfr"
        p.write_bytes(b"PGFR" + struct.pack("<IQI", 1, 0, 2 ** 31))
        proc = run_cli("inspect", p)
        assert_one_line_error(proc, 1)
        assert "feature dim 2147483648 too large for a record" in proc.stderr

    def test_memory_error_exits_1(self, tmp_path, capsys, monkeypatch):
        def refuse(path):
            raise MemoryError("Unable to allocate 1.00 PiB")
        monkeypatch.setattr(cli, "load_dataset", refuse)
        assert main(["inspect", str(tmp_path / "d.pgfr")]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 1.00 PiB\n"


# `--set` values the fuzz draws from. Size keys add counts of at most 6 and
# keep 2**64, a shape numpy cannot address, so it is rejected before anything
# is allocated. Epoch keys draw counts of at most 2 instead of 2**64, so no
# case loops for long. The removed keys and an unknown one are drawn too.
FUZZ_POOL = [0, -1, 2 ** 64, 1e-320, 1e308, True, None, [], "x", "mlp1", "linear"]
SIZE_KEYS = {"synth.classes", "synth.dim", "synth.per_class_train", "synth.per_class_test",
             "schedule.k", "schedule.d", "schedule.n_tasks", "train.batch_size",
             "extractor.feature_dim", "extractor.hidden_dim"}
EPOCH_KEYS = {"train.epochs_task0", "train.epochs_incremental"}
FUZZ_KEYS = sorted(
    [f"{sec}.{key}" for sec, keys in cli._SCHEMA.items() if isinstance(keys, dict)
     for key in keys]
    + ["dataset", "output_dir", "schedule", "extractor.input_dim",
       "losses.enable_sharpening", "bogus.key"])
FUZZ_CONFIG = {
    "synth": {"classes": 4, "dim": 3, "per_class_train": 6, "per_class_test": 2,
              "separation": 8.0, "seed": 1},
    "schedule": {"k": 2, "d": 1, "n_tasks": 3},
    "train": {"epochs_task0": 1, "epochs_incremental": 1, "batch_size": 4,
              "lr": 0.01, "seed": 0},
    "output_dir": "out",
}


def _set_value(key: str) -> st.SearchStrategy:
    if key in SIZE_KEYS:
        pool = FUZZ_POOL + list(range(1, 7))
    elif key in EPOCH_KEYS:
        pool = [v for v in FUZZ_POOL if v != 2 ** 64] + list(range(3))
    else:
        pool = FUZZ_POOL
    return st.sampled_from(pool).map(
        lambda v: f"{key}={v if isinstance(v, str) else json.dumps(v)}")


@functools.cache
def fuzz_pgfr() -> bytes:
    """A valid 4-class, 3-d dataset file, made once."""
    with TemporaryDirectory() as d:
        save_dataset(synth_gaussian(4, 3, 6, 2, 8.0, seed=1), Path(d) / "d.pgfr")
        return (Path(d) / "d.pgfr").read_bytes()


class TestFuzz:
    """`main` on mutated configs, corrupted files and synth flags: it exits
    0, 1 or 2, prints one stderr line on a failure, and neither raises nor
    warns. Each case runs in a fresh working directory."""

    @staticmethod
    def call(argv, files=()):
        out, err = StringIO(), StringIO()
        cwd = os.getcwd()
        with TemporaryDirectory() as d, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            os.chdir(d)
            try:
                for name, data in files:
                    Path(name).write_bytes(data)
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        event(f"{argv[0]} exits {code}")

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(FUZZ_KEYS).flatmap(_set_value), max_size=3))
    def test_mutated_config(self, overrides):
        self.call(["run", "c.json", *[a for o in overrides for a in ("--set", o)]],
                  [("c.json", json.dumps(FUZZ_CONFIG).encode())])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)), max_size=3),
           st.none() | st.integers(min_value=0))
    def test_corrupted_file(self, flips, cut):
        data = bytearray(fuzz_pgfr())
        for at, mask in flips:
            data[at % len(data)] ^= mask
        data = bytes(data if cut is None else data[:cut % (len(data) + 1)])
        cfg = dict(FUZZ_CONFIG, dataset="d.pgfr")
        del cfg["synth"]
        files = [("d.pgfr", data), ("c.json", json.dumps(cfg).encode())]
        self.call(["inspect", "d.pgfr"], files)
        self.call(["run", "c.json"], files)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([-1, 0, 1, 6, 2 ** 63]), st.sampled_from([-1, 0, 1, 6, 2 ** 63]),
           st.sampled_from([-1, 0, 1, 6, 2 ** 63]), st.sampled_from([-1, 0, 1, 6, 2 ** 63]),
           st.sampled_from([0.0, -1.0, 2.5, 1e-320, 1e308, 1e39, float("nan"), float("inf")]),
           st.sampled_from([0, -1, 3, 2 ** 64]))
    def test_synth_flags(self, classes, dim, per_train, per_test, separation, seed):
        self.call(["synth", "--classes", str(classes), "--dim", str(dim),
                   "--per-class-train", str(per_train), "--per-class-test", str(per_test),
                   "--separation", str(separation), "--seed", str(seed), "--out", "d.pgfr"])
