"""Command-line behavior: config resolution, artifacts, determinism."""

import concurrent.futures
import json
import multiprocessing
import os
import random
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import nonce_lab
from nonce_lab import cli, dsp, tracesim
from nonce_lab.cli import derive_seed, main, resolve_config, build_parser
from nonce_lab.analysis import fit_swap_classifier, harvest_swap_windows, read_model, write_model
from nonce_lab.errors import AlignmentError
from nonce_lab.ff_curve import get_curve
from nonce_lab.ecdsa import keygen, read_private_key, sign, write_private_key, write_signatures
from nonce_lab.simconfig import SimConfig
from nonce_lab.tracesim import (
    TRACE_MAGIC,
    TRACE_VERSION,
    LeakageTrace,
    generate_training_set,
    labels_path,
    read_trace_set,
    training_nonces,
)


def run_cli(*argv):
    return main([str(a) for a in argv])


def assert_one_error_line(capsys, kind):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {kind}: "), err


def _outputs(out):
    """Every output file's bytes; config.json without its out and jobs lines."""
    blobs = {}
    for path in sorted(out.iterdir()):
        blob = path.read_bytes()
        if path.name == "config.json":
            blob = b"".join(
                line for line in blob.splitlines(keepends=True)
                if not line.lstrip().startswith((b'"out":', b'"jobs":'))
            )
        blobs[path.name] = blob
    return blobs


def run_fresh(code, *argv):
    """Stdout of ``python -c code argv...`` in a fresh interpreter."""
    src = str(Path(nonce_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


def test_cli_import_loads_no_scipy():
    probe = "import sys, nonce_lab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert run_fresh(probe).strip() == "[]"


@pytest.mark.parametrize("command", ["keygen", "sign", "verify", "recover", "experiment"])
def test_integer_commands_load_no_numpy(tmp_path, toy, command):
    rng = random.Random(11)
    key = keygen(toy, rng)
    write_private_key(tmp_path / "key.txt", key)
    sigs, known = [], []
    for _ in range(3):
        sig, nonce = sign(rng.randrange(1, toy.n), key, rng)
        sigs.append(sig)
        known.append(f"a={nonce.k.value % 4096:x}\n")
    write_signatures(tmp_path / "sigs.txt", sigs)
    (tmp_path / "known.txt").write_text("".join(known))
    grid = write_config(
        tmp_path / "grid.json", grid_leak_bits=[12], grid_signatures=[3], trials=2
    )
    key_arg = ["--key", tmp_path / "key.txt"]
    sigs_arg = ["--signatures", tmp_path / "sigs.txt"]
    argv = {
        "keygen": [],
        "sign": key_arg,
        "verify": key_arg + sigs_arg,
        "recover": key_arg + sigs_arg + ["--known", tmp_path / "known.txt", "--leak-bits", 12],
        "experiment": ["--config", grid, "--jobs", 2],
    }[command]
    probe = (
        "import sys; from nonce_lab.cli import main; code = main(sys.argv[1:]); "
        "print(code, sorted(m for m in sys.modules if m.startswith(('numpy', 'scipy'))), "
        "sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent.futures.process'))))"
    )
    out = run_fresh(probe, command, "--curve", "toy16", "--out", tmp_path / "out", *argv)
    # No process pool either: the one-cell grid runs in this process.
    assert out.splitlines()[-1] == "0 [] []"


def test_attack_starts_no_process_pool(tmp_path):
    cfg = write_config(tmp_path / "atk.json", samples_per_event=16, noise_sigma=0.0, seed=4)
    probe = (
        "import sys; from nonce_lab.cli import main; code = main(sys.argv[1:]); "
        "print(code, sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent.futures.process'))))"
    )
    argv = ["attack", "--curve", "toy16", "--config", cfg, "--out", tmp_path / "out"]
    assert run_fresh(probe, *argv).splitlines()[-1] == "0 []"


def write_config(path, **values):
    path.write_text(json.dumps(values))
    return str(path)


@pytest.fixture()
def toy_sim_config(tmp_path):
    return write_config(
        tmp_path / "sim.json",
        samples_per_event=16,
        noise_sigma=1.0,
        count=80,
        word_count=4,
    )


ECHOED_CONFIG = """\
{
  "activity_floor": 4.0,
  "baseline": 1.0,
  "command": "keygen",
  "count": 200,
  "curve": "toy16",
  "digest": null,
  "f_cpu": 1800000.0,
  "grid_error_rates": [
    0.0,
    0.05
  ],
  "grid_leak_bits": [
    8,
    10
  ],
  "grid_signatures": [
    3
  ],
  "interference": [
    [
      0.3,
      0.1,
      5.0
    ],
    [
      0.5,
      0.25,
      2.0
    ]
  ],
  "interruption_prob": 0.0,
  "jobs": null,
  "leak_bits": null,
  "max_tries": 20,
  "multiplier": "ladder",
  "noise_sigma": 2.0,
  "out": "run",
  "poi_count": 64,
  "sample_rate": 2500000.0,
  "samples_per_event": 64,
  "seed": 3,
  "shape": "windows",
  "snr_scale": 0.25,
  "strategy": "direct",
  "template_mode": "diag",
  "trials": 100,
  "variant": "plain",
  "version": "0.1.0",
  "word_count": 1
}
"""


class TestConfigResolution:
    def parse(self, *argv):
        return build_parser().parse_args([str(a) for a in argv])

    def test_defaults(self):
        rc = resolve_config(self.parse("keygen"))
        assert rc.curve == "secp521r1"
        assert rc.variant == "plain"
        assert rc.seed == 0
        # None: every CPU the process may run on, resolved at use, so
        # config.json reads the same on every machine.
        assert rc.jobs is None
        assert rc.out == "out-keygen"

    @pytest.mark.parametrize("cpus, inline", [(None, True), (1, True), (3, False)])
    def test_default_jobs_without_cpu_affinity(self, monkeypatch, cpus, inline):
        # Where the system cannot report the usable CPUs, the default
        # falls back to the CPU count, and to this process alone when
        # that is unknown.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        with cli._executor(None, 2) as pool:
            assert isinstance(pool, cli._InlineExecutor) is inline
            assert pool.submit(sum, (1, 2)).result() == 3
        assert multiprocessing.active_children() == []

    def test_config_echo_is_byte_stable(self, tmp_path, monkeypatch):
        # Tuples (bursts, grid axes) are written as JSON arrays.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(
            tmp_path / "c.json", curve="toy16",
            interference=[[0.3, 0.1, 5.0], [0.5, 0.25, 2]],
            grid_leak_bits=[8, 10], grid_signatures=[3], grid_error_rates=[0.0, 0.05],
        )
        assert run_cli("keygen", "--config", cfg, "--seed", 3, "--out", "run") == 0
        assert (tmp_path / "run/config.json").read_text() == ECHOED_CONFIG

    def test_flags_override_file(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", curve="toy16", seed=11, count=5)
        rc = resolve_config(self.parse("keygen", "--config", cfg, "--seed", 99))
        assert rc.curve == "toy16"
        assert rc.seed == 99
        assert rc.count == 5

    def test_env_seed_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("NONCE_LAB_SEED", "321")
        rc = resolve_config(self.parse("keygen"))
        assert rc.seed == 321
        # Config file beats the environment.
        cfg = write_config(tmp_path / "c.json", seed=7)
        rc = resolve_config(self.parse("keygen", "--config", cfg))
        assert rc.seed == 7
        monkeypatch.setenv("NONCE_LAB_SEED", "junk")
        with pytest.raises(Exception):
            resolve_config(self.parse("keygen"))

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        # train_count sized the profiling that attack no longer runs.
        for key in ("noise_sgima", "train_count"):
            cfg = write_config(tmp_path / "c.json", **{key: 8})
            assert run_cli("keygen", "--config", cfg, "--out", tmp_path / "o") == 1
            err = capsys.readouterr().err
            assert "error: config:" in err
            assert key in err

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", variant="stealth")
        assert run_cli("keygen", "--config", cfg) == 1
        assert "variant" in capsys.readouterr().err

    def test_non_finite_value_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", sample_rate=float("nan"))
        code = run_cli("simulate", "--config", cfg, "--out", tmp_path / "o")
        assert code in (1, 2)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        assert run_cli("keygen", "--config", str(path)) == 1
        assert "error: config:" in capsys.readouterr().err

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"seed": 1, "curve": "\xff"}')
        assert run_cli("keygen", "--config", str(path)) == 1
        assert_one_error_line(capsys, "config")

    @pytest.mark.parametrize(
        "text", ['{"count": 1e400}', '{"noise_sigma": 1' + "0" * 400 + "}"],
        ids=["int-of-infinity", "float-of-huge-int"],
    )
    def test_overflowing_value_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert run_cli("keygen", "--config", str(path)) == 1
        assert_one_error_line(capsys, "config")

    @pytest.mark.parametrize(
        "argv, values",
        [
            (["simulate", "--count", 0], {}),
            (["simulate", "--count", -3], {}),
            # No longer a key: rejected as any unknown key is.
            (["attack", "--curve", "secp128r1"], {"train_count": 0}),
            (["attack", "--curve", "secp128r1"], {"train_count": -2}),
        ],
        ids=["count-0", "count-negative", "train_count-0", "train_count-negative"],
    )
    def test_non_positive_counts_rejected(self, tmp_path, capsys, argv, values):
        cfg = write_config(tmp_path / "c.json", **values)
        assert run_cli(*argv, "--config", cfg, "--out", tmp_path / "o") == 1
        assert_one_error_line(capsys, "config")

    def test_derive_seed_is_stable_and_labeled(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert 0 <= derive_seed(0, "x") < 2**64


def test_unpicklable_task_raises_and_joins_the_workers():
    # A task that cannot reach a worker fails its future; the error must
    # surface and the workers be joined, not wait for its result forever.
    probe = (
        "import multiprocessing, pickle\n"
        "from nonce_lab import cli\n"
        "try:\n"
        "    with cli._executor(2, 3) as pool:\n"
        "        list(pool.map(abs, [lambda: 1, lambda: 2, 3]))\n"
        "except pickle.PicklingError:\n"
        "    print('raised', multiprocessing.active_children())\n"
    )
    assert run_fresh(probe).strip() == "raised []"


class TestKeySignVerify:
    def test_round_trip(self, tmp_path, toy, capsys):
        kg = tmp_path / "kg"
        assert run_cli("keygen", "--curve", "toy16", "--seed", 5, "--out", kg) == 0
        key = read_private_key(kg / "key.txt", toy)
        assert 1 <= key.d < toy.n

        sg = tmp_path / "sg"
        assert run_cli(
            "sign", "--key", kg / "key.txt", "--curve", "toy16",
            "--seed", 5, "--count", 3, "--out", sg,
        ) == 0
        assert run_cli(
            "verify", "--key", kg / "key.txt",
            "--signatures", sg / "signatures.txt", "--curve", "toy16",
        ) == 0

    def test_verify_flags_forgery(self, tmp_path, toy, rng, capsys):
        key = keygen(toy, rng)
        other = keygen(toy, rng)
        sig, _ = sign(17, other, rng)
        write_private_key(tmp_path / "key.txt", key)
        write_signatures(tmp_path / "sigs.txt", [sig])
        assert run_cli(
            "verify", "--key", tmp_path / "key.txt",
            "--signatures", tmp_path / "sigs.txt", "--curve", "toy16",
        ) == 2
        assert "INVALID" in capsys.readouterr().out

    def test_bad_hex_key_is_input_error(self, tmp_path, capsys):
        (tmp_path / "k.txt").write_text("d=zz\n")
        assert run_cli(
            "sign", "--key", tmp_path / "k.txt", "--curve", "toy16",
            "--out", tmp_path / "sg",
        ) == 1
        assert_one_error_line(capsys, "input")

    def test_keygen_is_deterministic(self, tmp_path, toy):
        for name in ("a", "b"):
            run_cli("keygen", "--curve", "toy16", "--seed", 8, "--out", tmp_path / name)
        assert (tmp_path / "a/key.txt").read_bytes() == (tmp_path / "b/key.txt").read_bytes()


class TestSimulatePipeline:
    def test_simulate_assess_train_classify(self, tmp_path, toy_sim_config, capsys):
        sim = tmp_path / "sim"
        assert run_cli(
            "simulate", "--config", toy_sim_config, "--curve", "toy16",
            "--seed", 9, "--out", sim,
        ) == 0
        assert (sim / "traces.trc").exists()
        assert (sim / "traces.labels.csv").exists()
        assert json.loads((sim / "config.json").read_text())["command"] == "simulate"

        assert run_cli(
            "assess", "--traces", sim / "traces.trc",
            "--config", toy_sim_config, "--out", tmp_path / "assess",
        ) == 0
        out = capsys.readouterr().out
        assert "verdict=LEAKING" in out
        assert (tmp_path / "assess/tvla.csv").read_text().startswith("sample_index,t_value")

        assert run_cli(
            "train", "--traces", sim / "traces.trc",
            "--config", toy_sim_config, "--out", tmp_path / "train",
        ) == 0
        assert run_cli(
            "classify", "--traces", sim / "traces.trc",
            "--model", tmp_path / "train/model.tmpl",
            "--config", toy_sim_config, "--out", tmp_path / "cls",
        ) == 0
        out = capsys.readouterr().out
        assert "accuracy=1.0000" in out
        lines = (tmp_path / "cls/predictions.csv").read_text().splitlines()
        assert lines[0] == "window_index,cond_guess,probability,label"
        assert len(lines) == 81

    @pytest.mark.parametrize("shape", ["windows", "scalars"])
    def test_simulate_starts_no_process_pool(self, tmp_path, toy_sim_config, monkeypatch, shape):
        # Its traces take about as long to pickle back from a worker as
        # to make, so it runs in this process at any --jobs.
        def no_pool(*args, **kwargs):
            raise AssertionError("simulate started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        argv = ["--config", toy_sim_config, "--curve", "toy16", "--shape", shape]
        if shape == "scalars":
            argv += ["--count", 8]
        assert run_cli("simulate", *argv, "--out", tmp_path / "s") == 0
        assert b'"jobs": null' in (tmp_path / "s/config.json").read_bytes()
        assert run_cli("simulate", *argv, "--jobs", 2, "--out", tmp_path / "two") == 0

    @pytest.mark.parametrize("command", ["assess", "train", "classify"])
    @pytest.mark.parametrize("labels", [None, "trace_index,swap_index,cond,interfered\n"])
    def test_window_campaign_without_labels_is_input_error(
        self, tmp_path, toy_sim_config, capsys, command, labels
    ):
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--config", toy_sim_config, "--curve", "toy16", "--out", sim) == 0
        sidecar = labels_path(sim / "traces.trc")
        if labels is None:
            sidecar.unlink()
        else:
            sidecar.write_text(labels)
        capsys.readouterr()
        argv = ["--traces", sim / "traces.trc", "--out", tmp_path / command]
        if command == "classify":
            argv += ["--model", tmp_path / "model.tmpl"]
        assert run_cli(command, *argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: input: {sim / 'traces.trc'}: no labels; {sidecar} is missing or empty\n"

    def test_full_scalar_file_is_config_error(self, tmp_path, toy_sim_config, capsys):
        sim = tmp_path / "sim"
        assert run_cli(
            "simulate", "--config", toy_sim_config, "--curve", "toy16",
            "--shape", "scalars", "--count", 2, "--out", sim,
        ) == 0
        capsys.readouterr()
        assert run_cli("assess", "--traces", sim / "traces.trc", "--out", tmp_path / "a") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and "full-scalar" in err, err

    def test_simulate_byte_identical_across_jobs(self, tmp_path, toy_sim_config):
        for name, jobs in (("one", 1), ("two", 2)):
            assert run_cli(
                "simulate", "--config", toy_sim_config, "--curve", "toy16",
                "--seed", 9, "--jobs", jobs, "--out", tmp_path / name,
            ) == 0
        for artifact in ("traces.trc", "traces.labels.csv"):
            assert (tmp_path / "one" / artifact).read_bytes() == (
                tmp_path / "two" / artifact
            ).read_bytes()

    def test_burst_shorter_than_the_smoothing_kernel(self, tmp_path):
        # A tenth of a 56-sample secp128r1 window is a 6-sample burst,
        # under the 32-sample smoothing kernel.
        cfg = write_config(tmp_path / "c.json", interference=[[0.3, 0.1, 5.0]])
        assert run_cli(
            "simulate", "--shape", "windows", "--count", 130, "--curve", "secp128r1",
            "--seed", 4, "--config", cfg, "--out", tmp_path / "s",
        ) == 0
        rows = (tmp_path / "s/traces.labels.csv").read_text().splitlines()[1:]
        assert len(rows) == 130 and all(row.endswith(",1") for row in rows)

    def test_interrupted_window_campaign_is_config_error(self, tmp_path, capsys):
        # An interruption would split a window, and a campaign of unequal
        # windows is a file no command reads.
        cfg = write_config(tmp_path / "c.json", interruption_prob=0.5)
        assert run_cli(
            "simulate", "--shape", "windows", "--count", 64, "--curve", "secp128r1",
            "--seed", 1, "--config", cfg, "--out", tmp_path / "s",
        ) == 1
        assert_one_error_line(capsys, "config")
        assert not (tmp_path / "s/traces.trc").exists()

    @pytest.mark.parametrize(
        "count, width, meta, labels",
        [
            (1, 1, b"\xffx=1\n", None),
            (2**32 - 1, 2**32 - 1, b"", None),
            (1, 1, b"trace_lengths=zz\n", None),
            (1, 1, b"", "trace_index,swap_index,cond,interfered\n0,0,zz,0\n"),
            (1, 1, b"", "trace_index,swap_index,cond,interfered\n0,0,300,0\n"),
            (1, 1, b"", "trace_index,swap_index,cond,interfered\n0,-5,0,0\n"),
            (1, 1, b"", "trace_index,swap_index,cond,interfered\n0,1,0,0\n"),
            (1, 1, b"", "trace_index,swap_index,cond,interfered\n0,0,0," + "0" * 200000),
        ],
        ids=[
            "non-utf8-meta",
            "header-beyond-file-size",
            "trace-lengths-not-int",
            "label-cell-not-int",
            "label-cond-beyond-int8",
            "label-negative-swap-index",
            "label-cell-missing",
            "label-field-beyond-csv-limit",
        ],
    )
    def test_corrupt_trace_file_is_input_error(
        self, tmp_path, capsys, count, width, meta, labels
    ):
        path = tmp_path / "bad.trc"
        header = struct.pack(
            "<4sIdIII", TRACE_MAGIC, TRACE_VERSION, 2.5e6, count, width, len(meta)
        )
        path.write_bytes(header + meta + bytes(4))
        if labels is not None:
            labels_path(path).write_text(labels)
        assert run_cli("assess", "--traces", path, "--out", tmp_path / "o") == 1
        assert_one_error_line(capsys, "input")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sample_is_input_error(self, tmp_path, toy_sim_config, capsys, value):
        # One NaN sample used to turn assess's verdict into a PASS.
        sim = tmp_path / "sim"
        assert run_cli(
            "simulate", "--config", toy_sim_config, "--curve", "toy16",
            "--seed", 1, "--out", sim,
        ) == 0
        assert run_cli(
            "train", "--traces", sim / "traces.trc",
            "--config", toy_sim_config, "--out", tmp_path / "train",
        ) == 0
        capsys.readouterr()
        path = sim / "traces.trc"
        blob = bytearray(path.read_bytes())
        meta_len = struct.unpack_from("<I", blob, 24)[0]
        struct.pack_into("<f", blob, 28 + meta_len + 4 * 5, value)
        path.write_bytes(bytes(blob))
        for argv in (
            ["assess"],
            ["train"],
            ["classify", "--model", tmp_path / "train/model.tmpl"],
        ):
            assert run_cli(
                *argv, "--traces", path, "--config", toy_sim_config,
                "--out", tmp_path / "o",
            ) == 1
            assert_one_error_line(capsys, "input")

    @pytest.mark.parametrize("mode", ["diag", "full"])
    @pytest.mark.parametrize("part", ["mean0", "mean1", "cov"])
    def test_non_finite_model_is_input_error(
        self, tmp_path, toy_sim_config, capsys, part, mode
    ):
        sim = tmp_path / "sim"
        assert run_cli(
            "simulate", "--config", toy_sim_config, "--curve", "toy16",
            "--seed", 1, "--out", sim,
        ) == 0
        config = write_config(
            tmp_path / "model.json", **json.loads(Path(toy_sim_config).read_text()),
            template_mode=mode, poi_count=2,
        )
        assert run_cli(
            "train", "--traces", sim / "traces.trc",
            "--config", config, "--out", tmp_path / "train",
        ) == 0
        model = read_model(tmp_path / "train/model.tmpl")
        getattr(model, part).flat[-1] = float("nan")
        write_model(model, tmp_path / "doctored.tmpl")
        capsys.readouterr()
        assert run_cli(
            "classify", "--traces", sim / "traces.trc",
            "--model", tmp_path / "doctored.tmpl",
            "--config", config, "--out", tmp_path / "cls",
        ) == 1
        assert_one_error_line(capsys, "input")

    def test_missing_traces_file_is_io_error(self, tmp_path, capsys):
        assert run_cli(
            "assess", "--traces", tmp_path / "absent.trc", "--out", tmp_path / "o",
        ) == 1
        assert "error: io:" in capsys.readouterr().err


def profiled_model(path, curve, count, *, variant="plain", mode="diag", **sim):
    """A model fitted on ``count`` profiling runs, written to ``path``:
    ``generate_training_set``, ``harvest_swap_windows``, then
    ``fit_swap_classifier``, as the acceptance test profiles."""
    cfg = SimConfig(seed=7000, **sim)
    runs = generate_training_set(get_curve(curve), variant, count, cfg)
    write_model(fit_swap_classifier(harvest_swap_windows(runs), cfg, mode=mode), path)
    return path


class TestAttack:
    def attack_config(self, tmp_path, **extra):
        values = dict(
            samples_per_event=16, noise_sigma=0.0, curve="toy16", variant="plain", seed=4,
        )
        values.update(extra)
        return write_config(tmp_path / "atk.json", **values)

    def attack_outputs(self, tmp_path, *argv):
        # The attack runs in this process at any --jobs; its outputs may
        # not depend on it.
        runs = {}
        for name, jobs in (("one", ["--jobs", 1]), ("two", ["--jobs", 2]), ("default", [])):
            out = tmp_path / name
            runs[name] = run_cli("attack", *argv, *jobs, "--out", out), _outputs(out)
        assert runs["one"] == runs["two"] == runs["default"]
        return runs["one"]

    def test_noiseless_attack_recovers_key(self, tmp_path, capsys):
        # toy16 has only 17 swap windows to cluster.
        cfg = self.attack_config(tmp_path)
        out = tmp_path / "atk"
        assert run_cli("attack", "--config", cfg, "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "nonce bits correct: 17/17" in stdout
        assert "private key recovered: yes" in stdout
        summary = json.loads((out / "summary.json").read_text())
        assert summary["key_recovered"] is True
        assert summary["bits_correct"] == summary["bits_total"] == 17
        assert summary["classifier"] == "cluster"
        header = (out / "attack.csv").read_text().splitlines()[0]
        assert header == "window_index,cond_guess,cond_true,bit_guess,bit_true,probability"

    def test_attack_outputs_byte_identical(self, tmp_path):
        cfg = self.attack_config(tmp_path)
        blobs = []
        for _ in range(2):
            out = tmp_path / "run"
            assert run_cli("attack", "--config", cfg, "--out", out) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            for p in out.iterdir():
                p.unlink()
            out.rmdir()
        assert blobs[0].keys() == blobs[1].keys()
        for name in blobs[0]:
            assert blobs[0][name] == blobs[1][name], name

    def test_attack_with_pretrained_model(self, tmp_path):
        cfg = self.attack_config(tmp_path)
        model = profiled_model(tmp_path / "model.tmpl", "toy16", 24, samples_per_event=16, noise_sigma=0.0)
        clustered, profiled = tmp_path / "clustered", tmp_path / "profiled"
        assert run_cli("attack", "--config", cfg, "--out", clustered) == 0
        assert run_cli("attack", "--config", cfg, "--model", model, "--out", profiled) == 0
        assert not (profiled / "model.tmpl").exists()
        summaries = [json.loads((out / "summary.json").read_text()) for out in (clustered, profiled)]
        assert [s.pop("classifier") for s in summaries] == ["cluster", "templates"]
        assert summaries[0] == summaries[1]

    def test_model_for_another_curve_is_config_error(self, tmp_path, capsys):
        cfg = self.attack_config(tmp_path)
        model = profiled_model(tmp_path / "model.tmpl", "toy16", 24, samples_per_event=16, noise_sigma=0.0)
        capsys.readouterr()
        assert run_cli(
            "attack", "--config", cfg, "--curve", "secp128r1", "--model", model,
            "--out", tmp_path / "p128",
        ) == 1
        err = capsys.readouterr().err
        assert err == f"error: config: {model}: model was trained on toy16, not secp128r1\n"
        # A model that names no curve, as ``train`` writes them, is taken.
        fitted = read_model(model)
        del fitted.trained_on["curve"]
        write_model(fitted, model)
        assert run_cli(
            "attack", "--config", cfg, "--model", model, "--out", tmp_path / "again"
        ) == 0

    def test_one_class_victim_ends_in_recovery_error(self, tmp_path, monkeypatch, capsys):
        # The mostly-swap nonce makes every ladder cond 1, so the clusters
        # split the noise: neither labelling yields the key.
        swap_nonce, _ = training_nonces(get_curve("secp521r1"))
        real_sign = cli.sign

        class MostlySwap(random.Random):
            def randrange(self, *args):
                return swap_nonce.value

        monkeypatch.setattr(
            cli, "sign", lambda z, key, rng, *rest: real_sign(z, key, MostlySwap(), *rest)
        )
        out = tmp_path / "o"
        assert run_cli("attack", "--curve", "secp521r1", "--seed", 3, "--out", out) == 2
        assert_one_error_line(capsys, "recovery")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["key_recovered"] is False and summary["conds_correct"] < 521

    def test_structureless_victim_is_alignment_error(self, tmp_path, monkeypatch, capsys):
        real_synthesize = tracesim.synthesize

        def noise_only(*args, **kwargs):
            trace = real_synthesize(*args, **kwargs)
            samples = np.random.default_rng(0).standard_normal(trace.samples.size)
            return LeakageTrace(samples, trace.sample_rate, trace.markers, trace.meta)

        monkeypatch.setattr(tracesim, "synthesize", noise_only)
        for curve in ("secp128r1", "toy16"):
            assert run_cli("attack", "--curve", curve, "--seed", 4, "--out", tmp_path / curve) == 2
            assert_one_error_line(capsys, "alignment")

    def test_full_template_attack_profiles_enough_windows(self, tmp_path):
        # A full covariance over 64 poi needs 640 windows per class: 24
        # profiling runs on secp128r1 hold about 1,500.
        model = profiled_model(tmp_path / "full.tmpl", "secp128r1", 24, mode="full")
        assert read_model(model).mode == "full"
        code, blobs = self.attack_outputs(
            tmp_path, "--curve", "secp128r1", "--seed", 5, "--model", model
        )
        assert code in (0, 2)
        assert b'"classifier": "templates"' in blobs["summary.json"]

    def test_attack_daa_multiplier(self, tmp_path):
        cfg = self.attack_config(tmp_path, multiplier="daa")
        assert run_cli("attack", "--config", cfg, "--out", tmp_path / "daa") == 0

    @pytest.mark.parametrize("multiplier", ["ladder", "daa"])
    def test_outputs_identical_at_any_jobs(self, tmp_path, multiplier):
        cfg = self.attack_config(tmp_path, multiplier=multiplier)
        code, blobs = self.attack_outputs(tmp_path, "--config", cfg)
        assert code == 0
        assert set(blobs) == {
            "trace.trc", "trace.labels.csv", "windows.csv", "attack.csv", "summary.json", "config.json"
        }
        assert b'"jobs": null' in (tmp_path / "default/config.json").read_bytes()

    def test_interruptions_leave_profiling_running(self, tmp_path):
        # The victim run splices in a silent gap, which the aligner and
        # the clustering must take in their stride: the attack reaches a
        # verdict.
        cfg = self.attack_config(tmp_path, interruption_prob=1.0)
        code, blobs = self.attack_outputs(tmp_path, "--config", cfg)
        assert code in (0, 2)
        assert {"attack.csv", "summary.json"} <= set(blobs)

    @pytest.mark.parametrize("aligns", [True, False])
    def test_training_spool_is_removed(self, tmp_path, monkeypatch, aligns):
        # The attack makes no temporary files, whichever way it ends.
        spool_root = tmp_path / "tmp"
        spool_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool_root))

        def fail(*args, **kwargs):
            raise AlignmentError("planted")

        if not aligns:
            monkeypatch.setattr(dsp, "align_swaps", fail)
        cfg = self.attack_config(tmp_path)
        code = run_cli("attack", "--config", cfg, "--jobs", 2, "--out", tmp_path / "o")
        assert code == (0 if aligns else 2)
        assert list(spool_root.iterdir()) == []

    def test_failed_alignment_leaves_no_worker_running(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AlignmentError("planted")

        monkeypatch.setattr(dsp, "align_swaps", fail)
        cfg = self.attack_config(tmp_path)
        assert run_cli("attack", "--config", cfg, "--jobs", 2, "--out", tmp_path / "o") == 2
        assert_one_error_line(capsys, "alignment")
        assert multiprocessing.active_children() == []

    def test_bursts_jam_the_victim_inside_them_only(self, tmp_path):
        """The victim capture carries the burst: its samples change inside
        it and nowhere else, and its flags mark the windows it covers."""
        runs = {}
        for name, bursts in (("clean", []), ("jammed", [[0.4, 0.2, 5.0]])):
            cfg = self.attack_config(tmp_path, interference=bursts)
            out = tmp_path / name
            assert run_cli("attack", "--config", cfg, "--out", out) in (0, 2)
            runs[name] = out
        clean, jammed = (read_trace_set(runs[name] / "trace.trc") for name in runs)
        before, after = clean.traces[0].samples, jammed.traces[0].samples
        n = before.size
        start, stop = round(0.4 * n), round(0.4 * n) + round(0.2 * n)
        changed = np.flatnonzero(before != after)
        assert changed.size > 0 and start <= changed.min() and changed.max() < stop
        assert np.array_equal(clean.labels, jammed.labels)
        assert not clean.interfered.any() and 0 < jammed.interfered.sum() < jammed.interfered.size


class TestRecoverCommand:
    def test_recover_from_files(self, tmp_path, toy, capsys):
        rng = random.Random(11)
        key = keygen(toy, rng)
        write_private_key(tmp_path / "key.txt", key)
        sigs, lines = [], []
        for _ in range(3):
            sig, nonce = sign(rng.randrange(1, toy.n), key, rng)
            sigs.append(sig)
            lines.append(f"a={nonce.k.value % 4096:x}")
        write_signatures(tmp_path / "sigs.txt", sigs)
        (tmp_path / "known.txt").write_text("\n".join(lines) + "\n")
        assert run_cli(
            "recover", "--signatures", tmp_path / "sigs.txt",
            "--known", tmp_path / "known.txt", "--key", tmp_path / "key.txt",
            "--leak-bits", 12, "--curve", "toy16", "--out", tmp_path / "rec",
        ) == 0
        assert f"recovered d={key.d:x}" in capsys.readouterr().out
        assert (tmp_path / "rec/recovered.txt").read_text() == f"d={key.d:x}\n"

    def test_recovery_failure_exits_2(self, tmp_path, toy, capsys):
        rng = random.Random(12)
        key = keygen(toy, rng)
        write_private_key(tmp_path / "key.txt", key)
        sig, nonce = sign(55, key, rng)
        write_signatures(tmp_path / "sigs.txt", [sig])
        (tmp_path / "known.txt").write_text(f"a={nonce.k.value & 1:x}\n")
        assert run_cli(
            "recover", "--signatures", tmp_path / "sigs.txt",
            "--known", tmp_path / "known.txt", "--key", tmp_path / "key.txt",
            "--leak-bits", 1, "--curve", "toy16", "--out", tmp_path / "rec",
        ) == 2
        assert "error: recovery:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_file", ["signatures", "known"])
    def test_bad_hex_field_is_input_error(self, tmp_path, toy, capsys, bad_file):
        rng = random.Random(14)
        key = keygen(toy, rng)
        write_private_key(tmp_path / "key.txt", key)
        sig, nonce = sign(55, key, rng)
        write_signatures(tmp_path / "signatures", [sig])
        (tmp_path / "known").write_text(f"a={nonce.k.value % 16:x}\n")
        text = (tmp_path / bad_file).read_text()
        (tmp_path / bad_file).write_text(text.replace("=", "=zz", 1))
        assert run_cli(
            "recover", "--signatures", tmp_path / "signatures",
            "--known", tmp_path / "known", "--key", tmp_path / "key.txt",
            "--leak-bits", 4, "--curve", "toy16", "--out", tmp_path / "rec",
        ) == 1
        assert_one_error_line(capsys, "input")

    @pytest.mark.parametrize(
        "bad_file, text",
        [
            ("signatures", "r=-c8a3 s=1 z=1\n"),
            ("key.txt", "d=0x1f\n"),
            ("known", "a=+f\n"),
            ("known", "a=1_f\n"),
        ],
        ids=["signed-r", "prefixed-d", "plus-sign", "underscore"],
    )
    def test_hex_beyond_plain_digits_is_input_error(
        self, tmp_path, toy, capsys, bad_file, text
    ):
        # int(text, 16) takes every one of these.
        rng = random.Random(14)
        key = keygen(toy, rng)
        write_private_key(tmp_path / "key.txt", key)
        sig, nonce = sign(55, key, rng)
        write_signatures(tmp_path / "signatures", [sig])
        (tmp_path / "known").write_text(f"a={nonce.k.value % 16:x}\n")
        (tmp_path / bad_file).write_text(text)
        assert run_cli(
            "recover", "--signatures", tmp_path / "signatures",
            "--known", tmp_path / "known", "--key", tmp_path / "key.txt",
            "--leak-bits", 4, "--curve", "toy16", "--out", tmp_path / "rec",
        ) == 1
        assert_one_error_line(capsys, "input")

    @pytest.mark.parametrize("bad_file", ["signatures", "known", "key.txt"])
    def test_non_utf8_file_is_input_error(self, tmp_path, toy, capsys, bad_file):
        rng = random.Random(14)
        key = keygen(toy, rng)
        write_private_key(tmp_path / "key.txt", key)
        sig, nonce = sign(55, key, rng)
        write_signatures(tmp_path / "signatures", [sig])
        (tmp_path / "known").write_text(f"a={nonce.k.value % 16:x}\n")
        (tmp_path / bad_file).write_bytes(b"\xff" + (tmp_path / bad_file).read_bytes())
        assert run_cli(
            "recover", "--signatures", tmp_path / "signatures",
            "--known", tmp_path / "known", "--key", tmp_path / "key.txt",
            "--leak-bits", 4, "--curve", "toy16", "--out", tmp_path / "rec",
        ) == 1
        assert_one_error_line(capsys, "input")

    @pytest.mark.parametrize(
        "line, field, value",
        [(0, "r", "0"), (2, "s", "n")],
        ids=["zero-r-first", "s-equals-n-later"],
    )
    def test_signature_value_outside_the_group_is_input_error(
        self, tmp_path, toy, capsys, line, field, value
    ):
        # Caught before any lattice is built, not as a failed recovery.
        rng = random.Random(15)
        key = keygen(toy, rng)
        write_private_key(tmp_path / "key.txt", key)
        sigs, known = [], []
        for _ in range(3):
            sig, nonce = sign(rng.randrange(1, toy.n), key, rng)
            sigs.append(sig)
            known.append(f"a={nonce.k.value % 4096:x}")
        write_signatures(tmp_path / "sigs.txt", sigs)
        lines = (tmp_path / "sigs.txt").read_text().splitlines()
        fields = dict(part.split("=") for part in lines[line].split())
        fields[field] = f"{toy.n:x}" if value == "n" else value
        lines[line] = " ".join(f"{k}={v}" for k, v in fields.items())
        (tmp_path / "sigs.txt").write_text("\n".join(lines) + "\n")
        (tmp_path / "known.txt").write_text("\n".join(known) + "\n")
        assert run_cli(
            "recover", "--signatures", tmp_path / "sigs.txt",
            "--known", tmp_path / "known.txt", "--key", tmp_path / "key.txt",
            "--leak-bits", 12, "--curve", "toy16", "--out", tmp_path / "rec",
        ) == 1
        assert_one_error_line(capsys, "input")

    def test_leak_bits_required(self, tmp_path, toy, capsys):
        rng = random.Random(13)
        key = keygen(toy, rng)
        write_private_key(tmp_path / "key.txt", key)
        sig, nonce = sign(55, key, rng)
        write_signatures(tmp_path / "sigs.txt", [sig])
        (tmp_path / "known.txt").write_text(f"a={nonce.k.value % 16:x}\n")
        assert run_cli(
            "recover", "--signatures", tmp_path / "sigs.txt",
            "--known", tmp_path / "known.txt", "--key", tmp_path / "key.txt",
            "--curve", "toy16", "--out", tmp_path / "rec",
        ) == 1
        assert "leak_bits" in capsys.readouterr().err


class TestExperimentCommand:
    def grid_config(self, tmp_path):
        return write_config(
            tmp_path / "grid.json",
            curve="toy16",
            grid_leak_bits=[12],
            grid_signatures=[3],
            grid_error_rates=[0.0, 1.0],
            trials=4,
        )

    def test_grid_csv(self, tmp_path, capsys):
        cfg = self.grid_config(tmp_path)
        out = tmp_path / "exp"
        assert run_cli("experiment", "--config", cfg, "--seed", 2, "--out", out) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "leak_bits,signatures,error_rate,trials,successes"
        assert lines[1] == "12,3,0,4,4"
        assert lines[2] == "12,3,1,4,0"
        assert (out / "timing.txt").exists()

    def test_wide_curve_grid_in_workers(self, tmp_path):
        # secp521r1's field reduces through a closure; its cells must
        # still reach the workers.
        cfg = write_config(
            tmp_path / "wide.json", curve="secp521r1", grid_leak_bits=[300],
            grid_signatures=[2], grid_error_rates=[0.0, 1.0], trials=2,
        )
        for name, jobs in (("one", ["--jobs", 1]), ("two", ["--jobs", 2]), ("default", [])):
            assert run_cli(
                "experiment", "--config", cfg, "--seed", 2, *jobs,
                "--out", tmp_path / name,
            ) == 0
        results = {
            (tmp_path / name / "results.csv").read_bytes() for name in ("one", "two", "default")
        }
        assert len(results) == 1
        assert multiprocessing.active_children() == []

    def test_grid_byte_identical_across_jobs(self, tmp_path):
        cfg = self.grid_config(tmp_path)
        for name, jobs in (("one", 1), ("two", 2)):
            assert run_cli(
                "experiment", "--config", cfg, "--seed", 2,
                "--jobs", jobs, "--out", tmp_path / name,
            ) == 0
        assert (tmp_path / "one/results.csv").read_bytes() == (
            tmp_path / "two/results.csv"
        ).read_bytes()
