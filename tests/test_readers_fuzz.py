"""Reader fuzzing: every file reader either parses its input or raises a
NonceLabError, for random bytes and for valid files with bytes flipped,
inserted or cut off."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nonce_lab.analysis import TemplateModel, read_model, write_model
from nonce_lab.cli import _CONFIG_KEYS, _known_bits, _load_config_file
from nonce_lab.ecdsa import (
    KeyPair,
    Signature,
    read_private_key,
    read_signatures,
    write_private_key,
    write_signatures,
)
from nonce_lab.errors import NonceLabError
from nonce_lab.ff_curve import get_curve
from nonce_lab.swap_impls import SwapKind
from nonce_lab.tracesim import (
    SimConfig,
    generate_swap_windows,
    labels_path,
    read_trace_set,
    write_trace_set,
)

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def mutated(valid: bytes):
    """``valid`` with a few bytes overwritten, inserted or dropped, and
    possibly truncated."""
    edit = st.tuples(
        st.sampled_from(("set", "insert", "delete")),
        st.integers(0, max(len(valid) - 1, 0)),
        st.integers(0, 255),
    )

    def apply(edits_and_cut):
        edits, cut = edits_and_cut
        data = bytearray(valid)
        for op, pos, value in edits:
            pos = min(pos, len(data))
            if op == "set" and pos < len(data):
                data[pos] = value
            elif op == "insert":
                data.insert(pos, value)
            elif op == "delete" and pos < len(data):
                del data[pos]
        return bytes(data[:cut]) if cut is not None else bytes(data)

    cut = st.none() | st.integers(0, len(valid))
    return st.tuples(st.lists(edit, min_size=1, max_size=4), cut).map(apply)


def garbage_or_mutated(valid: bytes):
    return st.binary(max_size=200) | mutated(valid)


def parses_or_refuses(reader, *args):
    try:
        reader(*args)
    except NonceLabError:
        pass


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    toy = get_curve("toy16")
    traces = root / "t.bin"
    cfg = SimConfig(samples_per_event=8, noise_sigma=0.5, seed=1)
    write_trace_set(generate_swap_windows(SwapKind.PLAIN, 1, [0, 1, 1], cfg), traces)
    model = root / "m.bin"
    write_model(
        TemplateModel(
            poi=np.array([1, 4]),
            mean0=np.array([0.5, 1.5]),
            mean1=np.array([1.0, 2.0]),
            cov=np.array([[2.0, 0.5], [0.5, 1.0]]),
            mode="full",
            trained_on={"median_samples": "3", "feature_length": "8"},
        ),
        model,
    )
    key = root / "k.txt"
    write_private_key(key, KeyPair(toy, 0x1234, None))
    sigs = root / "s.txt"
    write_signatures(sigs, [Signature(0x1F, 0x2E, 0x3D), Signature(5, 6, 7)])
    config = {
        "curve": "toy16", "seed": 3, "noise_sigma": 1.5, "count": 12,
        "interference": [[10, 5, 0.5]], "grid_leak_bits": [300, 200],
    }
    return {
        "traces": traces.read_bytes(),
        "labels": labels_path(traces).read_bytes(),
        "model": model.read_bytes(),
        "key": key.read_bytes(),
        "sigs": sigs.read_bytes(),
        "config": json.dumps(config).encode(),
        "known": b"# low bits\na=1f\n\na=3\n",
    }


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_valid_files_parse(valid_files, scratch):
    for name in ("traces", "labels", "model", "key", "sigs", "config", "known"):
        (scratch / name).write_bytes(valid_files[name])
    (scratch / "t.bin").write_bytes(valid_files["traces"])
    labels_path(scratch / "t.bin").write_bytes(valid_files["labels"])
    assert read_trace_set(scratch / "t.bin").labels.shape == (3, 1)
    assert read_model(scratch / "model").mode == "full"
    assert read_private_key(scratch / "key", get_curve("toy16")).d == 0x1234
    assert len(read_signatures(scratch / "sigs")) == 2
    assert _load_config_file(scratch / "config")["count"] == 12
    assert _known_bits(scratch / "known") == [0x1F, 3]


@FUZZ
@given(data=st.data())
def test_trace_reader_parses_or_refuses(valid_files, scratch, data):
    path = scratch / "trace.bin"
    path.write_bytes(data.draw(garbage_or_mutated(valid_files["traces"])))
    labels_path(path).write_bytes(data.draw(garbage_or_mutated(valid_files["labels"])))
    parses_or_refuses(read_trace_set, path)


@FUZZ
@given(data=st.data())
def test_model_reader_parses_or_refuses(valid_files, scratch, data):
    path = scratch / "model.bin"
    path.write_bytes(data.draw(garbage_or_mutated(valid_files["model"])))
    parses_or_refuses(read_model, path)


@FUZZ
@given(data=st.data())
def test_key_reader_parses_or_refuses(valid_files, scratch, data):
    path = scratch / "key.txt"
    path.write_bytes(data.draw(garbage_or_mutated(valid_files["key"])))
    parses_or_refuses(read_private_key, path, get_curve("toy16"))


@FUZZ
@given(data=st.data())
def test_signature_reader_parses_or_refuses(valid_files, scratch, data):
    path = scratch / "sigs.txt"
    path.write_bytes(data.draw(garbage_or_mutated(valid_files["sigs"])))
    parses_or_refuses(read_signatures, path)


@FUZZ
@given(data=st.data())
def test_labels_reader_parses_or_refuses(valid_files, scratch, data):
    """The sidecar alone: the trace file stays valid."""
    path = scratch / "intact.bin"
    path.write_bytes(valid_files["traces"])
    labels_path(path).write_bytes(data.draw(garbage_or_mutated(valid_files["labels"])))
    parses_or_refuses(read_trace_set, path)


# Any JSON value, numbers beyond int64 and float range included.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)


@FUZZ
@given(data=st.data())
def test_config_reader_parses_or_refuses(valid_files, scratch, data):
    path = scratch / "config.json"
    if data.draw(st.booleans()):
        blob = data.draw(garbage_or_mutated(valid_files["config"]))
    else:  # well-formed JSON, so the per-key casts see every kind of value
        config = data.draw(st.dictionaries(st.sampled_from(sorted(_CONFIG_KEYS)), JSON_VALUES))
        blob = json.dumps(config).encode()
    path.write_bytes(blob)
    parses_or_refuses(_load_config_file, path)


@FUZZ
@given(data=st.data())
def test_known_bits_reader_parses_or_refuses(valid_files, scratch, data):
    path = scratch / "known.txt"
    path.write_bytes(data.draw(garbage_or_mutated(valid_files["known"])))
    parses_or_refuses(_known_bits, path)
