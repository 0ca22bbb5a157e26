import ast
from pathlib import Path

import numpy as np
import pytest

import ambispeech
from ambispeech.checkpoint import MAGIC, load_params, save_params
from ambispeech.errors import DataError


@pytest.fixture
def params():
    rng = np.random.default_rng(3)
    return {
        "model.bre.fwd.Wx": rng.normal(size=(9, 20)),
        "model.bre.fwd.b": rng.normal(size=20),
        "model.head.W1": rng.normal(size=(10, 16)),
        "scalarish": np.array(3.5),
    }


def test_round_trip_preserves_values_and_order(tmp_path, params):
    path = tmp_path / "m.ambi"
    save_params(path, params)
    loaded = load_params(path)
    assert list(loaded) == list(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])
        assert loaded[name].dtype == np.float64


def test_loaded_arrays_are_writable(tmp_path, params):
    path = tmp_path / "m.ambi"
    save_params(path, params)
    loaded = load_params(path)
    loaded["model.head.W1"][0, 0] = 99.0  # must not raise


def test_non_float_input_is_coerced(tmp_path):
    path = tmp_path / "m.ambi"
    save_params(path, {"w": np.array([1, 2, 3])})
    out = load_params(path)["w"]
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.ambi"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        load_params(path)


def test_truncated_file_rejected(tmp_path, params):
    path = tmp_path / "m.ambi"
    save_params(path, params)
    raw = path.read_bytes()
    for cut in (len(MAGIC) + 2, len(raw) // 2, len(raw) - 5):
        clipped = tmp_path / f"cut{cut}.ambi"
        clipped.write_bytes(raw[:cut])
        with pytest.raises(DataError, match="truncated"):
            load_params(clipped)


def test_trailing_bytes_rejected(tmp_path, params):
    path = tmp_path / "m.ambi"
    save_params(path, params)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="trailing"):
        load_params(path)


def test_non_utf8_name_is_data_error(tmp_path, params):
    path = tmp_path / "m.ambi"
    save_params(path, params)
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC) + 4 + 2] = 0xFF  # first byte of the first name
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="not UTF-8"):
        load_params(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_is_data_error_naming_the_parameter(tmp_path, params, bad):
    params["model.head.W1"][3, 4] = bad
    path = tmp_path / "m.ambi"
    save_params(path, params)
    with pytest.raises(DataError, match="parameter model.head.W1 holds a non-finite value"):
        load_params(path)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_params(tmp_path / "absent.ambi")


def test_no_temp_files_left_behind(tmp_path, params):
    save_params(tmp_path / "m.ambi", params)
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_empty_mapping_round_trips(tmp_path):
    path = tmp_path / "empty.ambi"
    save_params(path, {})
    assert load_params(path) == {}


def test_only_the_checkpoint_module_calls_the_builtin_open():
    package = Path(ambispeech.__file__).parent
    callers = {
        src.name for src in package.glob("*.py")
        for node in ast.walk(ast.parse(src.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "open"}
    assert callers == {"checkpoint.py"}
