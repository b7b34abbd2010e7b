"""The native stream kernels' build cache and its failure modes."""

import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from repro.stream import native

SRC = str(Path(native.__file__).resolve().parents[2])


def test_warm_import_loads_the_compiled_module_only():
    # The kernel is built by now (this test module imported it), so a
    # fresh interpreter must load it without parsing the cdef.
    code = (
        "import sys, repro.stream.session;"
        "print(sorted(m for m in ('cffi', 'pycparser') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_cold_build_publishes_a_loadable_module(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "BUILD_DIR", tmp_path)
    target = tmp_path / ("_derive_coldtest" + ".so")
    native._build("_derive_coldtest", target)
    # Published by rename: the target and nothing else is left behind.
    assert [p.name for p in tmp_path.iterdir()] == [target.name]
    module = native._load("_derive_coldtest", target)
    # One product through the derive pass: its unit phasor and vote.
    unit = np.empty(1, np.complex128)
    mask = np.empty(1, np.int32)
    ptr = module.ffi.from_buffer
    module.lib.derive_f64(
        ptr("double[]", np.array([3 + 4j])), 1, 1.0, 0.0,
        ptr("double[]", unit), ptr("int32_t[]", mask), 0,
        module.ffi.NULL, 0, 1, 1,
        module.ffi.NULL, 0, module.ffi.NULL, 0.0, module.ffi.NULL, 0.0, 0.0,
        0, 0,
    )
    assert unit[0] == 0.6 + 0.8j
    assert mask[0] == 1
    assert module.lib.frontend_f32 and module.lib.frontend_f64
    assert module.lib.session_push_f32 and module.lib.session_push_f64


def test_build_key_covers_the_flags(monkeypatch):
    key = native.build_key()
    monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-DUNUSED",))
    assert native.build_key() != key


def test_build_key_covers_the_frame_layout(monkeypatch):
    key = native.build_key()
    assert "#define FRAME_DATA_START 24\n" in native.LAYOUT
    monkeypatch.setattr(
        native, "LAYOUT", native.LAYOUT.replace("DATA_START 24", "DATA_START 32")
    )
    assert native.build_key() != key


def test_no_gcc_fails_with_a_clear_error(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "BUILD_DIR", tmp_path)
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(ImportError, match="needs gcc"):
        native._build("_derive_nogcc", tmp_path / "x.so")


def test_no_cffi_fails_with_a_clear_error(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "BUILD_DIR", tmp_path)
    monkeypatch.setitem(sys.modules, "cffi", None)
    with pytest.raises(ImportError, match="needs cffi"):
        native._build("_derive_nocffi", tmp_path / "x.so")


def test_corrupt_cache_entry_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "BUILD_DIR", tmp_path)
    name = f"_derive_{native.build_key()}"
    target = tmp_path / (name + sysconfig.get_config_var("EXT_SUFFIX"))
    target.write_bytes(b"not an extension module")
    module = native.load()
    assert module.lib.derive_f32
    assert target.stat().st_size > 1000
