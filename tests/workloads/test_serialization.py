"""Tests for trace serialization."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.sim.core import Simulator
from repro.sim.params import skylake
from repro.workloads.serialization import load_trace, save_trace


class TestRoundTrip:
    def test_arrays_preserved(self, tiny_traces, tmp_path):
        trace = tiny_traces[0]
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert (loaded.kinds == trace.kinds).all()
        assert (loaded.addrs == trace.addrs).all()
        assert (loaded.args == trace.args).all()
        assert (loaded.args2 == trace.args2).all()

    def test_loops_preserved(self, tiny_traces, tmp_path):
        trace = tiny_traces[0]
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded.loops) == len(trace.loops)
        for a, b in zip(loaded.loops, trace.loops):
            assert a == b

    def test_simulation_identical_on_loaded_trace(self, tiny_traces, tmp_path):
        trace = tiny_traces[0]
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        r1 = Simulator(skylake()).run(trace)
        r2 = Simulator(skylake()).run(loaded)
        assert r1.cycles == pytest.approx(r2.cycles)
        assert r1.instructions == r2.instructions

    def test_suffix_appended_by_numpy(self, tiny_traces, tmp_path):
        """np.savez appends .npz; load_trace resolves either spelling."""
        path = tmp_path / "trace"
        save_trace(tiny_traces[0], path)
        loaded = load_trace(path)
        assert loaded.total_instructions == tiny_traces[0].total_instructions


class TestValidation:
    def test_rejects_non_trace_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(TraceError):
            load_trace(path)

    def test_rejects_wrong_format_header(self, tmp_path, tiny_traces):
        import json
        path = tmp_path / "bad.npz"
        header = json.dumps({"format": "something-else", "version": 1,
                             "instructions": 0})
        np.savez(path,
                 header=np.frombuffer(header.encode(), dtype=np.uint8),
                 kinds=np.zeros(0, np.uint8))
        with pytest.raises(TraceError, match="not an invocation-trace"):
            load_trace(path)


class TestFormatVersioning:
    """The v2 wire format: versioned, digest-checked, v1-compatible."""

    def _archive_parts(self, trace, tmp_path):
        import json
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        with np.load(path) as data:
            arrays = {name: data[name].copy() for name in data.files}
        header = json.loads(bytes(arrays.pop("header")).decode())
        return path, header, arrays

    def _rewrite(self, path, header, arrays):
        import json
        payload = json.dumps(header).encode()
        np.savez(path, header=np.frombuffer(payload, dtype=np.uint8),
                 **arrays)

    def test_writes_current_version(self, tiny_traces, tmp_path):
        from repro.workloads.serialization import FORMAT_VERSION
        _path, header, _arrays = self._archive_parts(tiny_traces[0], tmp_path)
        assert header["version"] == FORMAT_VERSION == 2
        assert len(header["columns_sha256"]) == 64

    def test_rejects_unknown_future_version(self, tiny_traces, tmp_path):
        path, header, arrays = self._archive_parts(tiny_traces[0], tmp_path)
        header["version"] = 99
        self._rewrite(path, header, arrays)
        with pytest.raises(TraceError, match="unsupported trace version 99"):
            load_trace(path)

    def test_error_names_supported_versions(self, tiny_traces, tmp_path):
        path, header, arrays = self._archive_parts(tiny_traces[0], tmp_path)
        header["version"] = 99
        self._rewrite(path, header, arrays)
        with pytest.raises(TraceError, match="1, 2"):
            load_trace(path)

    def test_v1_archives_still_load(self, tiny_traces, tmp_path):
        """A v1 archive (no digest) round-trips: the arrays carry all
        information, so old published traces stay readable."""
        trace = tiny_traces[0]
        path, header, arrays = self._archive_parts(trace, tmp_path)
        header["version"] = 1
        del header["columns_sha256"]
        self._rewrite(path, header, arrays)
        loaded = load_trace(path)
        assert (loaded.kinds == trace.kinds).all()
        assert loaded.loops == trace.loops

    def test_corrupted_column_rejected(self, tiny_traces, tmp_path):
        path, header, arrays = self._archive_parts(tiny_traces[0], tmp_path)
        arrays["addrs"] = arrays["addrs"].copy()
        arrays["addrs"][0] ^= 0x40  # one flipped bit, same length
        self._rewrite(path, header, arrays)
        with pytest.raises(TraceError, match="column digest mismatch"):
            load_trace(path)

    def test_columnar_ir_round_trips_losslessly(self, tiny_traces, tmp_path):
        """The derived ColumnarTrace IR is identical before and after a
        save/load cycle -- the lossless-round-trip contract."""
        trace = tiny_traces[0]
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        before, after = trace.columnar(), loaded.columnar()
        assert (before.kinds == after.kinds).all()
        assert (before.blocks == after.blocks).all()
        assert (before.pages == after.pages).all()
        assert (before.args == after.args).all()
        assert (before.args2 == after.args2).all()
        def structural(ops):
            return [tuple(getattr(x, "blocks", x) for x in op) for op in ops]
        assert structural(before.ops) == structural(after.ops)
