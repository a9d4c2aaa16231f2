"""Trace serialization: persist invocation traces as ``.npz`` archives.

Two use cases:

* *reproducibility*: archive the exact traces behind a published number;
* *interchange*: drive the simulator from traces produced by an external
  tool (a real L1-I access trace reduced to this event format) instead of
  the synthetic generator.

The format stores the four event arrays, the loop table flattened into
parallel arrays, and a small JSON header with versioning.

Format history:

* **v1** -- event arrays + loop table + instruction count.
* **v2** -- adds a SHA-256 digest over every stored column to the header.
  The event arrays fully determine the trace -- and therefore its derived
  :class:`~repro.workloads.trace.ColumnarTrace` IR -- so verifying the
  digest on load turns the "columnar round-trip is lossless" property
  from an assumption into a checked contract: a bit-flipped archive is a
  typed :class:`~repro.errors.TraceError`, never a silently different
  simulation.

v1 archives remain loadable (the arrays carry all information); unknown
*newer* versions are rejected with a typed error naming the supported set
rather than being misparsed.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import List, Union

import numpy as np

from repro.errors import TraceError
from repro.workloads.trace import InvocationTrace, LoopSpec

#: Version written by :func:`save_trace`.
FORMAT_VERSION = 2

#: Versions :func:`load_trace` understands.
SUPPORTED_VERSIONS = (1, 2)

_PathLike = Union[str, pathlib.Path]

#: Stored column arrays, in digest order.  Order is part of the format:
#: the digest is over ``name || dtype || raw bytes`` for each entry.
_COLUMNS = ("kinds", "addrs", "args", "args2", "loop_blocks", "loop_lens",
            "loop_iters", "loop_insts", "loop_branches")


def _column_digest(arrays: dict) -> str:
    digest = hashlib.sha256()
    for name in _COLUMNS:
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(str(array.dtype).encode())
        digest.update(b"\0")
        digest.update(array.tobytes())
    return digest.hexdigest()


def _trace_columns(trace: InvocationTrace) -> dict:
    """The stored columns of ``trace``: its event arrays and its loop
    table flattened into parallel arrays."""
    return {
        "kinds": trace.kinds,
        "addrs": trace.addrs,
        "args": trace.args,
        "args2": trace.args2,
        "loop_blocks": np.asarray(
            [b for spec in trace.loops for b in spec.blocks], dtype=np.int64),
        "loop_lens": np.asarray([len(spec.blocks) for spec in trace.loops],
                                dtype=np.int64),
        "loop_iters": np.asarray([spec.iterations for spec in trace.loops],
                                 dtype=np.int64),
        "loop_insts": np.asarray(
            [spec.insts_per_iteration for spec in trace.loops],
            dtype=np.int64),
        "loop_branches": np.asarray(
            [spec.branches_per_iteration for spec in trace.loops],
            dtype=np.int64),
    }


def save_trace(trace: InvocationTrace, path: _PathLike) -> None:
    """Write ``trace`` to ``path`` (``.npz``; compressed)."""
    arrays = _trace_columns(trace)
    header = json.dumps({
        "format": "repro-invocation-trace",
        "version": FORMAT_VERSION,
        "events": int(len(trace)),
        "loops": len(trace.loops),
        "instructions": int(trace.total_instructions),
        "columns_sha256": _column_digest(arrays),
    })
    np.savez_compressed(
        path,
        header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
        **arrays,
    )


def load_trace(path: _PathLike) -> InvocationTrace:
    """Read a trace written by :func:`save_trace`.

    Raises :class:`~repro.errors.TraceError` on a missing/corrupt header,
    an unsupported format version, a column-digest mismatch (v2) or an
    instruction-count mismatch.
    """
    path = pathlib.Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as data:
        try:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
        except (KeyError, ValueError) as exc:
            raise TraceError(f"{path}: missing or corrupt trace header") from exc
        if header.get("format") != "repro-invocation-trace":
            raise TraceError(f"{path}: not an invocation-trace archive")
        version = header.get("version")
        if version not in SUPPORTED_VERSIONS:
            raise TraceError(
                f"{path}: unsupported trace version {version!r}; this "
                f"reader supports "
                f"{', '.join(str(v) for v in SUPPORTED_VERSIONS)}")
        arrays = {name: data[name] for name in _COLUMNS}
        if version >= 2:
            stored = header.get("columns_sha256")
            actual = _column_digest(arrays)
            if stored != actual:
                raise TraceError(
                    f"{path}: column digest mismatch (archive corrupt or "
                    f"tampered): header says {stored}, columns hash to "
                    f"{actual}")
        loops: List[LoopSpec] = []
        cursor = 0
        blocks = arrays["loop_blocks"]
        for length, iters, insts, branches in zip(
                arrays["loop_lens"], arrays["loop_iters"],
                arrays["loop_insts"], arrays["loop_branches"]):
            body = tuple(int(b) for b in blocks[cursor:cursor + int(length)])
            cursor += int(length)
            loops.append(LoopSpec(blocks=body, iterations=int(iters),
                                  insts_per_iteration=int(insts),
                                  branches_per_iteration=int(branches)))
        trace = InvocationTrace(
            kinds=arrays["kinds"].copy(),
            addrs=arrays["addrs"].copy(),
            args=arrays["args"].copy(),
            args2=arrays["args2"].copy(),
            loops=loops,
        )
    if trace.total_instructions != header["instructions"]:
        raise TraceError(
            f"{path}: instruction count mismatch "
            f"({trace.total_instructions} != {header['instructions']})")
    return trace
