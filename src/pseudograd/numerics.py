"""Shared float64 numerics: row reductions, softmax and entropy, seeded RNG
streams, the strict reads of every JSON file a command is given, and the
writes of every CSV and JSON file a command produces.

Dense matrices and probability rows are plain ``numpy.ndarray`` objects in
float64, row-major. Validation helpers enforce finiteness at API boundaries
instead of wrapping arrays in new types.

The log clamp ``LOG_EPS`` is applied by ``clamped_log`` only; softmax outputs
are never clamped.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

LOG_EPS = 1e-12

# The class-axis reductions loop over the columns of an array narrower than
# 8 columns with at least ROWS_PER_COLUMN rows per column. From 8 entries on,
# numpy reduces a row in another order (its sum is pairwise, and its max
# breaks ties of signed zeros otherwise), and on shorter arrays a call per
# column costs more than numpy's reduce saves.
MAX_COLUMN_WIDTH = 7
ROWS_PER_COLUMN = 16


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


def read_json(path, what: str, error: type[ValueError] = InvalidInputError):
    """The JSON document in the file ``path``, or ``error`` naming the file."""
    if not Path(path).exists():
        raise error(f"{what} file not found: {path}")
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # a directory, not UTF-8, not JSON
        raise error(f"cannot read {what} file {path}: {exc}") from exc


def json_text(value) -> str:
    """Canonical JSON text, which tells ``1``, ``1.0`` and ``true`` apart."""
    return json.dumps(value, sort_keys=True)


def read_artifact(path, what: str, version: int, keys: tuple[str, ...]) -> dict:
    """The object in the artifact file ``path``, of ``version`` with ``keys``."""
    doc = read_json(path, what)
    if not isinstance(doc, dict) or sorted(doc) != sorted(("format_version", *keys)):
        raise InvalidInputError(f"{path}: a {what} has the keys format_version, {', '.join(keys)}")
    saved = json_text(doc["format_version"])
    if saved != json_text(version):
        raise InvalidInputError(f"{path}: unsupported {what} version {saved}")
    return doc


def write_artifact(path, version: int, **fields) -> None:
    """Compact JSON of ``fields`` after ``format_version``: what ``read_artifact`` reads."""
    Path(path).write_text(json.dumps({"format_version": version, **fields}))


def write_json(path, doc) -> None:
    """``doc`` as JSON with 2-space indents, sorted keys and a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _csv_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v if isinstance(v, str) else int(v)


def write_csv(path, header, rows) -> None:
    """A header and rows as CSV. Text is written as itself, a float (numpy's
    too) as ``repr(float(v))``, which round-trips its bits, and any other
    value as ``int(v)``, so a boolean is 0 or 1. Pass rows as lists
    (``.tolist()``): a cell that is a numpy scalar costs more to format."""
    with Path(path).open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


def json_array(value, name: str, shape: dict[str, int]) -> np.ndarray:
    """Nested lists of finite numbers as a float64 array of ``shape``, which
    names each axis, outermost first: ``{"rows": 60, "classes": 3}``."""
    items = [value]
    for unit, n in shape.items():
        for v in items:
            if not isinstance(v, list):
                raise InvalidInputError(f"{name} is not a list of {n} {unit}: {v!r:.40}")
            if len(v) != n:
                raise InvalidInputError(f"{name} has {len(v)} {unit}, configured {n}")
        items = [x for v in items for x in v]
    # not a bool or string, nor NaN, inf or an int too large for a float
    if not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in items):
        raise InvalidInputError(f"{name} holds an entry that is not a finite number")
    return np.array(items, dtype=np.float64).reshape(tuple(shape.values()))


def _by_columns(m: np.ndarray) -> bool:
    rows, cols = m.shape
    return 0 < cols <= MAX_COLUMN_WIDTH and rows >= ROWS_PER_COLUMN * cols


def _reduce_columns(ufunc, out: np.ndarray, m: np.ndarray) -> np.ndarray:
    for j in range(1, m.shape[1]):
        ufunc(out, m[:, j], out=out)
    return out


def row_max(m: np.ndarray) -> np.ndarray:
    """``m.max(axis=1)`` of a 2-D array, with its bits."""
    return _reduce_columns(np.maximum, m[:, 0].copy(), m) if _by_columns(m) else m.max(axis=1)


def row_sum(m: np.ndarray) -> np.ndarray:
    """``m.sum(axis=1)`` of a 2-D array, with its bits: numpy starts from
    +0.0, so a row of -0.0 sums to +0.0."""
    return _reduce_columns(np.add, m[:, 0] + 0.0, m) if _by_columns(m) else m.sum(axis=1)


def softmax_rows(m) -> np.ndarray:
    """Row-wise stable softmax of a 2-D array."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or not np.isfinite(arr).all():
        raise InvalidInputError("softmax_rows expects a 2-D array of finite values")
    e = arr - row_max(arr)[:, None]
    np.exp(e, out=e)
    e /= row_sum(e)[:, None]
    return e


def clamped_log(p: np.ndarray) -> np.ndarray:
    out = np.maximum(p, LOG_EPS)
    return np.log(out, out=out)


def entropy_rows(m, log_m=None) -> np.ndarray:
    """Per-row Shannon entropy -sum p*log(p), natural log, with the LOG_EPS
    clamp; ``log_m`` is ``clamped_log(m)`` when the caller has it."""
    arr = np.asarray(m, dtype=np.float64)
    return -row_sum(arr * (clamped_log(arr) if log_m is None else log_m))


def random_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """The seeded generator of stream ``stream_id`` of ``seed``.

    The streams in use: 0 dataset generation, 1 split sampling, 2 parameter
    init, 3 ``theory.flatness_bound_check``, 4 ``theory.finite_diff_suite``,
    10/11/12 the batch order of stages 1/2/3.

    The same ``(seed, stream_id)`` draws the same sequence on every platform
    (PCG64 under a fixed seed sequence). A generator has a single owner:
    never share one across concurrent workers.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.PCG64(ss))
