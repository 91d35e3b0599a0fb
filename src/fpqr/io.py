"""CSV datasets and the on-disk model format.

Datasets are plain comma-separated text: one mandatory header row of unique
column names, then rectangular numeric rows (decimal point, UTF-8; the
dialect is set out in :func:`read_dataset`). Models are
stored as versioned JSON; floats go through Python's shortest round-trip
representation, so reloading reproduces predictions exactly.
"""

__all__ = ["load_model", "read_dataset", "save_model", "split_response_columns", "write_matrix_csv"]

import csv
import itertools
import json
import re
import warnings

import numpy as np

from .exceptions import DataError, IllConditionedWarning, ModelFormatError, RankDeficient
from .linalg import CENTERING_MODES
from .pls import FittedModel, LatentDecomposition
from .qcov import METRIC_KINDS
from .quantreg import validate_tau

MODEL_FORMAT_VERSION = 1


def read_dataset(path):
    """Read a numeric CSV with a header.

    Returns ``(column_names, matrix)``. Any structural or numeric problem
    raises :class:`DataError` naming the first faulty file line and, where
    one cell is at fault, its column.

    The header goes through :mod:`csv`, the body through
    :func:`numpy.loadtxt`, which reads a cell as Python's ``float`` does,
    except that it accepts neither ``_`` digit separators nor non-ASCII
    digits. Spaces and tabs around a cell are ignored, and a cell may be
    double-quoted as :mod:`csv` quotes, provided the quote closes on the same
    line. Blank lines are rejected, and ``#`` starts no comment.

    The body is parsed in one call, the only one that returns data, which
    streams its lines from the open file: peak memory is about the result. A
    body it refuses is walked again from its first line only to name the first
    faulty one: a file by seeking back, a pipe from the lines kept as they
    were read. The path is opened once, so a named pipe works.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            reader = csv.reader(iter(handle.readline, ""))
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty")
            if not header:
                raise DataError(f"{path}: line 1 is blank, expected the header")
            header = [name.strip() for name in header]
            if any(not name for name in header):
                raise DataError(f"{path}: header contains an empty column name")
            seen = set()
            for name in header:
                if name in seen:
                    raise DataError(f"{path}: duplicate column name {name!r}")
                seen.add(name)
            start = handle.tell() if handle.seekable() else None
            head = handle.readline()
            if not head:
                raise DataError(f"{path}: no data rows after the header")
            kept = None if start is not None else []  # a pipe cannot seek back to the body
            data = _read_whole(itertools.chain([head], handle), len(header), kept)
            if data is not None:
                return header, data
            if kept is None:
                handle.seek(start)
            for number, line in enumerate(itertools.chain(kept or [], handle), reader.line_num + 1):
                _check_line(f"{path}: line {number}", header, line.rstrip("\n"))
            raise AssertionError(f"{path}: loadtxt refused the body but no line of it")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not valid UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_whole(lines, width, kept):
    """The body ``lines`` as one (rows, width) array from one loadtxt call, or
    None where a line is faulty; ``kept``, unless None, collects every line
    taken from ``lines``."""
    rows = 0

    def checked():
        nonlocal rows
        for line in lines:
            if kept is not None:
                kept.append(line)
            line = line.rstrip("\n")
            # loadtxt would skip a blank line and carry an unclosed quote on
            # into the next line; checking line by line names the fault.
            if not line or '"' in line and not _QUOTES_CLOSE.fullmatch(line):
                raise ValueError("check the body line by line")
            rows += 1
            yield line

    try:
        data = np.loadtxt(checked(), ndmin=2, **_DIALECT)
    except UnicodeDecodeError:
        raise
    except ValueError:
        return None
    return data if data.shape == (rows, width) and np.isfinite(data).all() else None


# How loadtxt splits a body line: "#" starts no comment.
_DIALECT = dict(delimiter=",", comments=None, quotechar='"')
# A line whose quoted cells all close on it. As in csv, a quote opens a cell
# only at the cell's start, and "" inside a quoted cell is one quote.
_CELL = r'(?:"(?:[^"]|"")*"(?:[^,"][^,]*)?|(?:[^,"][^,]*)?)'
_QUOTES_CLOSE = re.compile(rf"{_CELL}(?:,{_CELL})*")


def _check_line(where, header, line):
    """Raise a DataError, prefixed by ``where``, for the first fault of one body line, if it has one."""
    if '"' in line and not _QUOTES_CLOSE.fullmatch(line):
        raise DataError(f"{where}: a quoted cell does not close on its line")
    if _read_whole([line], len(header), None) is not None:
        return
    # Split as loadtxt splits; "" has no cells, as csv reads a blank line.
    cells = np.loadtxt([line], dtype=object, ndmin=1, **_DIALECT) if line else []
    if len(cells) != len(header):
        raise DataError(f"{where} has {len(cells)} fields, expected {len(header)}")
    for j, name in enumerate(header):
        cell = cells[j].strip()
        cell = repr(cell) if len(cell) <= 40 else f"{cell[:40]!r}... ({len(cell)} characters)"
        try:
            value = np.loadtxt([line], usecols=j, **_DIALECT)
        except ValueError:
            raise DataError(f"{where}, column {name!r}: {cell} is not numeric") from None
        if not np.isfinite(value):
            raise DataError(f"{where}, column {name!r}: non-finite value {cell}")
    raise AssertionError(f"{where}: loadtxt read the line whole but not cell by cell")


def split_response_columns(header, data, response_names):
    """Split one table into predictor and response blocks by column name, each in C order as the fit reads it."""
    missing = [name for name in response_names if name not in header]
    if missing:
        raise DataError(f"response column(s) {missing} not found; available: {header}")
    if len(set(response_names)) != len(response_names):
        raise DataError("response column names must be unique")
    response_idx = [header.index(name) for name in response_names]
    predictor_idx = [j for j in range(len(header)) if j not in set(response_idx)]
    if not predictor_idx:
        raise DataError("no predictor columns remain after removing the responses")
    x_names = [header[j] for j in predictor_idx]
    y_names = [header[j] for j in response_idx]
    return np.take(data, predictor_idx, axis=1), np.take(data, response_idx, axis=1), x_names, y_names


def write_matrix_csv(path, header, matrix):
    """Write a numeric matrix under a header, one float per cell, round-trip exact. A 1-d matrix is one
    column; unlike an array argument elsewhere, the matrix may hold NaN and inf, which are written as is."""
    matrix = np.asarray(matrix, dtype=float)
    matrix = matrix[:, None] if matrix.ndim == 1 else matrix
    if matrix.shape[1] != len(header):
        raise ValueError(f"matrix has {matrix.shape[1]} columns, header has {len(header)}")
    write_table_csv(path, header, (map(repr, row.tolist()) for row in matrix))


def write_table_csv(path, header, rows):
    """Write a header and rows of text cells. The cells are joined unquoted,
    so none may hold a comma, a double quote or a line break."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        handle.writelines(",".join(row) + "\r\n" for row in rows)


def save_model(model, path, x_columns, y_columns):
    """Serialize a fitted model to versioned JSON. Training scores and y-loadings are not kept."""
    x_columns, y_columns = list(x_columns), list(y_columns)
    for key, names, count in (("x_columns", x_columns, model.n_features), ("y_columns", y_columns, model.n_responses)):
        if not _distinct_names(names, count):
            raise ValueError(f"{key} must list {count} distinct column names")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "metadata": {
            "method": "pls" if model.tau is None else "fpqr",
            "metric": model.metric,
            "tau": model.tau,
            "requested_components": model.requested_components,
            "center": model.center,
            "x_columns": x_columns,
            "y_columns": y_columns,
        },
        "payload": {
            "weights": model.decomposition.weights.tolist(),
            "x_loadings": model.decomposition.x_loadings.tolist(),
            "gamma": model.gamma.tolist(),
            "intercepts": model.intercepts.tolist(),
            "x_centers": model.x_centers.tolist(),
            "y_centers": model.y_centers.tolist(),
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def _distinct_names(names, count):
    """Whether the list ``names`` holds ``count`` distinct strings, as a model file's column lists must."""
    return all(isinstance(name, str) for name in names) and len(set(names)) == len(names) == count


def _is_integer(value, low, high):
    """Whether a JSON value is an integer in [low, high]; ``true`` and ``1.0`` are not integers."""
    return type(value) is int and low <= value <= high


def _payload_array(payload, key, shape):
    """The payload field ``key`` as a finite float array; ``None`` in ``shape`` matches any length."""
    try:
        arr = np.asarray(payload[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model payload field {key!r} is missing or malformed") from exc
    if arr.size == 0 and 0 in shape:
        # An empty nested list loses its trailing dimension in round-trips.
        arr = arr.reshape(shape)
    if arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise ModelFormatError(f"model payload field {key!r} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"model payload field {key!r} contains non-finite values")
    return arr


def load_model(path):
    """Load a model written by :func:`save_model`.

    Returns ``(model, metadata)``. Any version other than
    ``MODEL_FORMAT_VERSION`` is rejected. :class:`~fpqr.pls.FittedModel`
    rebuilds the coefficients from the stored weights, x-loadings and inner
    coefficients, as the fit built them. Centering mode ``"none"`` requires
    all-zero centers. Stored ``coefficients`` and ``y_loadings`` are ignored:
    the decomposition has neither y-loadings nor scores.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, int-digit limit, nesting
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at the top level")
    version = doc.get("format_version")
    if not _is_integer(version, MODEL_FORMAT_VERSION, MODEL_FORMAT_VERSION):
        raise ModelFormatError(
            f"{path}: unsupported model format version {version!r}; this build reads version {MODEL_FORMAT_VERSION}"
        )
    metadata = doc.get("metadata")
    payload = doc.get("payload")
    if not isinstance(metadata, dict) or not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: metadata or payload block is missing")

    x_centers = _payload_array(payload, "x_centers", (None,))
    y_centers = _payload_array(payload, "y_centers", (None,))
    m, l = x_centers.size, y_centers.size
    if not (m and l):
        raise ModelFormatError(f"{path}: model payload has {m} predictor and {l} response centers")
    weights = _payload_array(payload, "weights", (m, None))
    h = weights.shape[1]
    x_loadings = _payload_array(payload, "x_loadings", (m, h))
    gamma = _payload_array(payload, "gamma", (h, l))
    intercepts = _payload_array(payload, "intercepts", (l,))

    for key, count in (("x_columns", m), ("y_columns", l)):
        names = metadata.get(key)
        if not (isinstance(names, list) and _distinct_names(names, count)):
            raise ModelFormatError(f"{path}: metadata {key!r} must list {count} distinct column names")
    tau = metadata.get("tau")
    try:
        tau = None if tau is None else validate_tau(tau)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: metadata 'tau': {exc}") from None
    center = metadata.get("center", "mean")
    if center not in CENTERING_MODES:
        raise ModelFormatError(f"{path}: metadata 'center' {center!r} is not one of {CENTERING_MODES}")
    if center == "none" and (x_centers.any() or y_centers.any()):
        raise ModelFormatError(f"{path}: metadata 'center' is 'none', but the payload's centers are not all zero")
    metric = metadata.get("metric")
    if metric not in (None, "custom", *METRIC_KINDS):
        raise ModelFormatError(f"{path}: metadata 'metric' {metric!r} is not a known metric")
    method = metadata.get("method")
    if (method, tau is None, metric is None) not in (("pls", True, True), ("fpqr", False, False)):
        raise ModelFormatError(f"{path}: metadata 'method' {method!r} does not match 'tau' and 'metric'")
    requested = metadata.get("requested_components", h)
    if not _is_integer(requested, h, m):
        raise ModelFormatError(
            f"{path}: metadata 'requested_components' {requested!r} must be an integer in [{h}, {m}]"
        )
    decomposition = LatentDecomposition(weights, x_loadings, y_loadings=None, scores=None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        try:
            model = FittedModel(decomposition, gamma, intercepts, x_centers, y_centers, center, metric, tau, requested)
        except RankDeficient as exc:
            raise ModelFormatError(f"{path}: model payload loadings and weights are singular: {exc}") from None
    return model, metadata
