"""CSV datasets and the on-disk model format.

Datasets are plain comma-separated text: one mandatory header row of unique
column names, then rectangular numeric rows (decimal point, UTF-8; the
dialect is set out in :func:`read_dataset`). Models are
stored as versioned JSON; floats go through Python's shortest round-trip
representation, so reloading reproduces predictions exactly.
"""

import csv
import json
import re
import warnings

import numpy as np

from .exceptions import DataError, IllConditionedWarning, ModelFormatError, RankDeficient
from .linalg import CENTERING_MODES, CenteringInfo
from .pls import FittedModel, LatentDecomposition, back_project
from .qcov import METRIC_KINDS
from .quantreg import validate_tau

MODEL_FORMAT_VERSION = 1


def read_dataset(path):
    """Read a numeric CSV with a header.

    Returns ``(column_names, matrix)``. Any structural or numeric problem
    raises :class:`DataError` naming the first faulty file line and, where
    one cell is at fault, its column.

    The header goes through :mod:`csv`. The body is parsed in one
    :func:`numpy.loadtxt` call, which reads a cell as Python's ``float``
    does, except that it accepts neither ``_`` digit separators nor
    non-ASCII digits. Spaces and tabs around a cell are ignored, and a cell
    may be double-quoted as :mod:`csv` quotes, provided the quote closes on
    the same line. Blank lines are rejected, and ``#`` starts no comment.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            body = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not valid UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
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
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last line
    if not lines:
        raise DataError(f"{path}: no data rows after the header")
    return header, _parse_body(path, header, lines, reader.line_num + 1, quoted='"' in body)


# How loadtxt splits a body line: "#" starts no comment.
_DIALECT = dict(delimiter=",", comments=None, quotechar='"')
# A line whose quoted cells all close on it. As in csv, a quote opens a cell
# only at the cell's start, and "" inside a quoted cell is one quote.
_CELL = r'(?:"(?:[^"]|"")*"(?:[^,"][^,]*)?|(?:[^,"][^,]*)?)'
_QUOTES_CLOSE = re.compile(rf"{_CELL}(?:,{_CELL})*")
# loadtxt's messages; the cell it quotes is cut short, so it is not read.
_BAD_CELL = re.compile(r"could not convert string .* at row (\d+), column (\d+)\.$", re.DOTALL)
_WIDTH_CHANGE = re.compile(r"the number of columns changed from \d+ to (\d+) at row (\d+)")


def _parse_body(path, header, lines, first, quoted):
    # ``first`` is the 1-based file line of lines[0]. loadtxt would skip a
    # blank line and leave it out of its row count, and it would carry an
    # unclosed quote on into the next line, so the lines before the first
    # such one are parsed and that line is the fault. Whatever the fault,
    # the error names the first faulty line, as a line-by-line reader would.
    width = len(header)
    end = lines.index("") if "" in lines else len(lines)
    fault = None if end == len(lines) else _width_error(path, first + end, 0, width)
    if quoted:
        for i, line in enumerate(lines[:end]):
            if '"' in line and not _QUOTES_CLOSE.fullmatch(line):
                end, fault = i, DataError(f"{path}: line {first + i}: a quoted cell does not close on its line")
                break
    try:
        data = np.loadtxt(lines[:end], ndmin=2, **_DIALECT) if end else None
    except ValueError as exc:
        end, fault = _loadtxt_fault(path, header, lines, first, str(exc))
        data = np.loadtxt(lines[:end], ndmin=2, **_DIALECT) if end else None
    if data is not None:
        if data.shape[1] != width:
            raise _width_error(path, first, data.shape[1], width)
        finite = np.isfinite(data)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            cell = _shown(_cells(lines[i])[j].strip())
            raise DataError(f"{path}: line {first + i}, column {header[j]!r}: non-finite value {cell}")
    if fault is not None:
        raise fault
    return data


def _cells(line):
    # One body line's cells as text, split as loadtxt splits them.
    return np.loadtxt([line], dtype=object, ndmin=1, **_DIALECT)


def _shown(cell):
    return repr(cell) if len(cell) <= 40 else f"{cell[:40]!r}... ({len(cell)} characters)"


def _width_error(path, line, fields, width):
    return DataError(f"{path}: line {line} has {fields} fields, expected {width}")


def _loadtxt_fault(path, header, lines, first, message):
    # The body row a loadtxt error names, and its DataError. loadtxt counts
    # rows from 0 when a cell fails to convert and from 1 when the column
    # count changes; it checks a row's width before its cells, against the
    # first row's width, not the header's.
    width = len(header)
    match = _BAD_CELL.match(message)
    if match:
        row, j = int(match[1]), int(match[2]) - 1
        cells = _cells(lines[row])
        if cells.size != width:
            return row, _width_error(path, first + row, cells.size, width)
        cell = _shown(cells[j].strip())
        return row, DataError(f"{path}: line {first + row}, column {header[j]!r}: {cell} is not numeric")
    match = _WIDTH_CHANGE.match(message)
    if match:
        row = int(match[2]) - 1
        return row, _width_error(path, first + row, int(match[1]), width)
    return 0, DataError(f"{path}: {message}")


def split_response_columns(header, data, response_names):
    """Split one table into predictor and response blocks by column name."""
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
    return data[:, predictor_idx], data[:, response_idx], x_names, y_names


def write_matrix_csv(path, header, matrix):
    """Write a numeric matrix under a header, one float per cell, round-trip exact."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.shape[1] != len(header):
        raise ValueError(f"matrix has {matrix.shape[1]} columns, header has {len(header)}")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        # csv.writer would write each float as repr gives it, unquoted, and
        # end each row with its "\r\n"; joining the row ourselves is the same
        # text without a call per cell.
        handle.writelines(",".join(map(repr, row)) + "\r\n" for row in matrix.tolist())


def write_table_csv(path, header, rows):
    """Write a header and rows of cells, each cell as ``str`` gives it."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def save_model(model, path, x_columns, y_columns):
    """Serialize a fitted model to versioned JSON. Training scores are not kept."""
    if len(x_columns) != model.n_features:
        raise ValueError(f"{len(x_columns)} x_columns for {model.n_features} features")
    if len(y_columns) != model.n_responses:
        raise ValueError(f"{len(y_columns)} y_columns for {model.n_responses} responses")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "metadata": {
            "method": "pls" if model.tau is None else "fpqr",
            "metric": model.metric,
            "tau": model.tau,
            "requested_components": model.requested_components,
            "center": model.x_centering.mode,
            "x_columns": list(x_columns),
            "y_columns": list(y_columns),
        },
        "payload": {
            "weights": model.decomposition.weights.tolist(),
            "x_loadings": model.decomposition.x_loadings.tolist(),
            "y_loadings": model.decomposition.y_loadings.tolist(),
            "gamma": model.gamma.tolist(),
            "intercepts": model.intercepts.tolist(),
            "x_centers": model.x_centering.column_centers.tolist(),
            "y_centers": model.y_centering.column_centers.tolist(),
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


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
    ``MODEL_FORMAT_VERSION`` is rejected. The coefficients are rebuilt from
    the stored weights, x-loadings and inner coefficients by
    :func:`~fpqr.pls.back_project`, as the fit built them; a ``coefficients``
    field in the payload is ignored.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at the top level")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
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
    y_loadings = _payload_array(payload, "y_loadings", (l, h))
    gamma = _payload_array(payload, "gamma", (h, l))
    intercepts = _payload_array(payload, "intercepts", (l,))

    for key, count in (("x_columns", m), ("y_columns", l)):
        names = metadata.get(key)
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)
                and len(set(names)) == len(names) == count):
            raise ModelFormatError(f"{path}: metadata {key!r} must list {count} distinct column names")
    tau = metadata.get("tau")
    try:
        tau = None if tau is None else validate_tau(tau)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: metadata 'tau': {exc}") from None
    center = metadata.get("center", "mean")
    if center not in CENTERING_MODES:
        raise ModelFormatError(f"{path}: metadata 'center' {center!r} is not one of {CENTERING_MODES}")
    metric = metadata.get("metric")
    if metric not in (None, "custom", *METRIC_KINDS):
        raise ModelFormatError(f"{path}: metadata 'metric' {metric!r} is not a known metric")
    requested = metadata.get("requested_components", h)
    if not (isinstance(requested, int) and not isinstance(requested, bool) and h <= requested <= m):
        raise ModelFormatError(
            f"{path}: metadata 'requested_components' {requested!r} must be an integer in [{h}, {m}]"
        )
    decomposition = LatentDecomposition(weights, x_loadings, y_loadings, scores=None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        try:
            coefficients = back_project(decomposition, gamma, m, l)
        except RankDeficient as exc:
            raise ModelFormatError(f"{path}: model payload loadings and weights are singular: {exc}") from None
    model = FittedModel(
        decomposition=decomposition,
        gamma=gamma,
        intercepts=intercepts,
        coefficients=coefficients,
        x_centering=CenteringInfo(x_centers, center),
        y_centering=CenteringInfo(y_centers, center),
        metric=metric,
        tau=tau,
        requested_components=requested,
    )
    return model, metadata
