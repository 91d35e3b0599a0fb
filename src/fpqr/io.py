"""CSV datasets and the on-disk model format.

Datasets are plain comma-separated text: one mandatory header row of unique
column names, then rectangular numeric rows (decimal point, UTF-8). Models are
stored as versioned JSON; floats go through Python's shortest round-trip
representation, so reloading reproduces predictions exactly.
"""

import csv
import json
import math

import numpy as np

from .exceptions import DataError, ModelFormatError
from .linalg import CENTERING_MODES, CenteringInfo
from .pls import FittedModel, LatentDecomposition
from .qcov import METRIC_KINDS
from .quantreg import validate_tau

MODEL_FORMAT_VERSION = 1


def read_dataset(path):
    """Read a numeric CSV with a header.

    Returns ``(column_names, matrix)``. Any structural or numeric problem
    raises :class:`DataError` naming the file line and column.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not valid UTF-8: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: file is empty")
    header = [name.strip() for name in rows[0]]
    if any(not name for name in header):
        raise DataError(f"{path}: header contains an empty column name")
    seen = set()
    for name in header:
        if name in seen:
            raise DataError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no data rows after the header")
    width = len(header)
    data = np.empty((len(body), width))
    for i, row in enumerate(body):
        line = i + 2  # 1-based, counting the header
        if len(row) != width:
            raise DataError(f"{path}: line {line} has {len(row)} fields, expected {width}")
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: line {line}, column {header[j]!r}: {cell.strip()!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: line {line}, column {header[j]!r}: non-finite value {cell.strip()!r}"
                )
            data[i, j] = value
    return header, data


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
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])


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
            "effective_components": model.effective_components,
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
            "coefficients": model.coefficients.tolist(),
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
    ``MODEL_FORMAT_VERSION`` is rejected.
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

    coefficients = _payload_array(payload, "coefficients", (None, None))
    m, l = coefficients.shape
    weights = _payload_array(payload, "weights", (m, None))
    h = weights.shape[1]
    x_loadings = _payload_array(payload, "x_loadings", (m, h))
    y_loadings = _payload_array(payload, "y_loadings", (l, h))
    gamma = _payload_array(payload, "gamma", (h, l))
    intercepts = _payload_array(payload, "intercepts", (l,))
    x_centers = _payload_array(payload, "x_centers", (m,))
    y_centers = _payload_array(payload, "y_centers", (l,))

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
    model = FittedModel(
        decomposition=LatentDecomposition(weights, x_loadings, y_loadings, scores=None),
        gamma=gamma,
        intercepts=intercepts,
        coefficients=coefficients,
        x_centering=CenteringInfo(x_centers, center),
        y_centering=CenteringInfo(y_centers, center),
        metric=metric,
        tau=tau,
        requested_components=int(metadata.get("requested_components", h)),
    )
    return model, metadata
