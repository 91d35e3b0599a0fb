"""Property tests at the boundary: whatever bytes reach ``fpqr fit`` and
``fpqr predict``, they exit with a documented code, and a saved model
predicts exactly what the fitted one did."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from fpqr import fit_fpqr, fit_pls, load_model, read_dataset, save_model
from fpqr.cli import main
from fpqr.io import write_matrix_csv

EXIT_CODES = {0, 2, 3, 4}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A folder with a training table and a model fitted on it by the CLI."""
    folder = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, 3))
    Y = X @ [[1.0], [-0.5], [0.25]] + rng.standard_t(3, size=(12, 1))
    write_matrix_csv(folder / "train.csv", ["x0", "x1", "x2", "y"], np.hstack([X, Y]))
    code = main(["fit", "--data", str(folder / "train.csv"), "--response-cols", "y",
                 "--components", "2", "--out", str(folder / "model.json")])
    assert code == 0
    return folder


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(arg) for arg in argv])


def fit_and_predict(folder, data):
    """Exit codes of ``fit`` on ``data`` and of ``predict`` with the stored model on it."""
    path = folder / "fuzz.csv"
    path.write_bytes(data)
    fit = run(["fit", "--data", path, "--response-cols", "y", "--components", "1",
               "--out", folder / "fuzz.json"])
    predict = run(["predict", "--model", folder / "model.json", "--x", path, "--out", folder / "p.csv"])
    return fit, predict


@settings(max_examples=80)
@given(st.binary(max_size=80))
def test_random_bytes_exit_cleanly(workspace, data):
    fit, predict = fit_and_predict(workspace, data)
    assert fit in EXIT_CODES and predict in EXIT_CODES


# Pieces that reach every branch of the reader: quotes, blank lines, "#",
# digit spellings only float() takes, bad UTF-8, over-long cells.
PIECES = {
    "comma": b",", "lf": b"\n", "cr": b"\r", "crlf": b"\r\n", "quote": b'"', "space": b" ", "hash": b"#",
    "underscore": b"_", "e": b"e", "minus": b"-", "x": b"x", "inf": b"inf", "nan": b"nan", "overflow": b"1e999",
    "arabic-one": "\u0661".encode(), "bad-utf8": b"\xff", "nul": b"\x00", "bom": b"\xef\xbb\xbf",
    "long": b"9" * 140_000,
}


@pytest.mark.parametrize("piece", PIECES.values(), ids=PIECES.keys())
@settings(max_examples=8)
@given(
    st.integers(0, 10_000),
    st.lists(st.tuples(st.booleans(), st.integers(0, 10_000), st.sampled_from(list(PIECES.values()))), max_size=2),
)
def test_mutated_table_exits_cleanly(workspace, piece, where, mutations):
    data = (workspace / "train.csv").read_bytes()[:400]
    data = data[: data.rfind(b"\n") + 1]
    for insert, at, chunk in [(True, where, piece), *mutations]:
        at %= len(data) + 1
        data = data[:at] + chunk + data[at:] if insert else data[:at] + data[at + len(chunk):]
    fit, predict = fit_and_predict(workspace, data)
    assert fit in EXIT_CODES and predict in EXIT_CODES


def json_paths(node, path=()):
    """Every path to a value inside a JSON document."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


REPLACEMENTS = [None, True, 0, -1, 2, 0.5, 1e308, "x", "", [], [[]], [1.0], {}, "NaN"]


@settings(max_examples=120)
@given(st.integers(0, 10_000), st.sampled_from(REPLACEMENTS), st.booleans(), st.integers(0, 10_000))
def test_mutated_model_exits_cleanly(workspace, where, value, delete, cut):
    doc = json.loads((workspace / "model.json").read_text())
    paths = list(json_paths(doc))[1:]
    *parents, key = paths[where % len(paths)]
    node = doc
    for parent in parents:
        node = node[parent]
    if delete and isinstance(node, dict):
        del node[key]
    else:
        node[key] = value
    text = json.dumps(doc)
    if cut % 4 == 0:  # and sometimes a truncated file
        text = text[: cut % len(text)]
    (workspace / "fuzz.json").write_text(text)
    code = run(["predict", "--model", workspace / "fuzz.json", "--x", workspace / "train.csv",
                "--out", workspace / "p.csv"])
    assert code in EXIT_CODES


@st.composite
def fitted_models(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m, l = draw(st.integers(8, 40)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    X = rng.normal(size=(n, m)) * rng.uniform(0.01, 100.0, size=m) + rng.normal(size=m)
    Y = X @ rng.normal(size=(m, l)) + rng.standard_t(2, size=(n, l))
    h = draw(st.integers(1, min(n - 1, m)))
    center = draw(st.sampled_from(["mean", "none"]))
    if draw(st.booleans()):
        model = fit_pls(X, Y, h, center=center)
    else:
        model = fit_fpqr(X, Y, h, tau=draw(st.sampled_from([0.1, 0.5, 0.77])), metric="li", center=center)
    return model, rng.normal(size=(5, m)) * 10.0


@settings(max_examples=60)
@given(fitted_models())
def test_save_load_predict_bit_exact(tmp_path_factory, fitted):
    model, X_new = fitted
    path = tmp_path_factory.getbasetemp() / "round-trip.json"
    save_model(model, path, [f"x{j}" for j in range(model.n_features)], [f"y{k}" for k in range(model.n_responses)])
    loaded, _ = load_model(path)
    assert_array_equal(loaded.coefficients, model.coefficients)
    assert_array_equal(loaded.predict(X_new), model.predict(X_new))


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["pls", "fpqr"]))
def test_predict_ignores_column_order(tmp_path_factory, seed, method):
    folder = tmp_path_factory.getbasetemp()
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    X = rng.normal(size=(30, m))
    Y = X @ rng.normal(size=(m, 2)) + rng.normal(size=(30, 2))
    names = [f"x{j}" for j in range(m)]
    write_matrix_csv(folder / "train.csv", names + ["u", "v"], np.hstack([X, Y]))
    assert run(["fit", "--method", method, "--data", folder / "train.csv", "--response-cols", "u,v",
                "--components", "2", "--out", folder / "model.json"]) == 0
    X_new = rng.normal(size=(9, m))
    order = rng.permutation(m)
    write_matrix_csv(folder / "held.csv", names, X_new)
    write_matrix_csv(folder / "shuffled.csv", [names[j] for j in order], X_new[:, order])
    for name in ("held", "shuffled"):
        assert run(["predict", "--model", folder / "model.json", "--x", folder / f"{name}.csv",
                    "--out", folder / f"{name}-out.csv"]) == 0
    assert (folder / "held-out.csv").read_bytes() == (folder / "shuffled-out.csv").read_bytes()
    model, _ = load_model(folder / "model.json")
    assert_array_equal(read_dataset(folder / "held-out.csv")[1], model.predict(X_new))
