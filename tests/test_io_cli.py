import csv
import json
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fpqr import cross_validate, evaluate, fit_fpqr, fit_pls, load_model, quantreg, read_dataset, save_model
from fpqr.cli import main
from fpqr.exceptions import DataError, IllConditionedWarning, ModelFormatError
from fpqr.io import split_response_columns, write_matrix_csv


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def xy_files(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    Y = X @ rng.normal(size=(4, 1)) + 0.1 * rng.normal(size=(30, 1))
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    write_csv(x_path, [f"x{j}" for j in range(4)], X.tolist())
    write_csv(y_path, ["y0"], Y.tolist())
    return str(x_path), str(y_path), X, Y


class TestReadDataset:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(7, 3)) * 1e-7
        path = tmp_path / "m.csv"
        write_matrix_csv(path, ["a", "b", "c"], M)
        names, back = read_dataset(path)
        assert names == ["a", "b", "c"]
        assert_array_equal(back, M)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_dataset(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            read_dataset(path)

    def test_duplicate_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(DataError, match="duplicate column"):
            read_dataset(path)

    def test_blank_column_name(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("a,\n1,2\n")
        with pytest.raises(DataError, match="empty column name"):
            read_dataset(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            read_dataset(path)

    def test_bad_cell_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"line 3, column 'b'"):
            read_dataset(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a\ninf\n")
        with pytest.raises(DataError, match="non-finite"):
            read_dataset(path)

    def test_invalid_utf8_past_the_first_block(self, tmp_path):
        # The header's read decodes only the first 8 KB; this byte is decoded
        # while loadtxt streams the body.
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 4000 + b"3,\xff\n")
        with pytest.raises(DataError, match="is not valid UTF-8"):
            read_dataset(path)

    def test_utf8_bom_is_stripped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeffa,b\n1,2\n".encode("utf-8"))
        names, data = read_dataset(path)
        assert names == ["a", "b"]
        assert_array_equal(data, [[1.0, 2.0]])


def traced_peak(call):
    """``call()``'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_table(tmp_path_factory):
    # 2000 x 100 doubles: a 1.5 MiB array and a 3.9 MB CSV.
    table = np.random.default_rng(38).standard_normal((2000, 100))
    path = tmp_path_factory.mktemp("wide") / "t.csv"
    write_matrix_csv(path, [f"c{j}" for j in range(100)], table)
    return path, table


class TestBoundedMemory:
    def test_reader_holds_about_the_result(self, wide_table):
        # The body streams into loadtxt: neither its text nor a list of its
        # lines is held. Peaks: 11.3 MiB when they were, 1.9 MiB streamed.
        path, table = wide_table
        (_, data), peak = traced_peak(lambda: read_dataset(path))
        assert data.tobytes() == table.tobytes()
        assert peak < 2 * table.nbytes

    def test_writer_holds_a_row_at_a_time(self, wide_table, tmp_path):
        # Peaks: 6.4 MiB with every cell a Python float at once, 0.14 MiB by rows.
        path, table = wide_table
        _, peak = traced_peak(lambda: write_matrix_csv(tmp_path / "o.csv", [f"c{j}" for j in range(100)], table))
        assert (tmp_path / "o.csv").read_bytes() == path.read_bytes()
        assert peak < table.nbytes / 4


def through_pipe(path, data, call):
    """``call(path)`` on a named pipe that another thread fills with ``data``.

    The call runs in a thread too, so a read that blocks (reopening the pipe
    would) fails the test after a timeout instead of hanging it.
    """
    os.mkfifo(path)
    outcome = {}

    def fill():
        try:
            with open(path, "wb") as handle:
                handle.write(data)
        except BrokenPipeError:  # the reader stopped at a fault
            pass

    def read():
        try:
            outcome["result"] = call(str(path))
        except Exception as exc:  # re-raised below, in the test's thread
            outcome["error"] = exc

    threads = [threading.Thread(target=target, daemon=True) for target in (fill, read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads), "reading the pipe blocked"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
class TestNamedPipe:
    """A pipe cannot seek, so the reader keeps what it read to read it again."""

    @pytest.fixture
    def table(self, tmp_path):
        path = tmp_path / "t.csv"
        write_matrix_csv(path, list("abcde"), np.random.default_rng(39).standard_normal((300, 5)))
        return path

    def test_well_formed_body_reads_as_the_file_does(self, table, tmp_path):
        header, data = through_pipe(tmp_path / "pipe", table.read_bytes(), read_dataset)
        file_header, file_data = read_dataset(table)
        assert header == file_header
        assert data.tobytes() == file_data.tobytes()

    @pytest.mark.parametrize("fault", ["1,2,x,4,5", "", '1,"2,3,4,5'], ids=["cell", "blank", "quote"])
    def test_malformed_body_names_the_line_the_file_does(self, table, tmp_path, fault):
        lines = table.read_text().split("\n")
        lines[200] = fault
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        with pytest.raises(DataError) as from_file:
            read_dataset(bad)
        with pytest.raises(DataError) as from_pipe:
            through_pipe(tmp_path / "pipe", bad.read_bytes(), read_dataset)
        assert "line 201" in str(from_file.value)
        assert str(from_pipe.value) == str(from_file.value).replace(str(bad), str(tmp_path / "pipe"))

    def test_cli_exits_3_without_a_traceback(self, table, tmp_path, capsys):
        lines = table.read_bytes().split(b"\n")
        lines.insert(150, b"1,2,x,4,5")
        argv = lambda path: ["fit", "--data", path, "--response-cols", "e", "--out", str(tmp_path / "m.json")]
        assert through_pipe(tmp_path / "pipe", b"\n".join(lines), lambda path: main(argv(path))) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 151, column 'c'" in err and "Traceback" not in err


class TestSplitResponseColumns:
    def test_split_preserves_order(self):
        header = ["a", "b", "c", "d"]
        data = np.arange(8.0).reshape(2, 4)
        X, Y, x_names, y_names = split_response_columns(header, data, ["c", "a"])
        assert x_names == ["b", "d"]
        assert y_names == ["c", "a"]
        assert_array_equal(X, data[:, [1, 3]])
        assert_array_equal(Y, data[:, [2, 0]])
        assert X.flags.c_contiguous and Y.flags.c_contiguous  # the layout the fit reads, so it copies neither

    def test_missing_column(self):
        with pytest.raises(DataError, match="not found"):
            split_response_columns(["a", "b"], np.ones((2, 2)), ["z"])

    def test_duplicate_response_names(self):
        with pytest.raises(DataError, match="must be unique"):
            split_response_columns(["a", "b", "c"], np.ones((2, 3)), ["a", "a"])

    def test_no_predictors_left(self):
        with pytest.raises(DataError, match="no predictor columns"):
            split_response_columns(["a", "b"], np.ones((2, 2)), ["a", "b"])


class TestModelFile:
    def fit_small(self, seed=2, method="fpqr", metric="li"):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(25, 3))
        Y = X @ rng.normal(size=(3, 2)) + 0.1 * rng.normal(size=(25, 2))
        if method == "fpqr":
            return X, fit_fpqr(X, Y, n_components=2, tau=0.3, metric=metric)
        return X, fit_pls(X, Y, n_components=2)

    def test_round_trip_predictions_identical(self, tmp_path):
        X, model = self.fit_small()
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        loaded, metadata = load_model(path)
        assert_array_equal(loaded.predict(X), model.predict(X))
        assert metadata["method"] == "fpqr"
        assert metadata["metric"] == "li"
        assert metadata["tau"] == 0.3
        assert metadata["y_columns"] == ["u", "v"]

    @pytest.mark.parametrize("metric", ["dodge", "choi"])
    @pytest.mark.filterwarnings("ignore::fpqr.exceptions.DiscordantSlopesWarning")
    def test_slope_metric_round_trip_identical(self, tmp_path, metric):
        X, model = self.fit_small(metric=metric)
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        loaded, metadata = load_model(path)
        assert metadata["metric"] == metric
        assert_array_equal(loaded.coefficients, model.coefficients)
        assert_array_equal(loaded.predict(X), model.predict(X))

    def test_mean_model_round_trip(self, tmp_path):
        X, model = self.fit_small(method="pls")
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        loaded, metadata = load_model(path)
        assert metadata["method"] == "pls"
        assert loaded.tau is None
        assert_array_equal(loaded.predict(X), model.predict(X))

    def test_file_is_versioned_json(self, tmp_path):
        _, model = self.fit_small()
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert set(doc) == {"format_version", "metadata", "payload"}

    def test_file_stores_no_derived_values(self, tmp_path):
        _, model = self.fit_small()
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        doc = json.loads(path.read_text())
        assert "coefficients" not in doc["payload"]
        assert "effective_components" not in doc["metadata"]

    @pytest.mark.parametrize("stored_scale", [1.0, 1.0 + 1e-6], ids=["as-fitted", "stale"])
    def test_stored_coefficients_ignored(self, tmp_path, stored_scale):
        # Earlier files of the same format version also carry the coefficients
        # and the effective component count. Both are ignored: the coefficients
        # are rebuilt from the stored weights, x-loadings and gamma.
        X, model = self.fit_small()
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        doc = json.loads(path.read_text())
        doc["metadata"]["effective_components"] = model.effective_components
        doc["payload"]["coefficients"] = (model.coefficients * stored_scale).tolist()
        path.write_text(json.dumps(doc))
        loaded, _ = load_model(path)
        assert_array_equal(loaded.coefficients, model.coefficients)
        assert_array_equal(loaded.predict(X), model.predict(X))

    @pytest.mark.parametrize("method", ["pls", "fpqr"])
    def test_file_stores_no_y_loadings(self, tmp_path, method):
        _, model = self.fit_small(method=method)
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        assert "y_loadings" not in json.loads(path.read_text())["payload"]

    @pytest.mark.parametrize("method", ["pls", "fpqr"])
    def test_stored_y_loadings_ignored(self, tmp_path, method):
        # Earlier files of the same format version also carry the y-loadings,
        # which no prediction reads (for pls they are gamma transposed). A copy
        # that disagrees with the fit neither fails the load nor moves a prediction.
        X, model = self.fit_small(method=method)
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        doc = json.loads(path.read_text())
        y_loadings = model.decomposition.y_loadings.copy()
        y_loadings[0, 0] += 1.0
        doc["payload"]["y_loadings"] = y_loadings.tolist()
        path.write_text(json.dumps(doc))
        loaded, _ = load_model(path)
        assert loaded.decomposition.y_loadings is None
        assert loaded.decomposition.scores is None
        assert_array_equal(loaded.predict(X), model.predict(X))

    def test_unsupported_version_rejected(self, tmp_path):
        # The version is the JSON integer 1: true and 1.0 compare equal to it in Python, but are not it.
        _, model = self.fit_small()
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        doc = json.loads(path.read_text())
        for version in [2, True, 1.0]:
            doc["format_version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(ModelFormatError, match=f"unsupported model format version {version!r};"):
                load_model(path)

    def test_not_json_rejected(self, tmp_path):
        # Text, a version of 5,000 digits (past Python's int-digit limit), nesting
        # deeper than the decoder recurses, and bytes that are not UTF-8.
        path = tmp_path / "model.json"
        digits = b'{"format_version": ' + b"1" * 5000 + b"}"
        for content in [b"not json at all", digits, b"[" * 100000, b'{"\xff": 1}']:
            path.write_bytes(content)
            with pytest.raises(ModelFormatError, match="not valid JSON"):
                load_model(path)

    def test_unreadable_or_non_object_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_model(tmp_path / "absent.json")
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(ModelFormatError, match="expected a JSON object"):
            load_model(path)

    def test_missing_payload_field(self, tmp_path):
        _, model = self.fit_small()
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        doc = json.loads(path.read_text())
        del doc["payload"]["gamma"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="'gamma'"):
            load_model(path)

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("metadata", "tau", 7),
            ("metadata", "center", "median"),
            ("metadata", "metric", "kendall"),
            ("metadata", "x_columns", ["a", "a", "c"]),
            ("payload", "gamma", [[1.0, 2.0]]),
            ("payload", "x_loadings", [[1.0], [2.0], [3.0]]),
            ("payload", "x_loadings", [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
            ("metadata", "method", "pls"),
            ("metadata", "tau", None),
            ("metadata", "center", "none"),  # the fit's centers are not zero
        ],
        ids=["tau", "center", "metric", "x_columns", "gamma", "x_loadings", "singular", "method", "tau-null",
             "center-none"],
    )
    def test_tampered_field_rejected(self, tmp_path, block, key, value):
        _, model = self.fit_small()
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        doc = json.loads(path.read_text())
        doc[block][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_model_without_predictors_rejected(self, tmp_path):
        # The centers fix m and l, so an all-empty payload must not pass as a
        # model with no predictor columns.
        doc = {
            "format_version": 1,
            "metadata": {"method": "pls", "metric": None, "tau": None, "requested_components": 0,
                         "center": "mean", "x_columns": [], "y_columns": ["y"]},
            "payload": {"weights": [], "x_loadings": [], "gamma": [], "intercepts": [0.0],
                        "x_centers": [], "y_centers": [0.0]},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="0 predictor"):
            load_model(path)

    @pytest.mark.parametrize("value", ["lots", 99, -1, True, 2.5], ids=["text", "99", "-1", "true", "2.5"])
    def test_requested_components_range_checked(self, tmp_path, capsys, value):
        X, model = self.fit_small()
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        doc = json.loads(path.read_text())
        doc["metadata"]["requested_components"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="requested_components"):
            load_model(path)
        x_path = tmp_path / "x.csv"
        write_csv(x_path, ["a", "b", "c"], X.tolist())
        code = main(["predict", "--model", str(path), "--x", str(x_path), "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert "requested_components" in capsys.readouterr().err

    def test_requested_components_up_to_feature_count_accepted(self, tmp_path):
        _, model = self.fit_small()
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        doc = json.loads(path.read_text())
        doc["metadata"]["requested_components"] = 3
        path.write_text(json.dumps(doc))
        loaded, _ = load_model(path)
        assert loaded.requested_components == 3

    def test_ill_conditioned_fit_still_loads(self, tmp_path):
        # Directions picked so that P.T @ W has condition number about 3e13.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2)) * [1e5, 1e-2]
        Y = X @ [[1e-5], [1e2]] + rng.normal(size=(30, 1))
        directions = iter([[0.0, 1.0], [1.0, 0.0]])
        with pytest.warns(IllConditionedWarning):
            model = fit_fpqr(X, Y, n_components=2, metric=lambda Xa, Ya: np.array(next(directions))[:, None])
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b"], ["y"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded, _ = load_model(path)
        assert_array_equal(loaded.predict(X), model.predict(X))

    def test_column_count_validated_on_save(self, tmp_path):
        _, model = self.fit_small()
        with pytest.raises(ValueError, match="x_columns"):
            save_model(model, tmp_path / "m.json", ["a"], ["u", "v"])
        with pytest.raises(ValueError, match="y_columns"):
            save_model(model, tmp_path / "m.json", ["a", "b", "c"], ["u"])

    @pytest.mark.parametrize(
        "x_columns, y_columns, message",
        [(["a", "a", "b"], ["u", "v"], "x_columns must list 3 distinct column names"),
         (["a", 1, "b"], ["u", "v"], "x_columns must list 3 distinct column names"),
         (["a", "b", "c"], ["u", None], "y_columns must list 2 distinct column names")],
        ids=["repeated", "number", "none"],
    )
    def test_save_refuses_what_load_would_refuse(self, tmp_path, x_columns, y_columns, message):
        _, model = self.fit_small()
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match=message):
            save_model(model, path, x_columns, y_columns)
        assert not path.exists()

    def test_zero_component_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        X = np.full((21, 2), 1.0)
        Y = rng.normal(size=(21, 1))
        model = fit_fpqr(X, Y, n_components=1, tau=0.5)
        assert model.effective_components == 0
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b"], ["y"])
        loaded, _ = load_model(path)
        assert_array_equal(loaded.predict(X[:4]), model.predict(X[:4]))

    def test_stop_reason_is_not_stored(self, tmp_path):
        _, model = self.fit_small()
        path = tmp_path / "model.json"
        save_model(model, path, ["a", "b", "c"], ["u", "v"])
        assert model.stop_reason == "requested"
        assert '"requested"' not in path.read_text()
        assert load_model(path)[0].stop_reason is None


class TestCliFitPredict:
    def test_fit_then_predict(self, xy_files, tmp_path, capsys):
        x_path, y_path, X, _ = xy_files
        model_path = str(tmp_path / "model.json")
        code = main(["fit", "--x", x_path, "--y", y_path, "--components", "2", "--out", model_path])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("fit method=fpqr metric=li tau=0.5 components=2/2")
        assert "training-objective=" in out

        pred_path = str(tmp_path / "pred.csv")
        code = main(["predict", "--model", model_path, "--x", x_path, "--out", pred_path])
        assert code == 0
        names, P = read_dataset(pred_path)
        assert names == ["y0"]
        model, _ = load_model(model_path)
        assert_array_equal(P, model.predict(X))

    def test_fit_names_the_stop_reason_only_when_short(self, tmp_path, capsys):
        t = np.random.default_rng(5).normal(size=(20, 1))
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_csv(x_path, ["a", "b"], np.hstack([t, -t]).tolist())
        write_csv(y_path, ["y"], (3.0 * t).tolist())
        for components, summary in (("1", "components=1/1"), ("2", "components=1/2")):
            argv = ["fit", "--method", "pls", "--x", str(x_path), "--y", str(y_path), "--components", components]
            assert main([*argv, "--out", str(tmp_path / "m.json")]) == 0
            out = capsys.readouterr().out
            assert summary in out
            assert out.rstrip().endswith("stop=small-cross-product") == (components == "2")

    def test_choi_fit_warns_at_most_once_per_category_and_round(self, tmp_path, capsys):
        # A sim1 table meets dozens of discordant choi pairs per extraction
        # round; each round's cross product reports them in one warning.
        X, Y = evaluate.generate_simulation(evaluate.make_simulation_spec("sim1", repetitions=1, seed=4), 0)[:2]
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_matrix_csv(x_path, [f"x{j}" for j in range(X.shape[1])], X)
        write_matrix_csv(y_path, [f"y{k}" for k in range(Y.shape[1])], Y)
        argv = ["fit", "--x", str(x_path), "--y", str(y_path), "--metric", "choi", "--components", "3"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--out", str(tmp_path / "m.json")]) == 0
        assert "components=3/3" in capsys.readouterr().out
        assert 0 < len(caught) <= 6

    def test_fit_pls_reports_mse_objective(self, xy_files, tmp_path, capsys):
        x_path, y_path, _, _ = xy_files
        model_path = str(tmp_path / "model.json")
        code = main(["fit", "--method", "pls", "--x", x_path, "--y", y_path, "--out", model_path])
        assert code == 0
        assert "objective=mse" in capsys.readouterr().out

    def test_fit_from_single_table(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        table = rng.normal(size=(20, 3))
        data_path = tmp_path / "data.csv"
        write_csv(data_path, ["a", "b", "resp"], table.tolist())
        code = main([
            "fit", "--data", str(data_path), "--response-cols", "resp",
            "--components", "1", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 0
        assert "components=1/1" in capsys.readouterr().out

    def test_predict_wrong_width_is_data_error(self, xy_files, tmp_path, capsys):
        x_path, y_path, _, _ = xy_files
        model_path = str(tmp_path / "model.json")
        assert main(["fit", "--x", x_path, "--y", y_path, "--out", model_path]) == 0
        code = main(["predict", "--model", model_path, "--x", y_path, "--out", str(tmp_path / "p.csv")])
        captured = capsys.readouterr()
        assert code == 3
        assert "expected 4 predictor columns, found 1" in captured.err

    def test_predict_aligns_columns_by_name(self, xy_files, tmp_path, capsys):
        x_path, y_path, X, _ = xy_files
        model_path = str(tmp_path / "model.json")
        assert main(["fit", "--x", x_path, "--y", y_path, "--out", model_path]) == 0
        shuffled = tmp_path / "shuffled.csv"
        write_csv(shuffled, ["x2", "x0", "x3", "x1"], X[:, [2, 0, 3, 1]].tolist())
        pred_path = str(tmp_path / "pred.csv")
        code = main(["predict", "--model", model_path, "--x", str(shuffled), "--out", pred_path])
        assert code == 0
        model, _ = load_model(model_path)
        # The column copy may change BLAS rounding, never more.
        assert_allclose(read_dataset(pred_path)[1], model.predict(X), rtol=1e-12)
        capsys.readouterr()

    def test_predict_renamed_columns_is_data_error(self, xy_files, tmp_path, capsys):
        x_path, y_path, X, _ = xy_files
        model_path = str(tmp_path / "model.json")
        assert main(["fit", "--x", x_path, "--y", y_path, "--out", model_path]) == 0
        renamed = tmp_path / "renamed.csv"
        write_csv(renamed, ["p", "q", "r", "s"], X.tolist())
        code = main(["predict", "--model", model_path, "--x", str(renamed), "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: expected 4 predictor columns, found 4; "
            "missing ['x0', 'x1', 'x2', 'x3'], unexpected ['p', 'q', 'r', 's']\n"
        )

    def test_row_count_mismatch_is_data_error(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        y_path = tmp_path / "y.csv"
        write_csv(x_path, ["a"], [[1.0], [2.0], [3.0]])
        write_csv(y_path, ["y"], [[1.0], [2.0]])
        code = main(["fit", "--x", str(x_path), "--y", str(y_path), "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "rows" in capsys.readouterr().err

    def test_overflowing_prediction_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 3))
        model = fit_pls(X, X @ rng.normal(size=(3, 1)), n_components=2)
        model_path, x_path, out_path = tmp_path / "m.json", tmp_path / "x.csv", tmp_path / "p.csv"
        save_model(model, model_path, ["a", "b", "c"], ["y"])
        doc = json.loads(model_path.read_text())
        doc["payload"]["gamma"] = [[1e308], [1e308]]
        model_path.write_text(json.dumps(doc))
        write_csv(x_path, ["a", "b", "c"], X.tolist())
        with np.errstate(over="ignore", invalid="ignore"):
            first = np.argmin(np.isfinite(load_model(model_path)[0].predict(X)).all(axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["predict", "--model", str(model_path), "--x", str(x_path), "--out", str(out_path)])
        assert code == 3
        assert f"data row {first + 1}: the prediction overflows" in capsys.readouterr().err
        assert not out_path.exists()

    def test_text_tau_in_model_is_data_error(self, xy_files, tmp_path, capsys):
        # A level is a JSON number; the string "0.5" would convert, but is refused.
        x_path, y_path, _, _ = xy_files
        model_path, out_path = tmp_path / "m.json", tmp_path / "p.csv"
        assert main(["fit", "--x", x_path, "--y", y_path, "--components", "2", "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        doc["metadata"]["tau"] = "0.5"
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--x", x_path, "--out", str(out_path)]) == 3
        assert capsys.readouterr().err == f"error: {model_path}: metadata 'tau': tau must be a number, got '0.5'\n"
        assert not out_path.exists()

    def test_non_numeric_cell_is_data_error(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        y_path = tmp_path / "y.csv"
        x_path.write_text("a\n1\nfoo\n")
        write_csv(y_path, ["y"], [[1.0], [2.0]])
        code = main(["fit", "--x", str(x_path), "--y", str(y_path), "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "not numeric" in capsys.readouterr().err

    def test_solver_failure_is_exit_4(self, xy_files, tmp_path, capsys, monkeypatch):
        # With no pivot allowed, the inner quantile fit cannot reach its optimum.
        monkeypatch.setattr(quantreg, "_PIVOT_CAP", 0)
        x_path, y_path, _, _ = xy_files
        model_path = tmp_path / "m.json"
        code = main(["fit", "--method", "fpqr", "--x", x_path, "--y", y_path, "--out", str(model_path)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: quantile-regression simplex found no optimal vertex in 0 pivots")
        assert "Traceback" not in err
        assert not model_path.exists()

    @pytest.mark.parametrize("command", ["fit", "predict", "cv", "simulate"])
    def test_unwritable_out_is_exit_3(self, command, xy_files, tmp_path, capsys):
        x_path, y_path, _, _ = xy_files
        model_path = str(tmp_path / "m.json")
        assert main(["fit", "--method", "pls", "--x", x_path, "--y", y_path, "--out", model_path]) == 0
        out = tmp_path / "no" / "such" / "dir" / "out"
        args = {
            "fit": ["--x", x_path, "--y", y_path],
            "predict": ["--model", model_path, "--x", x_path],
            "cv": ["--method", "pls", "--x", x_path, "--y", y_path, "--components", "1..2"],
            "simulate": ["--scheme", "sim3-low", "--error", "t1", "--reps", "1", "--recipes", "pls"],
        }[command]
        capsys.readouterr()
        assert main([command, *args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
        assert not (tmp_path / "no").exists()


class TestCliUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["fit", "--bogus"]) == 2
        capsys.readouterr()

    def test_both_input_styles(self, xy_files, tmp_path, capsys):
        x_path, y_path, _, _ = xy_files
        code = main([
            "fit", "--x", x_path, "--y", y_path, "--data", x_path,
            "--response-cols", "y0", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "either --x with --y" in capsys.readouterr().err

    def test_neither_input_style(self, tmp_path, capsys):
        assert main(["fit", "--out", str(tmp_path / "m.json")]) == 2
        capsys.readouterr()

    def test_tau_out_of_range(self, xy_files, tmp_path, capsys):
        x_path, y_path, _, _ = xy_files
        code = main([
            "fit", "--x", x_path, "--y", y_path, "--tau", "1.5",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "--tau" in capsys.readouterr().err

    def test_tau_text_keeps_float_message(self, tmp_path, capsys):
        assert main(["fit", "--tau", "abc", "--out", str(tmp_path / "m.json")]) == 2
        line = capsys.readouterr().err.splitlines()[-1]
        assert line == "fpqr fit: error: argument --tau: could not convert string to float: 'abc'"

    def test_tau_checked_for_pls_too(self, xy_files, tmp_path, capsys):
        x_path, y_path, _, _ = xy_files
        code = main([
            "fit", "--method", "pls", "--x", x_path, "--y", y_path, "--tau", "1.5",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "--tau" in capsys.readouterr().err

    def test_fit_takes_no_seed(self, xy_files, tmp_path, capsys):
        x_path, y_path, _, _ = xy_files
        code = main(["fit", "--x", x_path, "--y", y_path, "--seed", "1", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, components",
        [("fit", "0"), ("cv", "0..2"), ("cv", ",")],
        ids=["fit-0", "cv-from-0", "cv-none"],
    )
    def test_components_below_one_is_usage_error(self, xy_files, tmp_path, capsys, command, components):
        x_path, y_path, _, _ = xy_files
        code = main([command, "--x", x_path, "--y", y_path, "--components", components, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_candidate_range(self, xy_files, tmp_path, capsys):
        x_path, y_path, _, _ = xy_files
        code = main([
            "cv", "--x", x_path, "--y", y_path, "--components", "6..2",
            "--out", str(tmp_path / "cv.csv"),
        ])
        assert code == 2
        assert "range is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [("--folds", "1", "folds"), ("--seed", "-1", "seed")])
    def test_cv_bad_folds_or_seed_is_usage_error(self, xy_files, tmp_path, capsys, flag, value, message):
        x_path, y_path, _, _ = xy_files
        code = main([
            "cv", "--x", x_path, "--y", y_path, "--components", "1..2", flag, value,
            "--out", str(tmp_path / "cv.csv"),
        ])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_simulate_error_law_mismatch(self, tmp_path, capsys):
        code = main([
            "simulate", "--scheme", "sim1", "--error", "t1", "--reps", "1",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: scheme sim1 supports error laws ('chi2_3',), got 't1'\n"


PLS_OPTIONS = "error: the pls recipe takes no metric and no quantile level"


class TestCliErrorLines:
    """Exit code and exact stderr for each fault the CLI reports itself."""

    @pytest.mark.parametrize(
        "args, line",
        [
            (["fit", "--x", "{x}"], "error: --x and --y must be given together"),
            (["fit", "--data", "{x}"], "error: --data and --response-cols must be given together"),
            (["fit", "--data", "{x}", "--response-cols", " , "], "error: --response-cols named no columns"),
            (["cv", "--x", "{x}", "--y", "{y}", "--components", "1..x"],
             "error: cannot parse --components range '1..x'"),
            (["cv", "--x", "{x}", "--y", "{y}", "--components", "1,a"],
             "error: cannot parse --components list '1,a'"),
            (["simulate", "--scheme", "sim3-low", "--recipes", ","], "error: --recipes named no recipes"),
            (["simulate", "--scheme", "sim3-low", "--recipes", "bogus"],
             "error: unknown recipe 'bogus'; expected 'pls' or 'fpqr-<li|dodge|choi>[@tau]'"),
            # --metric and --tau belong to fpqr: a pls fit given either is refused before any table is read.
            (["fit", "--method", "pls", "--metric", "dodge", "--x", "{x}", "--y", "{y}"], PLS_OPTIONS),
            (["fit", "--method", "pls", "--tau", "0.1", "--data", "{x}.absent", "--response-cols", "y0"], PLS_OPTIONS),
            (["cv", "--method", "pls", "--metric", "li", "--data", "{x}.absent", "--response-cols", "y0",
              "--components", "1..2"], PLS_OPTIONS),
            (["cv", "--method", "pls", "--tau", "0.3", "--x", "{x}", "--y", "{y}", "--components", "1..2"],
             PLS_OPTIONS),
        ],
        ids=["x-without-y", "data-without-cols", "blank-cols", "bad-range", "bad-list", "no-recipes", "unknown-recipe",
             "fit-pls-metric", "fit-pls-tau-absent-data", "cv-pls-metric-absent-data", "cv-pls-tau"],
    )
    def test_usage_fault_line(self, xy_files, tmp_path, capsys, args, line):
        x_path, y_path, _, _ = xy_files
        argv = [a.format(x=x_path, y=y_path) for a in args]
        out_path = tmp_path / "out"
        assert main([*argv, "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == line + "\n"
        assert captured.out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "args, line",
        [
            (["fit", "--metric", "bogus"], "argument --metric: invalid choice: 'bogus' (choose from 'li', 'dodge', 'choi')"),
            (["fit", "--center", "median"], "argument --center: invalid choice: 'median' (choose from 'mean', 'none')"),
            (["simulate", "--scheme", "sim9"],
             "argument --scheme: invalid choice: 'sim9' (choose from 'sim1', 'sim2', 'sim3-low', 'sim3-high')"),
            (["simulate", "--scheme", "sim1", "--error", "cauchy"],
             "argument --error: invalid choice: 'cauchy' (choose from 'chi2_3', 'normal', 't1', 'slash')"),
        ],
        ids=["metric", "center", "scheme", "error"],
    )
    def test_choice_lists(self, tmp_path, capsys, args, line):
        command = args[0]
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"fpqr {command}: error: {line}"

    def test_cv_excluded_candidate_line(self, xy_files, tmp_path, capsys):
        # 30 rows in 5 folds train on 24 rows of 4 predictors, so 5 components never fit.
        x_path, y_path, _, _ = xy_files
        code = main([
            "cv", "--method", "pls", "--x", x_path, "--y", y_path, "--components", "3..5",
            "--out", str(tmp_path / "cv.csv"),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "candidate 5 excluded: fold 0: components must lie in [1, 4] for this data, got 5\n"
        assert captured.out == "chosen components: 4\n"

    def test_simulate_excluded_repetition_lines(self, tmp_path, capsys, monkeypatch):
        calls = {"count": 0}

        def flaky_fit(X, Y, h, center="mean"):
            calls["count"] += 1
            if calls["count"] == 2:  # fail on repetition 1
                raise ValueError("forced failure")
            return fit_pls(X, Y, h, center=center)

        monkeypatch.setattr(evaluate, "fit_pls", flaky_fit)
        out_path = tmp_path / "s.csv"
        code = main([
            "simulate", "--scheme", "sim3-low", "--error", "t1", "--reps", "3",
            "--recipes", "pls", "--out", str(out_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "excluded repetitions: 1\n  repetition 1 (pls): forced failure\n"
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert [row[2] for row in rows] == ["0", "2", "aggregate"]
        [line] = captured.out.splitlines()
        assert line.startswith(f"sim3-low pls: betaDistance={rows[2][3]} testMse={rows[2][4]} seconds=")


class TestCliCv:
    def test_rank3_data_chooses_three(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        T = rng.normal(size=(40, 3))
        X = T @ rng.normal(size=(8, 3)).T
        Y = T @ rng.normal(size=(1, 3)).T
        x_path = tmp_path / "x.csv"
        y_path = tmp_path / "y.csv"
        write_csv(x_path, [f"x{j}" for j in range(8)], X.tolist())
        write_csv(y_path, ["y"], Y.tolist())
        out_path = tmp_path / "cv.csv"
        code = main([
            "cv", "--method", "pls", "--x", str(x_path), "--y", str(y_path),
            "--components", "1..6", "--out", str(out_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        chosen = int(captured.out.strip().rsplit(" ", 1)[1])
        assert chosen in (3, 4)
        names, table = read_dataset(out_path)
        assert names == ["components", "meanCvError"]
        assert table.shape == (6, 2)
        assert list(table[:, 0]) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize(
        "flags, fit",
        [
            (["--center", "none"], lambda Xt, Yt, h: fit_fpqr(Xt, Yt, h, tau=0.5, metric="li", center="none")),
            (["--tau", "0.1234567"], lambda Xt, Yt, h: fit_fpqr(Xt, Yt, h, tau=0.1234567, metric="li")),
            (["--method", "pls"], lambda Xt, Yt, h: fit_pls(Xt, Yt, h)),
            (["--metric", "dodge"], lambda Xt, Yt, h: fit_fpqr(Xt, Yt, h, tau=0.5, metric="dodge")),
        ],
        ids=["center-none", "tau-seven-digits", "method-pls", "metric-dodge"],
    )
    def test_settings_reach_the_fit(self, tmp_path, flags, fit):
        # 90 rows in 10 folds train on 81, and 81 * 0.1234567 lies just below
        # 10, so the seventh digit of tau moves the empirical quantile's rank.
        rng = np.random.default_rng(4)
        X = rng.normal(size=(90, 5)) + 3.0
        Y = X @ rng.normal(size=(5, 1)) + rng.standard_t(3, size=(90, 1)) + 2.0
        x_path = tmp_path / "x.csv"
        y_path = tmp_path / "y.csv"
        write_csv(x_path, [f"x{j}" for j in range(5)], X.tolist())
        write_csv(y_path, ["y"], Y.tolist())
        out_path = tmp_path / "cv.csv"
        code = main([
            "cv", "--x", str(x_path), "--y", str(y_path), "--components", "1..3", "--folds", "10",
            *flags, "--out", str(out_path),
        ])
        assert code == 0
        expected = cross_validate(X, Y, [1, 2, 3], folds=10, seed=0, fitter=fit)
        _, table = read_dataset(out_path)
        assert_array_equal(table[:, 0], expected.candidate_components)
        assert_array_equal(table[:, 1], expected.mean_cv_error)


class TestCliSimulate:
    def test_small_study_layout(self, tmp_path, capsys):
        out_path = tmp_path / "study.csv"
        code = main([
            "simulate", "--scheme", "sim3-low", "--error", "normal", "--reps", "2",
            "--recipes", "fpqr-li,pls", "--out", str(out_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["scheme", "recipe", "repetition", "betaDistance", "testMse", "quantileError", "seconds"]
        body = rows[1:]
        per_rep = [r for r in body if r[2] != "aggregate"]
        aggregates = [r for r in body if r[2] == "aggregate"]
        assert len(per_rep) == 4  # 2 recipes x 2 repetitions
        assert len(aggregates) == 2
        pattern = re.compile(r"^[0-9.eE+-]+ \([0-9.eE+-]+\)$")
        for row in aggregates:
            assert row[0] == "sim3-low"
            for cell in row[3:]:
                assert pattern.match(cell), cell
        for row in per_rep:
            float(row[3]), float(row[4]), float(row[5]), float(row[6])
        lines = captured.out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("sim3-low fpqr-li: betaDistance=")

    def test_deterministic_across_runs(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = main([
                "simulate", "--scheme", "sim3-low", "--error", "t1", "--reps", "2",
                "--recipes", "pls", "--seed", "7", "--out", str(path),
            ])
            assert code == 0
        with open(paths[0], newline="") as a, open(paths[1], newline="") as b:
            rows_a = [r[:6] for r in csv.reader(a)]  # drop the timing column
            rows_b = [r[:6] for r in csv.reader(b)]
        assert rows_a == rows_b
