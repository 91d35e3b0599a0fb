"""A fit does not depend on the units of its data: rescaling X, or rescaling
and shifting Y, rescales the predictions and keeps the component count, and
exactly degenerate data stops extraction at every scale."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fpqr import ModelRecipe, least_squares, parse_recipe
from fpqr.cli import main
from fpqr.io import read_dataset, split_response_columns, write_matrix_csv

TAGS = ["pls", "fpqr-li", "fpqr-dodge", "fpqr-choi"]
SCALES = [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e9, 1e12]

pytestmark = [
    pytest.mark.filterwarnings("ignore::fpqr.exceptions.DiscordantSlopesWarning"),
    pytest.mark.filterwarnings("ignore::fpqr.exceptions.ZeroVarianceWarning"),
]


def recipe(tag, center="mean", tau=None):
    base = parse_recipe(tag)
    return ModelRecipe(base.tag, base.method, base.metric, tau or base.tau, center)


def latent_data(seed, n, m, l):
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(n, 2))
    X = T @ rng.normal(size=(2, m)) + 0.3 * rng.normal(size=(n, m))
    Y = T @ rng.normal(size=(2, l)) + 0.3 * rng.standard_t(2, size=(n, l))
    return X, Y


def relative_error(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


@pytest.mark.parametrize("center", ["mean", "none"])
@pytest.mark.parametrize("tag", TAGS)
@settings(max_examples=50)
@given(seed=st.integers(0, 2**16), log_c=st.floats(-12.0, 12.0), d=st.floats(-3.0, 3.0))
def test_predictions_are_equivariant(tag, center, seed, log_c, d):
    # X -> cX and Y -> c(Y + d); centering removes the shift, so "none" takes d = 0.
    X, Y = latent_data(seed, n=24, m=5, l=2)
    c = 10.0**log_c
    d = d if center == "mean" else 0.0
    fit = recipe(tag, center).fit
    base = fit(X, Y, 3)
    for scaled, predicted, expected in [
        (fit(c * X, Y, 3), c * X, base.predict(X)),
        (fit(X, c * (Y + d), 3), X, c * (base.predict(X) + d)),
    ]:
        assert scaled.effective_components == base.effective_components
        assert relative_error(scaled.predict(predicted), expected) <= 1e-6


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("tag", TAGS)
class TestDegenerateAtEveryScale:
    """Exactly degenerate data gives 0 components whatever its units."""

    def test_constant_predictors(self, tag, c):
        Y = np.random.default_rng(1).normal(size=(7, 2))
        assert recipe(tag).fit(np.full((7, 3), 0.1 * c), c * Y, 3).effective_components == 0

    def test_constant_responses(self, tag, c):
        X = np.random.default_rng(2).normal(size=(7, 3))
        assert recipe(tag).fit(c * X, np.full((7, 2), 0.1 * c), 3).effective_components == 0


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("tag", TAGS[1:])
def test_quantile_metrics_center_constant_predictors_themselves(tag, c):
    # Uncentered, a constant column still carries no dependence for li, dodge
    # or choi (pls keeps it: there it acts as an intercept).
    Y = np.random.default_rng(1).normal(size=(7, 2))
    assert recipe(tag, "none").fit(np.full((7, 3), 0.1 * c), c * Y, 3).effective_components == 0


@pytest.mark.parametrize("c", SCALES)
def test_li_with_no_response_below_its_quantile(c):
    # n * tau < 1: every response sits at or above its quantile, so psi == tau
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(10, 4)), rng.normal(size=(10, 2))
    assert recipe("fpqr-li", tau=0.05).fit(c * X, c * Y, 3).effective_components == 0


def test_least_squares_on_tiny_scores():
    rng = np.random.default_rng(4)
    T, Y = rng.normal(size=(20, 3)), rng.normal(size=(20, 2))
    assert_allclose(least_squares(1e-9 * T, Y), 1e9 * least_squares(T, Y), rtol=1e-10)


@pytest.mark.parametrize("method", ["fpqr", "pls"])
def test_cli_fit_on_tiny_predictors(tmp_path, method):
    X, Y = latent_data(5, n=60, m=8, l=1)
    lines = []
    for c in (1.0, 1e-9):
        path = tmp_path / f"table-{c}.csv"
        write_matrix_csv(path, [*(f"x{j}" for j in range(8)), "y"], np.hstack([c * X, Y]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["fit", "--method", method, "--data", str(path), "--response-cols", "y",
                         "--components", "4", "--out", str(tmp_path / "model.json")])
        assert code == 0
        lines.append(out.getvalue())
    assert "components=4/4 " in lines[0]
    assert lines[1] == lines[0]


def wide_data(seed=6, n=40, m=700, l=4, k=4):
    """Near-infrared-like shape (m >> n): smooth Gaussian loadings, t2 noise."""
    rng = np.random.default_rng(seed)
    channels = np.arange(m)
    centers = rng.uniform(0, m, size=k)
    widths = rng.uniform(30, 120, size=k)
    loadings = np.exp(-0.5 * ((channels - centers[:, None]) / widths[:, None]) ** 2)
    T = rng.normal(size=(n, k))
    X = T @ loadings + 0.01 * rng.normal(size=(n, m))
    Y = T @ rng.normal(size=(k, l)) + 0.2 * rng.standard_t(2, size=(n, l))
    return X, Y


@pytest.mark.parametrize("tag", TAGS)
def test_wide_regime(tag):
    X, Y = wide_data()
    r = recipe(tag)
    path = r.path(X, Y, 3)
    full = path(3)
    assert full.effective_components == 3
    prefix, refit = path(2), r.fit(X, Y, 2)
    for name, value in vars(refit.decomposition).items():
        assert np.asarray(getattr(prefix.decomposition, name)).tobytes() == np.asarray(value).tobytes(), name
    assert prefix.coefficients.tobytes() == refit.coefficients.tobytes()
    T = full.decomposition.scores
    gram = T.T @ T
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-10 * np.diag(gram).max()
    scaled = r.fit(1e-9 * X, Y, 3)
    assert scaled.effective_components == 3
    assert relative_error(scaled.predict(1e-9 * X), full.predict(X)) <= 1e-6


def test_wide_regime_cli_round_trip(tmp_path):
    # fpqr fit and fpqr predict through the model file at the m >> n shape
    # give, bit for bit, the in-process model's predictions.
    X, Y = wide_data()
    X_new = wide_data(seed=7)[0]
    x_names = [f"ch{j}" for j in range(X.shape[1])]
    y_names = [f"y{k}" for k in range(Y.shape[1])]
    write_matrix_csv(tmp_path / "train.csv", x_names + y_names, np.hstack([X, Y]))
    write_matrix_csv(tmp_path / "new.csv", x_names, X_new)
    model_path, out = str(tmp_path / "model.json"), str(tmp_path / "pred.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", "--method", "fpqr", "--metric", "li", "--data", str(tmp_path / "train.csv"),
                     "--response-cols", ",".join(y_names), "--components", "6", "--out", model_path]) == 0
        assert main(["predict", "--model", model_path, "--x", str(tmp_path / "new.csv"), "--out", out]) == 0
    header, predicted = read_dataset(out)
    assert header == y_names
    # The in-process fit reads the table as the CLI does: the split columns'
    # memory order reaches BLAS and so the last bits of the fit.
    X_read, Y_read = split_response_columns(*read_dataset(tmp_path / "train.csv"), y_names)[:2]
    assert predicted.tobytes() == recipe("fpqr-li").fit(X_read, Y_read, 6).predict(X_new).tobytes()
