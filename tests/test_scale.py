"""A fit does not depend on the units of its data: rescaling X, or rescaling
and shifting Y, rescales the predictions and keeps the component count, and
exactly degenerate data stops extraction at every scale. Power-of-two
rescaling is exact: the fit runs in binary units."""

import contextlib
import functools
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpqr import ModelRecipe, SolverFailure, parse_recipe
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


TINY, HUGE = np.finfo(float).tiny, np.finfo(float).max


@functools.cache
def unscaled_fit(tag):
    return recipe(tag).fit(*latent_data(8, n=24, m=5, l=2), 3)


# The examples put the coefficients near 2^1000 and 2^-1000, beyond the
# largest double, in the subnormal range and below it.
@pytest.mark.parametrize("tag", TAGS)
@settings(max_examples=40)
@given(kx=st.integers(-1000, 1000), ky=st.integers(-1000, 1000))
@example(kx=-700, ky=300)
@example(kx=1000, ky=0)
@example(kx=-1000, ky=1000)
@example(kx=1000, ky=-45)
@example(kx=1000, ky=-1000)
def test_power_of_two_scaling_is_exact(tag, kx, ky):
    # X -> 2^kx X and Y -> 2^ky Y give the same fit in binary units. So the
    # coefficients are 2^(ky - kx) times the unscaled ones, bit for bit, where
    # that is a normal double. Where the y-loadings overflow, or gamma or the
    # coefficients overflow or lie wholly below 2^-1022, the fit raises.
    base = unscaled_fit(tag)
    X, Y = latent_data(8, n=24, m=5, l=2)
    with np.errstate(over="ignore"):
        expected = np.ldexp(base.coefficients, ky - kx)
        q, gamma, coefficients = (np.abs(np.ldexp(a, ky - kx)).max()
                                  for a in (base.decomposition.y_loadings, base.gamma, base.coefficients))
    fit = functools.partial(recipe(tag).fit, np.ldexp(X, kx), np.ldexp(Y, ky), 3)
    if q <= HUGE and TINY <= gamma <= HUGE and TINY <= coefficients <= HUGE:
        normal = np.abs(expected) >= TINY
        assert np.array_equal(fit().coefficients[normal], expected[normal])
    else:
        with pytest.raises(SolverFailure, match="do not fit in a double"):
            fit()


def top_of_the_range(n, response):
    # Predictor 0 alternates between +-1.7e308; the other two sit about 2^-1024
    # below it in binary units, far under the extraction's stop rule.
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 3))
    X[:, 0] = np.where(np.arange(n) % 2, 1.7e308, -1.7e308)
    return X, response * X[:, :1] + rng.normal(size=(n, 1))


@pytest.mark.parametrize("n", [20, 400])  # both sides of the 362-row slope listing
@pytest.mark.parametrize("tag", TAGS)
def test_a_predictor_at_the_top_of_the_double_range_fits(tag, n):
    X, Y = top_of_the_range(n, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        model = recipe(tag).fit(X, Y, 2)
        smaller = recipe(tag).fit(np.ldexp(X, -8), Y, 2)
    assert model.stop_reason == "small-cross-product"
    assert np.array_equal(model.coefficients, np.ldexp(smaller.coefficients, -8))


@pytest.mark.parametrize("tag", TAGS)
def test_coefficients_below_the_normal_range_raise(tag):
    # A response of order 1 beside that predictor: its coefficient, about
    # 1e-309, would lose bits in the subnormal range.
    X, Y = top_of_the_range(20, 0.0)
    with pytest.raises(SolverFailure, match="do not fit in a double"):
        recipe(tag).fit(X, Y, 2)


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
