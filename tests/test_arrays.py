"""The one array rule: ``linalg.as_matrix`` checks every array argument. A 1-d
array is one column, with the bits of its ``[:, None]``; NaN, inf and empty
input raise a ``ValueError`` that names the argument."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpqr import (
    QcovMetric,
    as_matrix,
    beta_distance,
    cross_validate,
    empirical_quantile,
    fit_fpqr,
    fit_pls,
    fit_quantile_regression,
    parse_recipe,
    qcor_choi,
    qcov_choi,
    qcov_dodge,
    qcov_li,
    qcov_matrix,
    quantile_error,
)
from fpqr import test_mse as mse_metric

FITS = {
    "pls": lambda X, Y: fit_pls(X, Y, 1),
    "li": lambda X, Y: fit_fpqr(X, Y, 1, tau=0.3, metric="li"),
    "dodge": lambda X, Y: fit_fpqr(X, Y, 1, tau=0.5, metric="dodge"),
    "choi": lambda X, Y: fit_fpqr(X, Y, 1, tau=0.7, metric="choi"),
}


def draw(seed, n):
    """One predictor and one response vector, and a second response column."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = 2.0 * x + rng.standard_t(3, size=n)
    return x, y, rng.normal(size=(n, 1))


def recorded(call, *args):
    """``call(*args)`` and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    return result, [str(w.message) for w in caught]


def model_bytes(model):
    arrays = (model.coefficients, model.gamma, model.intercepts, model.x_centers, model.y_centers,
              *(getattr(model.decomposition, f) for f in ("weights", "x_loadings", "y_loadings", "scores")))
    return [a.shape for a in arrays], [a.tobytes() for a in arrays], model.stop_reason


def test_a_vector_is_a_view_of_itself_as_a_column():
    v = np.arange(5.0)
    M = as_matrix(v, "v")
    assert M.shape == (5, 1) and np.shares_memory(M, v)


@settings(max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 30))
@pytest.mark.parametrize("vector", ["X", "Y"])
@pytest.mark.parametrize("fit", FITS)
def test_a_fit_takes_a_vector_as_one_column(fit, vector, seed, n):
    x, y, other = draw(seed, n)
    # "X": one predictor vector beside two response columns; "Y": two predictor columns beside one response vector.
    X, Y = (x, np.hstack([y[:, None], other])) if vector == "X" else (np.hstack([x[:, None], other]), y)
    saved = (X.copy(), Y.copy())
    got, got_warnings = recorded(FITS[fit], X, Y)
    want, want_warnings = recorded(FITS[fit], *(a[:, None] if a.ndim == 1 else a for a in (X, Y)))
    assert model_bytes(got) == model_bytes(want)
    assert got_warnings == want_warnings
    for a, before in zip((X, Y), saved):
        assert a.tobytes() == before.tobytes()


@settings(max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 30))
@pytest.mark.parametrize("fit", FITS)
def test_predict_takes_a_vector_as_one_column(fit, seed, n):
    x, y, other = draw(seed, n)
    model = recorded(FITS[fit], x[:, None], y[:, None])[0]
    assert model.predict(other[:, 0]).tobytes() == model.predict(other).tobytes()


@settings(max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 30))
@pytest.mark.parametrize("kind", ["classical", "li", "dodge", "choi"])
def test_qcov_matrix_takes_vectors_as_columns(kind, seed, n):
    x, y, _ = draw(seed, n)
    metric = QcovMetric(kind, None if kind == "classical" else 0.4)
    got, got_warnings = recorded(qcov_matrix, x, y, metric)
    want, want_warnings = recorded(qcov_matrix, x[:, None], y[:, None], metric)
    assert (got.shape, got.tobytes(), got_warnings) == (want.shape, want.tobytes(), want_warnings)


@settings(max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 30))
@pytest.mark.parametrize("recipe", ["pls", "fpqr-li@0.3"])
def test_cross_validate_takes_vectors_as_columns(recipe, seed, n):
    x, y, _ = draw(seed, n)
    got = cross_validate(x, y, [1], folds=3, fitter=parse_recipe(recipe), seed=seed % 7)
    want = cross_validate(x[:, None], y[:, None], [1], folds=3, fitter=parse_recipe(recipe), seed=seed % 7)
    assert got == want


SHAPES = {"X": (8, 2), "y": (8,), "v": (8,), "z1": (8,), "z2": (8,)}  # every other array is (8, 1)

# entry point: (a call on the named arrays, their names)
ENTRY_POINTS = {
    "beta_distance": (beta_distance, ("b_estimated", "b_true")),
    "test_mse": (mse_metric, ("y_true", "y_pred")),
    "quantile_error": (lambda y_true, y_pred: quantile_error(y_true, y_pred, 0.3), ("y_true", "y_pred")),
    "cross_validate": (lambda X, Y: cross_validate(X, Y, [1], folds=2, fitter=parse_recipe("pls")), ("X", "Y")),
    "fit_pls": (lambda X, Y: fit_pls(X, Y, 1), ("X", "Y")),
    "fit_fpqr": (lambda X, Y: fit_fpqr(X, Y, 1), ("X", "Y")),
    "qcov_matrix": (lambda X, Y: qcov_matrix(X, Y, QcovMetric("dodge", 0.5)), ("X", "Y")),
    "predict": (lambda X: fit_pls(np.eye(3, 2), np.arange(3.0), 1).predict(X), ("X",)),
    **{f.__name__: (lambda z1, z2, f=f: f(z1, z2, 0.5), ("z1", "z2")) for f in (qcov_li, qcov_dodge, qcor_choi, qcov_choi)},
    "empirical_quantile": (lambda v: empirical_quantile(v, 0.5), ("v",)),
    "fit_quantile_regression": (lambda X, y: fit_quantile_regression(X, y, 0.5), ("X", "y")),
}
# fit_quantile_regression checks its own X, which may have zero columns.
CASES = [(entry, arg) for entry, (_, names) in ENTRY_POINTS.items() for arg in names
         if (entry, arg) != ("fit_quantile_regression", "X")]


@pytest.mark.parametrize("bad", ["nan", "inf", "empty"])
@pytest.mark.parametrize("entry, arg", CASES, ids=[f"{entry}-{arg}" for entry, arg in CASES])
def test_a_bad_array_raises_a_value_error_naming_it(entry, arg, bad):
    call, names = ENTRY_POINTS[entry]
    rng = np.random.default_rng(1)
    arrays = {name: rng.normal(size=SHAPES.get(name, (8, 1))) for name in names}
    if bad == "empty":
        arrays[arg] = arrays[arg][:0]
    else:
        arrays[arg][2] = float(bad)
    with pytest.raises(ValueError, match=rf"^{arg} (contains non-finite entries|must be non-empty)"):
        call(**arrays)
