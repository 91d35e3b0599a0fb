"""Evaluation metrics, cross-validation, and the synthetic benchmark studies."""

__all__ = [
    "CvResult", "EvalReport", "ModelRecipe", "SimulationSpec", "StudyAggregate", "StudyResult",
    "beta_distance", "cross_validate", "generate_simulation", "make_simulation_spec", "parse_recipe",
    "quantile_error", "run_study", "test_mse",
]

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import DimensionMismatch, InvalidSpec
from .fpqr import FPQR_METRICS, fit_fpqr, quantile_parts
from .linalg import as_matrix, validate_center
from .pls import PLS_PARTS, as_count, component_cap, component_path, fit_pls, resolve_components
from .quantreg import check_loss, validate_tau

# ---------------------------------------------------------------------------
# metrics


def _as_2d(a, name):
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-d or 2-d")
    return arr


def _same_shape(a, b, names, what):
    A, B = _as_2d(a, names[0]), _as_2d(b, names[1])
    if A.shape != B.shape:
        raise DimensionMismatch(f"{what} shapes differ: {A.shape} vs {B.shape}")
    return A, B


def beta_distance(b_estimated, b_true):
    """Frobenius distance between two coefficient matrices."""
    A, B = _same_shape(b_estimated, b_true, ("b_estimated", "b_true"), "coefficient")
    return float(np.linalg.norm(A - B))


def test_mse(y_true, y_pred):
    """Mean squared prediction error over all response entries."""
    T, P = _same_shape(y_true, y_pred, ("y_true", "y_pred"), "response")
    return float(np.mean((T - P) ** 2))


def quantile_error(y_true, y_pred, tau):
    """Check loss of the prediction errors, summed over response columns and
    averaged over rows."""
    tau = validate_tau(tau)
    T, P = _same_shape(y_true, y_pred, ("y_true", "y_pred"), "response")
    return float(check_loss(T - P, tau).sum() / T.shape[0])


# ---------------------------------------------------------------------------
# model recipes


@dataclass(frozen=True)
class ModelRecipe:
    """A named, parameter-complete way to fit a model, used by studies and CV.

    ``method`` is ``"pls"`` (no metric, no level) or ``"fpqr"`` (a metric in
    ``FPQR_METRICS``, a level in (0, 1)), and ``center`` one of
    ``CENTERING_MODES``; anything else raises ``ValueError``.
    """

    tag: str
    method: str
    metric: Optional[str] = None
    tau: Optional[float] = None
    center: str = "mean"

    def __post_init__(self):
        validate_center(self.center)
        if self.method == "pls":
            if self.metric is not None or self.tau is not None:
                raise ValueError("the pls recipe takes no metric and no quantile level")
        elif self.method != "fpqr":
            raise ValueError(f"unknown recipe method {self.method!r}; expected 'pls' or 'fpqr'")
        elif self.metric not in FPQR_METRICS:
            raise ValueError(f"unknown recipe metric {self.metric!r}; expected one of {FPQR_METRICS}")
        elif self.tau is None:
            raise ValueError("an fpqr recipe needs a quantile level")
        else:
            object.__setattr__(self, "tau", validate_tau(self.tau))

    def fit(self, X, Y, n_components):
        if self.method == "pls":
            return fit_pls(X, Y, n_components, center=self.center)
        return fit_fpqr(X, Y, n_components, tau=self.tau, metric=self.metric, center=self.center)

    def path(self, X, Y, n_components):
        """``finish(h)``: :meth:`fit` at any ``h`` up to ``n_components``, from one extraction."""
        parts = PLS_PARTS if self.method == "pls" else quantile_parts(self.tau, self.metric)
        return component_path(X, Y, n_components, self.center, *parts)


def parse_recipe(text):
    """Parse ``"pls"`` or ``"fpqr-<metric>[@tau]"`` into a :class:`ModelRecipe`."""
    tag = str(text).strip()
    base, at, level = tag.partition("@")
    if base != "pls" and not base.startswith("fpqr-"):
        raise ValueError(f"unknown recipe {text!r}; expected 'pls' or 'fpqr-<li|dodge|choi>[@tau]'")
    if level != level.strip() or (at and not level):  # tags go unquoted into the study table
        raise ValueError(f"quantile level {level!r} after '@' is empty or holds whitespace")
    tau = float(level) if level else None
    if base == "pls":
        return ModelRecipe(tag, "pls", None, tau)
    return ModelRecipe(tag, "fpqr", base[len("fpqr-"):], 0.5 if tau is None else tau)


# ---------------------------------------------------------------------------
# cross-validation

_CV_STREAM = 8


@dataclass
class CvResult:
    """Per-candidate mean held-out error and the selected component count."""

    candidate_components: list
    mean_cv_error: list
    chosen_components: int
    invalid_candidates: dict = field(default_factory=dict)


_FIT_ERRORS = (ValueError, RuntimeError, np.linalg.LinAlgError)


def _fold_fits(fitter, X_train, Y_train, candidates):
    """``h -> model`` on one fold's training rows: a recipe extracts once, at the largest fitting candidate."""
    if not isinstance(fitter, ModelRecipe):
        return lambda h: fitter(X_train, Y_train, h)
    fitting = [h for h in candidates if h <= component_cap(*X_train.shape)]
    if not fitting:  # extract nothing; each candidate raises resolve_components' error
        return lambda h: resolve_components(h, *X_train.shape)
    return fitter.path(X_train, Y_train, max(fitting))


def cross_validate(X, Y, candidates, folds=5, fitter=None, seed=0):
    """Pick a component count by k-fold prediction error.

    Rows are shuffled once with a generator keyed by ``seed`` and split into
    ``folds`` contiguous blocks. Centering happens inside each training fit,
    so no statistic of the held-out rows leaks into it. A candidate whose fit
    or prediction fails in any fold is excluded and recorded with the first
    fold it failed in. Exact error ties go to the smaller component count.

    A :class:`ModelRecipe` extracts once per fold, at the largest candidate the
    fold supports, and finishes each h from the first h components, bit for
    bit the refit at h; if that extraction raises, every candidate left is
    excluded with ``"fold i: <error>"``. A callable fitter refits per candidate.
    """
    X = as_matrix(X, "X")
    Y = _as_2d(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise DimensionMismatch(f"X has {X.shape[0]} rows, Y has {Y.shape[0]}")
    if fitter is None:
        raise ValueError("fitter is required: a ModelRecipe or a callable (X, Y, h) -> model")
    folds = as_count(folds, "folds", 2)
    n = X.shape[0]
    if folds > n:
        raise ValueError(f"folds must not exceed the {n} available rows")
    candidates = sorted({as_count(h, "candidate component counts", 1) for h in candidates})
    if not candidates:
        raise ValueError("candidates must be non-empty")
    seed = as_count(seed, "seed", 0)

    rng = np.random.default_rng(np.random.SeedSequence((seed, _CV_STREAM)))
    order = rng.permutation(n)
    blocks = np.array_split(order, folds)

    fold_errors = {h: [] for h in candidates}
    invalid = {}
    for i, held_out in enumerate(blocks):
        mask = np.ones(n, dtype=bool)
        mask[held_out] = False
        scored = [h for h in candidates if h not in invalid]
        try:
            fit_at = _fold_fits(fitter, X[mask], Y[mask], scored)
        except _FIT_ERRORS as exc:
            invalid.update(dict.fromkeys(scored, f"fold {i}: {exc}"))
            continue
        for h in scored:
            try:
                predicted = fit_at(h).predict(X[~mask])
            except _FIT_ERRORS as exc:
                invalid[h] = f"fold {i}: {exc}"
                continue
            fold_errors[h].append(test_mse(Y[~mask], predicted))

    valid = [h for h in candidates if h not in invalid]
    if not valid:
        raise ValueError(f"every candidate failed cross-validation: {invalid}")
    errors = [float(np.mean(fold_errors[h])) for h in valid]
    chosen = min(zip(errors, valid))[1]
    return CvResult(valid, errors, chosen, invalid)


# ---------------------------------------------------------------------------
# simulation schemes

# name: (train rows, predictors, responses, components, error laws, test rows)
SCHEMES = {
    "sim1": (100, 100, 1, 30, ("chi2_3",), 500),
    "sim2": (100, 100, 3, 30, ("chi2_3",), 500),
    "sim3-low": (100, 10, 1, 2, ("normal", "t1", "slash"), 100),
    "sim3-high": (15, 60, 1, 4, ("normal", "t1", "slash"), 100),
}
_RELEVANT_PREDICTORS = 30  # sim1/sim2: leading rows of the coefficient matrix
_SIM3_COEF_SCALE = 0.001

_STREAMS = {
    "x_train": 0,
    "coefficients": 1,
    "noise_train": 2,
    "x_test": 3,
    "noise_test": 4,
    "scores_train": 5,
    "loadings": 6,
    "scores_test": 7,
}


@dataclass(frozen=True)
class SimulationSpec:
    """Noise law and bookkeeping for one benchmark scheme, which fixes every size, the test size among them."""

    scheme: str
    error_law: str
    repetitions: int
    seed: int

    n_train = property(lambda self: SCHEMES[self.scheme][0])
    n_features = property(lambda self: SCHEMES[self.scheme][1])
    n_responses = property(lambda self: SCHEMES[self.scheme][2])
    n_components = property(lambda self: SCHEMES[self.scheme][3])
    test_size = property(lambda self: SCHEMES[self.scheme][5])

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidSpec(f"unknown scheme {self.scheme!r}; expected one of {sorted(SCHEMES)}")
        allowed = SCHEMES[self.scheme][4]
        if self.error_law not in allowed:
            raise InvalidSpec(f"scheme {self.scheme} supports error laws {allowed}, got {self.error_law!r}")
        for name, least in (("repetitions", 1), ("seed", 0)):
            try:
                object.__setattr__(self, name, as_count(getattr(self, name), name, least))
            except ValueError as exc:
                raise InvalidSpec(str(exc)) from None


def make_simulation_spec(scheme, error_law=None, repetitions=100, seed=0):
    """Build a :class:`SimulationSpec`, by default with the scheme's first error law; the scheme fixes every size."""
    if scheme in SCHEMES and error_law is None:  # any other scheme reaches SimulationSpec, which rejects it
        error_law = SCHEMES[scheme][4][0]
    return SimulationSpec(scheme, error_law, repetitions, seed)


def _stream(spec, repetition, role):
    return np.random.default_rng(np.random.SeedSequence((spec.seed, repetition, _STREAMS[role])))


def _draw_noise(rng, law, shape):
    if law == "chi2_3":
        return rng.chisquare(3.0, shape)
    if law == "normal":
        return rng.standard_normal(shape)
    if law == "t1":
        return rng.standard_t(1.0, shape)
    return rng.standard_normal(shape) / rng.uniform(size=shape)  # slash: SimulationSpec admits no other law


def generate_simulation(spec, repetition):
    """Draw one repetition of a scheme.

    Every matrix comes from its own generator keyed by
    ``(seed, repetition, role)``, so any single piece can be reproduced
    without replaying the others.

    Returns
    -------
    (X_train, Y_train, X_test, Y_test, B_true)
    """
    repetition = as_count(repetition, "repetition", 0)
    n, m, l = spec.n_train, spec.n_features, spec.n_responses
    n_test = spec.test_size

    if spec.scheme in ("sim1", "sim2"):
        B = np.zeros((m, l))
        B[:_RELEVANT_PREDICTORS] = _stream(spec, repetition, "coefficients").uniform(
            size=(_RELEVANT_PREDICTORS, l)
        )
        X = _stream(spec, repetition, "x_train").standard_normal((n, m))
        X_test = _stream(spec, repetition, "x_test").standard_normal((n_test, m))
    else:
        h = spec.n_components
        T = _stream(spec, repetition, "scores_train").standard_normal((n, h))
        P = _stream(spec, repetition, "loadings").standard_normal((m, h))
        X = T @ P.T
        B = _stream(spec, repetition, "coefficients").normal(0.0, _SIM3_COEF_SCALE, (m, l))
        T_test = _stream(spec, repetition, "scores_test").standard_normal((n_test, h))
        X_test = T_test @ P.T

    E = _draw_noise(_stream(spec, repetition, "noise_train"), spec.error_law, (n, l))
    E_test = _draw_noise(_stream(spec, repetition, "noise_test"), spec.error_law, (n_test, l))
    Y = X @ B + E
    Y_test = X_test @ B + E_test
    return X, Y, X_test, Y_test, B


# ---------------------------------------------------------------------------
# study driver


@dataclass(frozen=True)
class EvalReport:
    """Metrics for one recipe on one repetition. Wall time covers fit and predict."""

    model_tag: str
    repetition: int
    beta_distance: float
    test_mse: float
    quantile_error: float
    wall_time_seconds: float


@dataclass(frozen=True)
class StudyAggregate:
    """Mean and sample standard deviation of each metric for one recipe."""

    model_tag: str
    included: int
    excluded: int
    beta_distance_mean: float
    beta_distance_std: float
    test_mse_mean: float
    test_mse_std: float
    quantile_error_mean: float
    quantile_error_std: float
    wall_time_mean: float
    wall_time_std: float


# EvalReport field -> the StudyAggregate fields ``<prefix>_mean`` and ``<prefix>_std``
STUDY_METRICS = {
    "beta_distance": "beta_distance",
    "test_mse": "test_mse",
    "quantile_error": "quantile_error",
    "wall_time_seconds": "wall_time",
}


@dataclass
class StudyResult:
    spec: SimulationSpec
    reports: list
    excluded: list
    aggregates: list


def _mean_std(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def run_study(spec, recipes):
    """Run every recipe on every repetition of a scheme and aggregate.

    A repetition where any recipe fails is recorded in ``excluded`` and
    dropped from every recipe's aggregate, so the aggregates always compare
    recipes on identical data. Fits run sequentially; data generation stays
    outside the timed region.
    """
    recipes = [parse_recipe(r) if isinstance(r, str) else r for r in recipes]
    if not recipes:
        raise ValueError("recipes must be non-empty")
    tags = [r.tag for r in recipes]
    if len(set(tags)) != len(tags):
        raise ValueError(f"recipe tags must be unique, got {tags}")

    reports = []
    excluded = []
    for repetition in range(spec.repetitions):
        X, Y, X_test, Y_test, B_true = generate_simulation(spec, repetition)
        rep_reports = []
        for recipe in recipes:
            started = time.perf_counter()
            try:
                model = recipe.fit(X, Y, spec.n_components)
                predicted = model.predict(X_test)
            except _FIT_ERRORS as exc:
                excluded.append((repetition, recipe.tag, str(exc)))
                break
            elapsed = time.perf_counter() - started
            tau = recipe.tau if recipe.tau is not None else 0.5
            rep_reports.append(
                EvalReport(
                    model_tag=recipe.tag,
                    repetition=repetition,
                    beta_distance=beta_distance(model.coefficients, B_true),
                    test_mse=test_mse(Y_test, predicted),
                    quantile_error=quantile_error(Y_test, predicted, tau),
                    wall_time_seconds=elapsed,
                )
            )
        else:
            reports.extend(rep_reports)

    aggregates = []
    for tag in tags:
        rows = [r for r in reports if r.model_tag == tag]
        if not rows:
            continue
        stats = {}
        for name, prefix in STUDY_METRICS.items():
            stats[f"{prefix}_mean"], stats[f"{prefix}_std"] = _mean_std([getattr(r, name) for r in rows])
        aggregates.append(StudyAggregate(tag, len(rows), len(excluded), **stats))
    return StudyResult(spec=spec, reports=reports, excluded=excluded, aggregates=aggregates)

