"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
passes. Every pass performs the same ops on the same inputs, so its outputs
can be compared bit for bit with every other pass, traced or not. An op is one
user-visible call: a recipe fit followed by ``predict`` on one repetition, or
one ``fpqr.cli.main(argv)`` command.

All ops run under one fixed warnings filter (``always``, recorded), in traced
and untraced runs alike, so warning output costs the same in both and the
zeroed cross-product entries can be counted.
"""

import contextlib
import importlib
import io
import json
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

ZEROED_WARNINGS = ("ZeroVarianceWarning", "DiscordantSlopesWarning")

# Relative tolerance of the dodge beta-distance check against reference.json.
REFERENCE_RTOL = 1e-6


@dataclass
class Op:
    """Outcome of one op."""

    label: str
    seconds: float
    error: str = None
    beta_distance: float = None
    check_loss: float = None

    @property
    def ok(self):
        return self.error is None


@dataclass
class PassResult:
    """Ops, byte-exact outputs, failed output checks and per-pass counters of one pass.

    ``failures`` holds only checks not tied to one op; a failed op carries its
    own ``error``.
    """

    seconds: float = 0.0
    ops: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    spans: list = field(default_factory=list)


@contextlib.contextmanager
def fixed_warnings(counters):
    """Record every warning in the block and count the zeroed-entry kinds."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for item in caught:
        name = item.category.__name__
        if name in ZEROED_WARNINGS:
            counters[name] += 1


def slope_fits_skipped(metric, counts):
    """Per-entry slope fits a cross product skipped: entries zeroed for zero
    variance fit no slope at all (two for ``choi``, one per direction)."""
    return spans.SLOPE_FITS_PER_ENTRY.get(metric, 0) * counts["ZeroVarianceWarning"]


def _describe(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class StudyDodge:
    """Slope-based metrics on ``sim1``: the per-entry quantile slopes dominate.

    Each op fits one recipe on its own ``sim1`` repetition: one pass is two
    dodge and two choi fits on four independent repetitions. Components are
    capped (``run_study`` would fit 30), which keeps one pass between 6 and
    13 s on two cores, short enough for every op to run at least twice in a
    run.
    """

    name = "study-dodge"
    RECIPES = (("fpqr-dodge", 3), ("fpqr-choi", 2))
    INPUT_SETS = 2

    def setup(self, seed, workdir):
        evaluate = importlib.import_module("fpqr.evaluate")
        spec = evaluate.make_simulation_spec("sim1", repetitions=1, seed=seed)
        self.items = []
        for repetition in range(self.INPUT_SETS * len(self.RECIPES)):
            tag, components = self.RECIPES[repetition % len(self.RECIPES)]
            data = evaluate.generate_simulation(spec, repetition)
            self.items.append((evaluate.parse_recipe(tag), components, repetition, data))
        self.seed = seed

    def inputs(self):
        return b"".join(array.tobytes() for *_, data in self.items for array in data)

    def run_pass(self, tracer):
        evaluate = importlib.import_module("fpqr.evaluate")
        result = PassResult()
        started = time.perf_counter()
        for index, (recipe, components, repetition, (X, Y, X_test, Y_test, B)) in enumerate(self.items):
            label = f"{recipe.tag}@rep{repetition}"
            counts = Counter()
            with tracer.op_scope(index), fixed_warnings(counts):
                op_start = time.perf_counter()
                try:
                    model = recipe.fit(X, Y, components)
                    predicted = model.predict(X_test)
                except Exception as exc:  # a failed op is reported, not fatal
                    result.ops.append(Op(label, time.perf_counter() - op_start, _describe(exc)))
                    continue
                elapsed = time.perf_counter() - op_start
            coefficients = np.asarray(model.coefficients)
            if coefficients.shape != B.shape or not np.isfinite(coefficients).all():
                error = f"coefficients of shape {coefficients.shape} (expected {B.shape}) or non-finite"
                result.ops.append(Op(label, elapsed, error))
                continue
            result.ops.append(
                Op(
                    label,
                    elapsed,
                    beta_distance=evaluate.beta_distance(coefficients, B),
                    check_loss=evaluate.quantile_error(Y_test, predicted, recipe.tau),
                )
            )
            result.outputs.append(coefficients.tobytes() + np.asarray(predicted).tobytes())
            result.counters.update(counts)
            result.counters["slope_fits_skipped"] += slope_fits_skipped(recipe.metric, counts)
        result.seconds = time.perf_counter() - started
        return result

    def check(self, first_pass, reference):
        """Dodge beta distances must match the values recorded for this seed."""
        recorded = reference.get(str(self.seed))
        if recorded is None:
            return [], f"no recorded dodge beta distance for seed {self.seed}; check skipped"
        measured = [op.beta_distance for op in first_pass.ops if op.label.startswith("fpqr-dodge@")]
        failures = []
        if len(measured) != len(recorded) or not np.allclose(
            measured, recorded, rtol=REFERENCE_RTOL, atol=0.0
        ):
            failures.append(
                f"dodge beta distances {measured} differ from the recorded {recorded} "
                f"(rtol {REFERENCE_RTOL:g})"
            )
        return failures, f"dodge beta distances match the recorded values within rtol {REFERENCE_RTOL:g}"


class StudyLight:
    """``run_study`` with the vectorized metric and the mean fit.

    ``sim2`` (three responses, chi-squared noise) and ``sim3-low`` with
    ``t1`` noise; the inner quantile regression dominates the ``fpqr-li``
    ops, and the ``pls`` ops exercise ``linalg`` and deflation.
    """

    name = "study-light"
    RECIPES = ("fpqr-li", "pls")
    STUDIES = (("sim2", None, 25), ("sim3-low", "t1", 200))

    def setup(self, seed, workdir):
        evaluate = importlib.import_module("fpqr.evaluate")
        self.specs = [
            evaluate.make_simulation_spec(scheme, law, repetitions=reps, seed=seed)
            for scheme, law, reps in self.STUDIES
        ]

    def inputs(self):
        evaluate = importlib.import_module("fpqr.evaluate")
        return b"".join(
            array.tobytes()
            for spec in self.specs
            for repetition in range(spec.repetitions)
            for array in evaluate.generate_simulation(spec, repetition)
        )

    def run_pass(self, tracer):
        evaluate = importlib.import_module("fpqr.evaluate")
        result = PassResult()
        started = time.perf_counter()
        for index, spec in enumerate(self.specs):
            label = f"{spec.scheme}/{spec.error_law}"
            with tracer.op_scope(index), fixed_warnings(result.counters):
                study = evaluate.run_study(spec, self.RECIPES)
            for report in study.reports:
                result.ops.append(
                    Op(
                        f"{report.model_tag}@{label}",
                        report.wall_time_seconds,
                        beta_distance=report.beta_distance,
                        check_loss=report.quantile_error,
                    )
                )
            # Every op of an excluded repetition is lost.
            for repetition, tag, message in study.excluded:
                error = f"repetition {repetition} excluded ({tag}): {message}"
                result.ops.extend(Op(f"{r}@{label}", 0.0, error) for r in self.RECIPES)
            result.counters["excluded"] += len(study.excluded)
            result.outputs.append(
                np.array(
                    [(r.beta_distance, r.test_mse, r.quantile_error) for r in study.reports]
                ).tobytes()
            )
            if spec.error_law == "t1":
                means = {a.model_tag: a.beta_distance_mean for a in study.aggregates}
                if not means.get("fpqr-li", np.inf) < means.get("pls", -np.inf):
                    result.failures.append(
                        f"{label}: fpqr-li beta distance {means.get('fpqr-li')} does not "
                        f"beat pls {means.get('pls')}"
                    )
        result.seconds = time.perf_counter() - started
        return result

    def check(self, first_pass, reference):
        return [], "fpqr-li beats pls on beta distance under t1 noise (checked every pass)"


class CliRoundtrip:
    """In-process ``fpqr.cli.main`` on CSVs written during setup.

    A 2000 x 100 training table (98 predictors, two responses) is fitted by
    ``pls`` and ``fpqr --metric li`` and cross-validated by ``pls``; a
    2000-row held-out table is predicted with each saved model. CSV parsing
    and writing and model save/load are a large share of every op.
    """

    name = "cli-roundtrip"
    # predict op -> (model file it reads, predictions file it writes)
    PREDICTIONS = {"predict-pls": ("pls.json", "pred_pls.csv"), "predict-li": ("li.json", "pred_li.csv")}
    N_TRAIN, N_HOLDOUT, N_FEATURES, N_RESPONSES, N_RELEVANT = 2000, 2000, 98, 2, 20
    COMPONENTS = 10
    NOISE_DF = 3.0

    def setup(self, seed, workdir):
        fpqr_io = importlib.import_module("fpqr.io")
        X, Y, X_hold, Y_hold, B = self._draw(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        x_names = [f"x{j + 1}" for j in range(self.N_FEATURES)]
        y_names = [f"y{k + 1}" for k in range(self.N_RESPONSES)]
        self.train = self.workdir / "train.csv"
        self.holdout = self.workdir / "holdout_x.csv"
        fpqr_io.write_matrix_csv(self.train, x_names + y_names, np.hstack([X, Y]))
        fpqr_io.write_matrix_csv(self.holdout, x_names, X_hold)
        self.y_names = y_names
        self.Y_hold = Y_hold
        self.B = B
        self.reference = None

    def _draw(self, seed):
        def stream(role):
            return np.random.default_rng(np.random.SeedSequence((seed, role)))

        B = np.zeros((self.N_FEATURES, self.N_RESPONSES))
        B[: self.N_RELEVANT] = stream(1).uniform(size=(self.N_RELEVANT, self.N_RESPONSES))
        X = stream(0).standard_normal((self.N_TRAIN, self.N_FEATURES))
        X_hold = stream(3).standard_normal((self.N_HOLDOUT, self.N_FEATURES))
        E = stream(2).standard_t(self.NOISE_DF, (self.N_TRAIN, self.N_RESPONSES))
        E_hold = stream(4).standard_t(self.NOISE_DF, (self.N_HOLDOUT, self.N_RESPONSES))
        return X, X @ B + E, X_hold, X_hold @ B + E_hold, B

    def inputs(self):
        return self.train.read_bytes() + self.holdout.read_bytes()

    def _path(self, name):
        return str(self.workdir / name)

    def commands(self):
        data = ["--data", str(self.train), "--response-cols", ",".join(self.y_names)]
        h = str(self.COMPONENTS)
        return [
            ("fit-pls", ["fit", *data, "--method", "pls", "--components", h, "--out", self._path("pls.json")]),
            (
                "fit-li",
                ["fit", *data, "--method", "fpqr", "--metric", "li", "--components", h,
                 "--out", self._path("li.json")],
            ),
            (
                "cv-pls",
                ["cv", *data, "--method", "pls", "--components", f"1..{h}", "--folds", "5",
                 "--out", self._path("cv.csv")],
            ),
            *(
                (label, ["predict", "--model", self._path(model), "--x", str(self.holdout),
                         "--out", self._path(out)])
                for label, (model, out) in self.PREDICTIONS.items()
            ),
        ]

    def _reference(self):
        """In-process fits and predictions on the same CSVs, computed once."""
        if self.reference is None:
            fpqr = importlib.import_module("fpqr")
            header, table = fpqr.read_dataset(self.train)
            X, Y, _, _ = fpqr.split_response_columns(header, table, self.y_names)
            _, X_hold = fpqr.read_dataset(self.holdout)
            models = {
                "predict-pls": fpqr.fit_pls(X, Y, self.COMPONENTS),
                "predict-li": fpqr.fit_fpqr(X, Y, self.COMPONENTS, tau=0.5, metric="li"),
            }
            self.reference = {
                label: (model.coefficients, model.predict(X_hold)) for label, model in models.items()
            }
        return self.reference

    def run_pass(self, tracer):
        cli = importlib.import_module("fpqr.cli")
        evaluate = importlib.import_module("fpqr.evaluate")
        result = PassResult()
        started = time.perf_counter()
        for index, (label, argv) in enumerate(self.commands()):
            sink = io.StringIO()
            with tracer.op_scope(index), fixed_warnings(result.counters), \
                    contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                op_start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a failed op is reported, not fatal
                    code = _describe(exc)
                elapsed = time.perf_counter() - op_start
            error = None if code == 0 else f"exit {code}: {sink.getvalue().strip()}"
            result.ops.append(Op(label, elapsed, error))
        result.seconds = time.perf_counter() - started

        for name in ("pls.json", "li.json", "cv.csv", *(out for _, out in self.PREDICTIONS.values())):
            path = self.workdir / name
            result.outputs.append(path.read_bytes() if path.exists() else b"")
        for op in result.ops:
            if op.label not in self.PREDICTIONS or not op.ok:
                continue
            coefficients, expected = self._reference()[op.label]
            predicted = _read_csv_floats(self.workdir / self.PREDICTIONS[op.label][1])
            if predicted.shape != expected.shape or predicted.tobytes() != expected.tobytes():
                op.error = "CLI predictions differ from the in-process model.predict"
                continue
            op.beta_distance = evaluate.beta_distance(coefficients, self.B)
            op.check_loss = evaluate.quantile_error(self.Y_hold, predicted, 0.5)
        return result

    def check(self, first_pass, reference):
        return [], "every command exits 0; CLI predictions equal in-process predictions bit for bit"


def _read_csv_floats(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    return np.array([[float(cell) for cell in line.split(",")] for line in lines])


WORKLOADS = {cls.name: cls for cls in (StudyDodge, StudyLight, CliRoundtrip)}


def load_reference(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
