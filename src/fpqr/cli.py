"""Command-line interface.

Subcommands: ``fit``, ``predict``, ``cv``, ``simulate``. Exit codes: 0 on
success, 2 for argument problems, 3 for data problems, 4 for solver failures.
"""

import argparse
import sys

import numpy as np

from .evaluate import (
    ModelRecipe,
    cross_validate,
    make_simulation_spec,
    parse_recipe,
    quantile_error,
    run_study,
    test_mse,
)
from .exceptions import (
    DataError,
    DimensionMismatch,
    EmptyInput,
    InvalidSpec,
    LengthMismatch,
    RankDeficient,
    ShapeMismatch,
    SolverFailure,
)
from .io import read_dataset, save_model, load_model, split_response_columns, write_matrix_csv, write_table_csv
from .quantreg import validate_tau

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _add_data_arguments(parser):
    parser.add_argument("--x", help="CSV of predictor columns")
    parser.add_argument("--y", help="CSV of response columns")
    parser.add_argument("--data", help="single CSV holding predictors and responses")
    parser.add_argument(
        "--response-cols",
        help="comma-separated response column names inside --data",
    )


def _tau(text):
    try:
        return validate_tau(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_fit_arguments(parser):
    parser.add_argument("--method", choices=("fpqr", "pls"), default="fpqr")
    parser.add_argument("--metric", choices=("li", "dodge", "choi"), default="li")
    parser.add_argument("--tau", type=_tau, default=0.5)
    parser.add_argument("--center", choices=("mean", "none"), default="mean")


def _recipe(args):
    """The fit that ``--method``, ``--metric``, ``--tau`` and ``--center`` name."""
    if args.method == "pls":
        return ModelRecipe("pls", "pls", center=args.center)
    return ModelRecipe(f"fpqr-{args.metric}", "fpqr", args.metric, args.tau, args.center)


def _load_xy(args):
    use_pair = args.x is not None or args.y is not None
    use_table = args.data is not None or args.response_cols is not None
    if use_pair == use_table:
        raise _UsageError("provide either --x with --y, or --data with --response-cols")
    if use_pair:
        if args.x is None or args.y is None:
            raise _UsageError("--x and --y must be given together")
        x_names, X = read_dataset(args.x)
        y_names, Y = read_dataset(args.y)
    else:
        if args.data is None or args.response_cols is None:
            raise _UsageError("--data and --response-cols must be given together")
        names = [c.strip() for c in args.response_cols.split(",") if c.strip()]
        if not names:
            raise _UsageError("--response-cols named no columns")
        header, table = read_dataset(args.data)
        X, Y, x_names, y_names = split_response_columns(header, table, names)
    if X.shape[0] != Y.shape[0]:
        raise DataError(f"predictors have {X.shape[0]} rows but responses have {Y.shape[0]}")
    return X, Y, x_names, y_names


class _UsageError(Exception):
    pass


def cmd_fit(args):
    X, Y, x_names, y_names = _load_xy(args)
    recipe = _recipe(args)
    model = recipe.fit(X, Y, args.components)
    if recipe.tau is None:
        objective = test_mse(Y, model.predict(X))
        detail = "objective=mse"
    else:
        objective = quantile_error(Y, model.predict(X), recipe.tau)
        detail = f"metric={recipe.metric} tau={recipe.tau:g}"
    save_model(model, args.out, x_names, y_names)
    print(
        f"fit method={args.method} {detail} "
        f"components={model.effective_components}/{model.requested_components} "
        f"training-objective={objective:.6g}"
    )
    return EXIT_OK


def cmd_predict(args):
    model, metadata = load_model(args.model)
    header, X = read_dataset(args.x)
    expected = metadata["x_columns"]
    missing = [name for name in expected if name not in header]
    unexpected = [name for name in header if name not in expected]
    if missing or unexpected:
        return _fail(
            f"expected {len(expected)} predictor columns, found {len(header)}; "
            f"missing {missing}, unexpected {unexpected}",
            EXIT_DATA,
        )
    if header != expected:
        X = X[:, [header.index(name) for name in expected]]
    with np.errstate(over="ignore", invalid="ignore"):
        predictions = model.predict(X)
    bad = ~np.isfinite(predictions).all(axis=1)
    if bad.any():
        raise DataError(f"{args.x}: data row {bad.argmax() + 1}: the prediction overflows to a non-finite value")
    write_matrix_csv(args.out, metadata["y_columns"], predictions)
    print(f"predict rows={X.shape[0]} responses={model.n_responses} out={args.out}")
    return EXIT_OK


def _parse_candidates(text):
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise _UsageError(f"cannot parse --components range {text!r}") from None
        if hi < lo:
            raise _UsageError("--components range is empty")
        return list(range(lo, hi + 1))
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise _UsageError(f"cannot parse --components list {text!r}") from None


def cmd_cv(args):
    candidates = _parse_candidates(args.components)
    X, Y, _, _ = _load_xy(args)
    result = cross_validate(X, Y, candidates, folds=args.folds, seed=args.seed, fitter=_recipe(args))
    write_matrix_csv(
        args.out,
        ["components", "meanCvError"],
        np.column_stack([result.candidate_components, result.mean_cv_error]),
    )
    for h, reason in sorted(result.invalid_candidates.items()):
        print(f"candidate {h} excluded: {reason}", file=sys.stderr)
    print(f"chosen components: {result.chosen_components}")
    return EXIT_OK


def _format_aggregate(mean, std):
    return f"{mean:.6g} ({std:.4g})"


def cmd_simulate(args):
    try:
        recipes = [parse_recipe(piece) for piece in args.recipes.split(",") if piece.strip()]
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if not recipes:
        raise _UsageError("--recipes named no recipes")
    try:
        spec = make_simulation_spec(args.scheme, args.error, repetitions=args.reps, seed=args.seed)
    except InvalidSpec as exc:
        raise _UsageError(str(exc)) from None

    result = run_study(spec, recipes)
    rows = [
        [spec.scheme, r.model_tag, r.repetition,
         repr(r.beta_distance), repr(r.test_mse), repr(r.quantile_error), repr(r.wall_time_seconds)]
        for r in result.reports
    ]
    rows += [
        [spec.scheme, agg.model_tag, "aggregate",
         _format_aggregate(agg.beta_distance_mean, agg.beta_distance_std),
         _format_aggregate(agg.test_mse_mean, agg.test_mse_std),
         _format_aggregate(agg.quantile_error_mean, agg.quantile_error_std),
         _format_aggregate(agg.wall_time_mean, agg.wall_time_std)]
        for agg in result.aggregates
    ]
    write_table_csv(
        args.out,
        ["scheme", "recipe", "repetition", "betaDistance", "testMse", "quantileError", "seconds"],
        rows,
    )

    for agg in result.aggregates:
        print(
            f"{spec.scheme} {agg.model_tag}: "
            f"betaDistance={_format_aggregate(agg.beta_distance_mean, agg.beta_distance_std)} "
            f"testMse={_format_aggregate(agg.test_mse_mean, agg.test_mse_std)} "
            f"seconds={agg.wall_time_mean:.4g}"
        )
    if result.excluded:
        print(f"excluded repetitions: {len(result.excluded)}", file=sys.stderr)
        for repetition, tag, message in result.excluded:
            print(f"  repetition {repetition} ({tag}): {message}", file=sys.stderr)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fpqr",
        description="Latent-component regression for conditional quantiles, with a mean-based baseline.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit a model and save it")
    _add_data_arguments(fit)
    _add_fit_arguments(fit)
    fit.add_argument("--components", type=int, default=None)
    fit.add_argument("--out", required=True, help="where to write the model file")
    fit.set_defaults(func=cmd_fit)

    predict = commands.add_parser("predict", help="predict responses with a saved model")
    predict.add_argument("--model", required=True)
    predict.add_argument("--x", required=True, help="CSV of predictor columns")
    predict.add_argument("--out", required=True, help="where to write predictions")
    predict.set_defaults(func=cmd_predict)

    cv = commands.add_parser("cv", help="choose a component count by cross-validation")
    _add_data_arguments(cv)
    _add_fit_arguments(cv)
    cv.add_argument("--components", required=True, help="candidates, e.g. '1..6' or '1,2,4'")
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--out", required=True, help="where to write the CV error table")
    cv.set_defaults(func=cmd_cv)

    simulate = commands.add_parser("simulate", help="run a synthetic benchmark study")
    simulate.add_argument("--scheme", choices=("sim1", "sim2", "sim3-low", "sim3-high"), required=True)
    simulate.add_argument("--error", choices=("chi2_3", "normal", "t1", "slash"), default=None)
    simulate.add_argument("--reps", type=int, default=100)
    simulate.add_argument("--recipes", default="fpqr-li,pls")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", required=True, help="where to write the per-repetition table")
    simulate.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except _UsageError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except (DataError, DimensionMismatch, ShapeMismatch, LengthMismatch, EmptyInput) as exc:
        return _fail(str(exc), EXIT_DATA)
    except (SolverFailure, RankDeficient, np.linalg.LinAlgError) as exc:
        return _fail(str(exc), EXIT_SOLVER)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
