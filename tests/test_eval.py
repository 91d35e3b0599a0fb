import numpy as np
import pytest
from numpy.testing import assert_allclose

import fpqr.pls
from fpqr import (
    ModelRecipe,
    SimulationSpec,
    beta_distance,
    cross_validate,
    fit_fpqr,
    fit_pls,
    generate_simulation,
    make_simulation_spec,
    parse_recipe,
    quantile_error,
    run_study,
)
from fpqr import test_mse as mse_metric
from fpqr.exceptions import DimensionMismatch, InvalidSpec


class TestMetrics:
    def test_beta_distance_frobenius(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        B = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert beta_distance(A, B) == pytest.approx(np.sqrt(2.0))

    def test_beta_distance_zero_on_equal(self):
        A = np.arange(6.0).reshape(3, 2)
        assert beta_distance(A, A.copy()) == 0.0

    def test_test_mse_is_per_entry_mean(self):
        y_true = np.array([[0.0, 0.0], [0.0, 0.0]])
        y_pred = np.array([[1.0, 1.0], [3.0, 1.0]])
        # squared errors 1, 1, 9, 1 over 4 entries
        assert mse_metric(y_true, y_pred) == pytest.approx(3.0)

    def test_quantile_error_sums_columns_averages_rows(self):
        y_true = np.array([[1.0, 2.0], [3.0, 4.0]])
        y_pred = np.zeros((2, 2))
        # residuals all positive: loss tau*u, summed 10*tau, over 2 rows
        assert quantile_error(y_true, y_pred, 0.3) == pytest.approx(0.3 * 10.0 / 2.0)

    def test_quantile_error_median_halves_absolute_error(self):
        rng = np.random.default_rng(0)
        y_true = rng.normal(size=(20, 1))
        y_pred = rng.normal(size=(20, 1))
        expected = 0.5 * np.abs(y_true - y_pred).mean()
        assert quantile_error(y_true, y_pred, 0.5) == pytest.approx(expected)

    def test_vector_inputs_accepted(self):
        assert mse_metric([0.0, 0.0], [2.0, 0.0]) == pytest.approx(2.0)

    @pytest.mark.parametrize("fn", [beta_distance, mse_metric])
    def test_shape_mismatch(self, fn):
        with pytest.raises(DimensionMismatch):
            fn(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError, match="must be 1-d or 2-d"):
            fn(np.ones((2, 2, 2)), np.ones((2, 2, 2)))


class TestParseRecipe:
    def test_pls(self):
        r = parse_recipe("pls")
        assert (r.method, r.metric, r.tau) == ("pls", None, None)

    def test_default_level(self):
        r = parse_recipe("fpqr-li")
        assert (r.method, r.metric, r.tau) == ("fpqr", "li", 0.5)

    def test_explicit_level(self):
        r = parse_recipe("fpqr-dodge@0.25")
        assert (r.method, r.metric, r.tau) == ("fpqr", "dodge", 0.25)
        assert r.tag == "fpqr-dodge@0.25"

    @pytest.mark.parametrize("bad", ["pls@0.5", "fpqr-kendall", "ridge", "fpqr-li@1.5", "fpqr-li@", "pls@"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_recipe(bad)

    def test_fpqr_recipe_without_a_level_rejected(self):
        with pytest.raises(ValueError, match="quantile level"):
            ModelRecipe("a", "fpqr", "li")

    def test_pls_recipe_with_a_metric_and_level_rejected(self):
        # It would fit pls while run_study scored its check loss at 0.3.
        with pytest.raises(ValueError, match="no metric and no quantile level"):
            ModelRecipe("b", "pls", "li", 0.3)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown recipe method 'PLS'"):
            ModelRecipe("c", "PLS")

    @pytest.mark.parametrize("method, metric, tau", [("pls", None, None), ("fpqr", "li", 0.5)])
    def test_unknown_centering_mode_rejected(self, method, metric, tau):
        # Built, it would fail every fit: run_study would exclude every repetition.
        with pytest.raises(ValueError, match="unknown centering mode 'median'"):
            ModelRecipe("e", method, metric, tau, center="median")

    @pytest.mark.parametrize("metric, tau", [("kendall", 0.5), ("li", 1.5), (None, 0.5)])
    def test_fpqr_recipe_with_a_bad_metric_or_level_rejected(self, metric, tau):
        with pytest.raises(ValueError):
            ModelRecipe("d", "fpqr", metric, tau)

    @pytest.mark.parametrize("bad", ["fpqr-li@\n0.5", "fpqr-li@ 0.5", "fpqr-li@\t0.25"])
    def test_rejects_whitespace_in_the_level(self, bad):
        # float() takes such a level, but the tag, line break included, would
        # reach the study table's cells.
        with pytest.raises(ValueError, match="whitespace"):
            parse_recipe(bad)


def rank3_data(seed=0, n=60, m=12, l=2):
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(n, 3))
    P = rng.normal(size=(m, 3))
    Q = rng.normal(size=(l, 3))
    return T @ P.T, T @ Q.T


class TestCrossValidate:
    def test_noiseless_rank3_selects_three(self):
        X, Y = rank3_data()
        result = cross_validate(X, Y, range(1, 7), folds=5, fitter=ModelRecipe("pls", "pls"), seed=0)
        assert result.chosen_components in (3, 4)
        assert result.candidate_components == [1, 2, 3, 4, 5, 6]
        # past the true rank the held-out error is numerically zero
        by_h = dict(zip(result.candidate_components, result.mean_cv_error))
        assert by_h[3] < 1e-16
        assert by_h[1] > by_h[2] > by_h[3]

    def test_chosen_attains_minimum(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 8))
        Y = X @ rng.normal(size=(8, 1)) + rng.normal(size=(50, 1))
        result = cross_validate(X, Y, [1, 2, 3, 4], fitter=ModelRecipe("pls", "pls"), seed=1)
        best = min(result.mean_cv_error)
        chosen_idx = result.candidate_components.index(result.chosen_components)
        assert result.mean_cv_error[chosen_idx] == best

    def test_deterministic_given_seed(self):
        X, Y = rank3_data(seed=5)
        a = cross_validate(X, Y, [1, 2, 3], fitter=ModelRecipe("pls", "pls"), seed=7)
        b = cross_validate(X, Y, [1, 2, 3], fitter=ModelRecipe("pls", "pls"), seed=7)
        assert a.mean_cv_error == b.mean_cv_error
        assert a.chosen_components == b.chosen_components

    def test_callable_fitter(self):
        X, Y = rank3_data(seed=6)
        result = cross_validate(
            X, Y, [2, 3], fitter=lambda Xtr, Ytr, h: fit_pls(Xtr, Ytr, h), seed=0
        )
        assert result.chosen_components == 3

    def test_infeasible_candidate_excluded(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10, 4))
        Y = rng.normal(size=(10, 1))
        # 8 training rows per fold support at most 7 components, and m=4 caps it at 4
        result = cross_validate(X, Y, [1, 2, 6], folds=5, fitter=ModelRecipe("pls", "pls"), seed=0)
        assert 6 not in result.candidate_components
        assert 6 in result.invalid_candidates
        assert "fold" in result.invalid_candidates[6]

    def test_all_candidates_failing_raises(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(10, 2))
        Y = rng.normal(size=(10, 1))
        with pytest.raises(ValueError, match="every candidate failed"):
            cross_validate(X, Y, [5], fitter=ModelRecipe("pls", "pls"), seed=0)

    def test_requires_fitter(self):
        X, Y = rank3_data(seed=10)
        with pytest.raises(ValueError, match="fitter"):
            cross_validate(X, Y, [1, 2])

    def test_folds_bounds(self):
        X, Y = rank3_data(seed=11, n=10)
        with pytest.raises(ValueError, match="folds"):
            cross_validate(X, Y, [1], folds=1, fitter=ModelRecipe("pls", "pls"))
        with pytest.raises(ValueError, match="folds"):
            cross_validate(X, Y, [1], folds=11, fitter=ModelRecipe("pls", "pls"))

    def test_negative_seed_rejected(self):
        X, Y = rank3_data(seed=12)
        with pytest.raises(ValueError, match="seed"):
            cross_validate(X, Y, [1], fitter=ModelRecipe("pls", "pls"), seed=-1)

    def test_row_mismatch_rejected(self):
        X, Y = rank3_data(seed=12)
        with pytest.raises(DimensionMismatch, match="rows"):
            cross_validate(X, Y[:-1], [1], fitter=ModelRecipe("pls", "pls"))

    @pytest.mark.parametrize(
        "candidates, folds, seed",
        [([1.5, 2.9], 5, 0), ([1, True], 5, 0), ([1, 2], 2.9, 0), ([1, 2], 5, 1.5)],
        ids=["float-candidates", "bool-candidate", "float-folds", "float-seed"],
    )
    def test_non_integral_counts_rejected(self, candidates, folds, seed):
        X, Y = rank3_data(seed=13)
        with pytest.raises(ValueError, match="must be an integer"):
            cross_validate(X, Y, candidates, folds=folds, fitter=ModelRecipe("pls", "pls"), seed=seed)
        exact = cross_validate(X, Y, [np.int64(1), 2], folds=np.int64(5), fitter=ModelRecipe("pls", "pls"))
        assert exact.candidate_components == [1, 2]


def recipe_at(tag, center):
    base = parse_recipe(tag)
    return ModelRecipe(base.tag, base.method, base.metric, base.tau, center)


def rank2_data(seed=21, n=40, m=6, l=2):
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(n, 2))
    return T @ rng.normal(size=(m, 2)).T, T @ rng.normal(size=(2, l)) + rng.standard_t(3, size=(n, l))


RECIPES = ["pls", "fpqr-li", "fpqr-dodge", "fpqr-choi", "fpqr-li@0.25", "fpqr-dodge@0.25", "fpqr-choi@0.25"]


@pytest.mark.filterwarnings("ignore::fpqr.exceptions.DiscordantSlopesWarning")
@pytest.mark.filterwarnings("ignore::fpqr.exceptions.ZeroVarianceWarning")
class TestComponentPath:
    """A recipe's one extraction per fold against a refit per candidate."""

    @staticmethod
    def assert_same_cv(X, Y, candidates, recipe, folds=5):
        path = cross_validate(X, Y, candidates, folds=folds, fitter=recipe, seed=3)
        refit = cross_validate(
            X, Y, candidates, folds=folds, fitter=lambda Xt, Yt, h: recipe.fit(Xt, Yt, h), seed=3
        )
        assert path.candidate_components == refit.candidate_components
        assert np.array(path.mean_cv_error).tobytes() == np.array(refit.mean_cv_error).tobytes()
        assert path.chosen_components == refit.chosen_components
        assert path.invalid_candidates == refit.invalid_candidates
        return path

    @pytest.mark.parametrize("center", ["mean", "none"])
    @pytest.mark.parametrize("tag", RECIPES)
    def test_cv_equals_refit_per_candidate(self, tag, center):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(45, 7)) + 1.0
        Y = X @ rng.normal(size=(7, 2)) + rng.standard_t(3, size=(45, 2))
        self.assert_same_cv(X, Y, range(1, 6), recipe_at(tag, center))

    @pytest.mark.parametrize("tag", RECIPES)
    def test_early_stop_is_reused_by_larger_candidates(self, tag):
        X, Y = rank2_data()
        recipe = recipe_at(tag, "mean")
        assert recipe.path(X, Y, 5)(5).effective_components == 2
        self.assert_same_cv(X, Y, range(1, 6), recipe)

    def test_candidate_over_a_fold_cap_keeps_its_message(self):
        # 11 rows in 5 folds: fold 0 trains on 8 rows (at most 7 components), the rest on 9
        rng = np.random.default_rng(19)
        X = rng.normal(size=(11, 20))
        Y = rng.normal(size=(11, 1))
        result = self.assert_same_cv(X, Y, [1, 3, 8], ModelRecipe("pls", "pls"))
        assert result.candidate_components == [1, 3]
        assert result.invalid_candidates == {8: "fold 0: components must lie in [1, 7] for this data, got 8"}

    def test_count_beyond_the_path_rejected(self):
        finish = ModelRecipe("pls", "pls").path(*rank2_data(), 2)
        with pytest.raises(ValueError, match="the path holds 2 components, got 3"):
            finish(3)

    @pytest.mark.parametrize("center", ["mean", "none"])
    @pytest.mark.parametrize("tag", RECIPES)
    def test_prefix_equals_fit_at_each_count(self, tag, center):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(40, 6)) + 0.5
        Y = X @ rng.normal(size=(6, 2)) + rng.standard_t(3, size=(40, 2))
        recipe = recipe_at(tag, center)
        for data in ((X, Y), rank2_data()):
            finish = recipe.path(*data, 6)
            for h in range(1, 7):
                prefix = finish(h)
                if recipe.method == "pls":
                    fit = fit_pls(*data, h, center=center)
                else:
                    fit = fit_fpqr(*data, h, tau=recipe.tau, metric=recipe.metric, center=center)
                for name in ("coefficients", "gamma", "intercepts"):
                    assert getattr(prefix, name).tobytes() == getattr(fit, name).tobytes(), (name, h)
                assert prefix.requested_components == fit.requested_components == h
                assert prefix.effective_components == fit.effective_components

class TestCvWorkCount:
    @pytest.fixture
    def extractions(self, monkeypatch):
        real = fpqr.pls.extract_components
        calls = []

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(fpqr.pls, "extract_components", counting)
        return calls

    def test_recipe_extracts_once_per_fold_at_its_largest_valid_candidate(self, extractions):
        X, Y = rank3_data(seed=15)
        cross_validate(X, Y, [1, 2, 4], folds=5, fitter=ModelRecipe("pls", "pls"), seed=0)
        assert extractions == [4] * 5

    def test_fold_cap_bounds_the_extraction(self, extractions):
        # fold 0 trains on 8 rows and supports 7 components; 8 is excluded there, so no fold extracts 8
        rng = np.random.default_rng(19)
        X = rng.normal(size=(11, 20))
        Y = rng.normal(size=(11, 1))
        cross_validate(X, Y, [2, 7, 8], folds=5, fitter=ModelRecipe("pls", "pls"), seed=0)
        assert extractions == [7] * 5

    def test_fold_without_a_valid_candidate_extracts_nothing(self, extractions):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10, 4))
        Y = rng.normal(size=(10, 1))
        with pytest.raises(ValueError, match="every candidate failed"):
            cross_validate(X, Y, [5, 6], folds=5, fitter=ModelRecipe("pls", "pls"), seed=0)
        assert extractions == []

    def test_extraction_error_excludes_every_candidate_of_its_fold(self, extractions, monkeypatch):
        counting = fpqr.pls.extract_components

        def failing_in_fold_1(*args):
            decomposition = counting(*args)
            if len(extractions) == 2:
                raise np.linalg.LinAlgError("synthetic failure")
            return decomposition

        monkeypatch.setattr(fpqr.pls, "extract_components", failing_in_fold_1)
        X, Y = rank3_data(seed=14)
        with pytest.raises(ValueError, match="every candidate failed") as caught:
            cross_validate(X, Y, [1, 2, 3], fitter=ModelRecipe("pls", "pls"), seed=0)
        expected = {h: "fold 1: synthetic failure" for h in (1, 2, 3)}
        assert f"every candidate failed cross-validation: {expected}" in str(caught.value)
        assert extractions == [3, 3]

    def test_callable_fitter_refits_per_candidate_and_fold(self, extractions):
        X, Y = rank3_data(seed=16)
        calls = []

        def fitter(Xt, Yt, h):
            calls.append(h)
            return fit_pls(Xt, Yt, h)

        cross_validate(X, Y, [1, 2, 3], folds=4, fitter=fitter, seed=0)
        assert sorted(calls) == [1] * 4 + [2] * 4 + [3] * 4
        assert sorted(extractions) == sorted(calls)


class TestSimulationSpec:
    def test_fixed_dimensions_filled_in(self):
        spec = make_simulation_spec("sim1", repetitions=3, seed=1)
        assert (spec.n_train, spec.n_features, spec.n_responses, spec.n_components) == (100, 100, 1, 30)
        assert spec.error_law == "chi2_3"
        assert spec.test_size == 500

    def test_sim3_defaults(self):
        spec = make_simulation_spec("sim3-high", error_law="slash", repetitions=2)
        assert (spec.n_train, spec.n_features) == (15, 60)
        assert spec.test_size == 100

    def test_unknown_scheme(self):
        with pytest.raises(InvalidSpec):
            make_simulation_spec("sim4")

    def test_error_law_must_match_scheme(self):
        with pytest.raises(InvalidSpec):
            make_simulation_spec("sim1", error_law="t1")
        with pytest.raises(InvalidSpec):
            make_simulation_spec("sim3-low", error_law="chi2_3")

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSpec):
            make_simulation_spec("sim1", seed=-3)

    @pytest.mark.parametrize(
        "kwargs, message", [({"repetitions": 0}, "repetitions must be at least 1, got 0")], ids=["repetitions"]
    )
    def test_non_positive_sizes_rejected(self, kwargs, message):
        with pytest.raises(InvalidSpec, match=message):
            make_simulation_spec("sim1", **kwargs)

    @pytest.mark.parametrize("field, value", [("repetitions", 2.7), ("seed", True)])
    def test_counts_reject_floats_and_bools(self, field, value):
        with pytest.raises(InvalidSpec, match=f"{field} must be an integer, got {value}"):
            make_simulation_spec("sim3-low", "t1", **{field: value})
        counts = {"repetitions": 2, "seed": 0, field: value}
        with pytest.raises(InvalidSpec, match=f"{field} must be an integer"):
            SimulationSpec("sim3-low", "t1", **counts)

    def test_direct_spec_validates_scheme(self):
        with pytest.raises(InvalidSpec, match="unknown scheme 'sim4'"):
            SimulationSpec("sim4", "normal", 1, 0)

    def test_direct_spec_matches_factory(self):
        spec = SimulationSpec("sim3-low", "t1", 2, 3)
        assert spec == make_simulation_spec("sim3-low", "t1", 2, 3)
        assert spec.test_size == 100  # the scheme's, as in every spec


class TestGenerateSimulation:
    def test_sim1_shapes_and_sparsity(self):
        spec = make_simulation_spec("sim1", repetitions=1, seed=0)
        X, Y, X_test, Y_test, B = generate_simulation(spec, 0)
        assert X.shape == (100, 100)
        assert Y.shape == (100, 1)
        assert X_test.shape == (500, 100)
        assert Y_test.shape == (500, 1)
        assert B.shape == (100, 1)
        assert (B[:30] > 0).all() and (B[:30] < 1).all()
        assert (B[30:] == 0).all()

    def test_sim2_three_responses(self):
        spec = make_simulation_spec("sim2", repetitions=1, seed=0)
        _, Y, _, Y_test, B = generate_simulation(spec, 0)
        assert Y.shape == (100, 3)
        assert B.shape == (100, 3)

    def test_chi2_noise_is_uncentered(self):
        spec = make_simulation_spec("sim1", repetitions=1, seed=2)
        X, Y, _, _, B = generate_simulation(spec, 0)
        noise = Y - X @ B
        assert (noise > 0).all()
        assert noise.mean() == pytest.approx(3.0, abs=0.8)

    def test_sim3_predictors_have_latent_rank(self):
        spec = make_simulation_spec("sim3-high", error_law="normal", repetitions=1, seed=0)
        X, _, X_test, _, B = generate_simulation(spec, 0)
        assert X.shape == (15, 60)
        assert np.linalg.matrix_rank(X) == 4
        assert np.linalg.matrix_rank(np.vstack([X, X_test])) == 4  # shared loadings
        assert np.abs(B).max() < 0.01

    def test_repetitions_reproducible_and_distinct(self):
        spec = make_simulation_spec("sim3-low", error_law="t1", repetitions=2, seed=3)
        a0 = generate_simulation(spec, 0)
        b0 = generate_simulation(spec, 0)
        a1 = generate_simulation(spec, 1)
        for left, right in zip(a0, b0):
            assert_allclose(left, right)
        assert not np.allclose(a0[0], a1[0])

    def test_seed_changes_data(self):
        s3 = make_simulation_spec("sim1", repetitions=1, seed=3)
        s4 = make_simulation_spec("sim1", repetitions=1, seed=4)
        assert not np.allclose(generate_simulation(s3, 0)[0], generate_simulation(s4, 0)[0])

    def test_negative_repetition_rejected(self):
        spec = make_simulation_spec("sim3-low", error_law="normal", repetitions=1)
        with pytest.raises(ValueError, match="repetition must be at least 0, got -1"):
            generate_simulation(spec, -1)

    def test_fractional_repetition_rejected(self):
        spec = make_simulation_spec("sim3-low", error_law="normal", repetitions=2)
        with pytest.raises(ValueError, match="repetition must be an integer, got 1.5"):
            generate_simulation(spec, 1.5)

    def test_slash_noise_has_heavy_tails(self):
        spec = make_simulation_spec("sim3-low", error_law="slash", repetitions=1, seed=5)
        X, Y, _, _, B = generate_simulation(spec, 0)
        noise = Y - X @ B
        # a slash draw exceeds 3 in absolute value far more often than a normal
        assert np.abs(noise).max() > 3.0


class TestRunStudy:
    def test_rows_and_aggregates(self):
        spec = make_simulation_spec("sim3-low", error_law="normal", repetitions=3, seed=0)
        result = run_study(spec, ["pls", "fpqr-li"])
        assert len(result.reports) == 6
        assert [a.model_tag for a in result.aggregates] == ["pls", "fpqr-li"]
        for agg in result.aggregates:
            assert agg.included == 3
            assert agg.excluded == 0
            assert agg.wall_time_mean > 0
        by_tag = {a.model_tag: a for a in result.aggregates}
        li_rows = [r.beta_distance for r in result.reports if r.model_tag == "fpqr-li"]
        assert by_tag["fpqr-li"].beta_distance_mean == pytest.approx(np.mean(li_rows))
        assert by_tag["fpqr-li"].beta_distance_std == pytest.approx(np.std(li_rows, ddof=1))

    def test_duplicate_tags_rejected(self):
        spec = make_simulation_spec("sim3-low", error_law="normal", repetitions=1, seed=0)
        with pytest.raises(ValueError, match="unique"):
            run_study(spec, ["pls", "pls"])

    def test_no_recipe_rejected(self):
        spec = make_simulation_spec("sim3-low", error_law="normal", repetitions=1, seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            run_study(spec, [])

    def test_failing_recipe_excludes_whole_repetition(self):
        spec = make_simulation_spec("sim3-low", error_law="normal", repetitions=2, seed=0)

        calls = {"count": 0}

        def flaky_fit(X, Y, h, center="mean"):
            calls["count"] += 1
            if calls["count"] == 2:  # fail on repetition 1
                raise ValueError("synthetic failure")
            return fit_pls(X, Y, h)

        recipes = [ModelRecipe("pls", "pls"), parse_recipe("fpqr-li")]
        flaky = ModelRecipe("flaky", "pls")
        object.__setattr__(flaky, "fit", flaky_fit)
        result = run_study(spec, [flaky, *recipes])
        assert len(result.excluded) == 1
        assert result.excluded[0][0] == 1
        assert result.excluded[0][1] == "flaky"
        for agg in result.aggregates:
            assert agg.included == 1
            assert agg.excluded == 1

    def test_every_repetition_excluded(self):
        spec = make_simulation_spec("sim3-low", error_law="normal", repetitions=3, seed=0)

        def failing_fit(X, Y, h):
            raise np.linalg.LinAlgError("synthetic failure")

        failing = ModelRecipe("failing", "pls")
        object.__setattr__(failing, "fit", failing_fit)
        result = run_study(spec, ["pls", failing])
        assert result.reports == []
        assert result.aggregates == []
        assert result.excluded == [(r, "failing", "synthetic failure") for r in range(3)]
