"""Imputation models: fills, fallbacks, fitting guards, and oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipinfer import estimators, imputers, simgen
from ipinfer.errors import ConfigError, DimensionError, FitError

from conftest import random_blockwise
import oracles
from oracles import gaussian_conditional_mean

nan = np.nan

# Four blockwise patterns over d = 4 (True = observed), one to three cells
# missing, so the chained fill couples up to three regressions per row.
MIXED_MASKS = (
    (True, True, False, True),
    (False, True, True, True),
    (True, False, False, True),
    (False, False, True, False),
)


def train_matrix() -> np.ndarray:
    return np.array(
        [
            [1.0, 2.0, 0.0],
            [2.0, 4.0, 1.0],
            [3.0, 6.0, 0.0],
            [4.0, nan, 1.0],
        ]
    )


class TestFitDispatch:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown imputer kind"):
            imputers.fit("oracle", train_matrix())

    def test_empty_training_set_rejected(self):
        with pytest.raises(FitError, match="empty"):
            imputers.fit(imputers.MEAN_KIND, np.zeros((0, 2)))

    def test_never_observed_column_rejected(self):
        bad = np.array([[1.0, nan], [2.0, nan]])
        with pytest.raises(FitError):
            imputers.fit(imputers.MEAN_KIND, bad)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((3, 0)), np.zeros((2, 2, 2))])
    def test_non_matrix_rejected(self, bad):
        with pytest.raises(DimensionError, match="2-d matrix"):
            imputers.fit(imputers.MEAN_KIND, bad)

    @pytest.mark.parametrize("kind", imputers.KINDS)
    def test_every_kind_fits_and_fills(self, kind):
        model = imputers.fit(kind, train_matrix())
        out = model.fill(np.array([[nan, 2.0, 1.0]]))
        assert out.shape == (1, 3)
        assert np.isfinite(out).all()


class TestFillContract:
    def test_observed_cells_preserved_bitwise(self):
        model = imputers.fit(imputers.MEAN_KIND, train_matrix())
        query = np.array([[0.125, nan, 7.0], [nan, 1.5, nan]])
        out = model.fill(query)
        obs = ~np.isnan(query)
        assert np.array_equal(out[obs], query[obs])

    def test_input_left_untouched(self):
        model = imputers.fit(imputers.ZERO_KIND, train_matrix())
        query = np.array([[nan, 1.0, 2.0]])
        model.fill(query)
        assert np.isnan(query[0, 0])

    def test_vector_in_vector_out(self):
        model = imputers.fit(imputers.ZERO_KIND, train_matrix())
        out = model.fill(np.array([nan, 1.0, 2.0]))
        assert out.shape == (3,)
        assert out[0] == 0.0

    def test_width_mismatch_raises(self):
        model = imputers.fit(imputers.ZERO_KIND, train_matrix())
        with pytest.raises(DimensionError):
            model.fill(np.zeros((2, 4)))


def blockwise_train_and_query(rng) -> tuple[np.ndarray, np.ndarray]:
    """Incomplete training rows and a shuffled batch of mixed-pattern queries."""
    train = random_blockwise(rng, n_complete=40, per_pattern=20, masks=MIXED_MASKS)
    query = random_blockwise(rng, n_complete=0, per_pattern=10, masks=MIXED_MASKS)
    return train, query[rng.permutation(len(query))]


@pytest.mark.parametrize("kind", imputers.KINDS)
def test_fill_does_not_depend_on_batch(kind, rng):
    train, query = blockwise_train_and_query(rng)
    model = imputers.fit(kind, train)
    alone = np.vstack([model.fill(row) for row in query])
    if kind == imputers.HOTDECK_KIND:
        # the screened search rechecks each candidate with one row's arithmetic
        assert np.array_equal(model.fill(query), alone)
    else:
        np.testing.assert_allclose(model.fill(query), alone, rtol=0.0, atol=1e-12)


class TestMeanAndZero:
    def test_mean_uses_observed_training_means(self):
        model = imputers.fit(imputers.MEAN_KIND, train_matrix())
        assert np.allclose(model.column_means, [2.5, 4.0, 0.5])
        out = model.fill(np.array([nan, nan, nan]))
        assert np.allclose(out, [2.5, 4.0, 0.5])

    def test_zero_fills_zero(self):
        model = imputers.fit(imputers.ZERO_KIND, train_matrix())
        out = model.fill(np.array([nan, 7.0, nan]))
        assert np.array_equal(out, [0.0, 7.0, 0.0])


class TestHotDeck:
    def donors(self) -> np.ndarray:
        return np.array(
            [
                [0.0, 0.0, 10.0],
                [1.0, 1.0, 20.0],
                [5.0, 5.0, nan],
            ]
        )

    def fit(self):
        return imputers.fit(imputers.HOTDECK_KIND, self.donors())

    def test_copies_from_nearest_donor(self):
        out = self.fit().fill(np.array([0.9, 1.1, nan]))
        assert out[2] == 20.0

    def test_tie_breaks_to_lowest_donor_index(self):
        out = self.fit().fill(np.array([0.5, nan, nan]))
        # donors 0 and 1 are equidistant on the shared coordinate
        assert out[2] == 10.0 and out[1] == 0.0

    def test_donor_missing_cell_falls_back_to_column_mean(self):
        out = self.fit().fill(np.array([5.1, 4.9, nan]))
        assert out[2] == pytest.approx(15.0)

    def test_no_shared_coordinates_falls_back_to_column_means(self):
        donors = np.array([[1.0, nan], [2.0, nan], [3.0, 4.0]])
        model = imputers.fit(imputers.HOTDECK_KIND, donors)
        out = model.fill(np.array([nan, nan]))
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(4.0)

    def test_overflowed_distances_choose_a_usable_donor(self):
        # Both donors sharing coordinate 1 with the row are at an overflowed
        # (infinite) distance; donor 0 shares none and was once copied.
        donors = np.array([[7.0, nan, 1.0], [nan, 1e160, 2.0], [nan, 2e160, 3.0]])
        model = imputers.fit(imputers.HOTDECK_KIND, donors)
        out = model.fill(np.array([nan, 1.5, nan]))
        assert np.array_equal(out, [7.0, 1.5, 2.0])
        assert np.array_equal(oracles.hotdeck_fill(donors, [[nan, 1.5, nan]])[0], out)

    @pytest.mark.parametrize(
        "case",
        ["duplicated", "integer_grid", "scale_1e-8", "scale_1e8", "subnormal",
         "unshared", "overflow", "infinite", "d1", "many_donors"],
    )
    def test_fill_matches_per_row_oracle(self, case):
        """The screened search picks the donor a per-row argmin picks: on
        exact ties, near-ties, tiny and huge scales, squares that are
        subnormal or overflow, infinite cells, incomplete donors, rows
        sharing no coordinate with some donors, all-missing rows, d = 1, and
        1,980 donors, over several query blocks."""
        donors, queries = hotdeck_case(case)
        model = imputers.fit(imputers.HOTDECK_KIND, donors)
        # the screen raises no floating-point error that the per-row loop
        # does not; only inf - inf, in the "infinite" case, sets one
        errors = {"invalid": "ignore"} if case == "infinite" else {"all": "raise"}
        with np.errstate(**errors):
            filled = model.fill(queries)
            expected = oracles.hotdeck_fill(donors, queries)
        assert np.array_equal(filled, expected)


def hotdeck_case(case: str) -> tuple[np.ndarray, np.ndarray]:
    """(donors, queries) of one hotdeck oracle case, from a fixed seed."""
    rng = np.random.default_rng(19)
    d = 1 if case == "d1" else 6
    n_donors = 1980 if case in ("integer_grid", "many_donors") else 150
    if case == "integer_grid":
        # two coordinates on a five-point grid: every query ties with dozens
        # of donors, more candidate pairs than one recheck call takes
        d = 2
        def draw(n):
            return rng.integers(-2, 3, (n, d)).astype(float)
    else:
        scale = {"scale_1e-8": 1e-8, "scale_1e8": 1e8, "subnormal": 1e-160,
                 "overflow": 1e160}.get(case, 1.0)
        def draw(n):
            return scale * rng.standard_normal((n, d))
    donors, queries = draw(n_donors), draw(700)
    if case == "duplicated":
        donors = np.vstack([donors, donors[::3]])
        queries[:200] = donors[rng.integers(0, len(donors), 200)]
    # donor 0 stays complete, so that every column is observed
    donors[1:][rng.random((len(donors) - 1, d)) < 0.2] = nan
    queries[rng.random(queries.shape) < 0.3] = nan
    queries[::50] = nan
    if case in ("unshared", "overflow"):
        # the later half of the donors observe only the first half of the
        # coordinates, and the queries only the second half
        donors[n_donors // 2:, d // 2:] = nan
        queries[:, : d // 2] = nan
    if case == "infinite":
        # an infinite distance, and a NaN one from inf - inf
        donors[3:5, 0] = np.inf
        queries[5:10, 0] = [np.inf, np.inf, -np.inf, 1.0, np.inf]
    return donors, queries


class TestGaussianConditional:
    def complete_train(self, rng) -> np.ndarray:
        cov = np.array([[2.0, 0.8, 0.3], [0.8, 1.5, 0.5], [0.3, 0.5, 1.0]])
        return rng.multivariate_normal([1.0, -2.0, 0.5], cov, size=200)

    def test_complete_training_recovers_ml_moments(self, rng):
        x = self.complete_train(rng)
        model = imputers.fit(imputers.GAUSSIAN_KIND, x)
        assert np.allclose(model.mu, x.mean(axis=0), atol=1e-8)
        centered = x - x.mean(axis=0)
        ml_cov = centered.T @ centered / len(x)
        assert np.allclose(model.sigma, ml_cov, atol=1e-6)

    def test_fill_matches_conditional_mean_oracle(self, rng):
        x = self.complete_train(rng)
        model = imputers.fit(imputers.GAUSSIAN_KIND, x)
        query = np.array([nan, 0.3, -0.7])
        out = model.fill(query)
        obs = np.array([False, True, True])
        expected = gaussian_conditional_mean(
            model.mu, model.sigma, obs, ~obs, query[obs]
        )
        assert np.allclose(out[0], expected, rtol=1e-6)

    def test_row_with_nothing_observed_gets_unconditional_mean(self, rng):
        x = self.complete_train(rng)
        model = imputers.fit(imputers.GAUSSIAN_KIND, x)
        out = model.fill(np.array([nan, nan, nan]))
        assert np.allclose(out, model.mu)

    def test_under_observed_column_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, nan], [3.0, nan]])
        with pytest.raises(FitError, match="fewer than twice"):
            imputers.fit(imputers.GAUSSIAN_KIND, bad)

    def test_em_recovers_parameters_under_mcar(self, rng):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        x = rng.multivariate_normal([2.0, -1.0], cov, size=4000)
        holes = rng.random(x.shape) < 0.3
        holes[(holes.all(axis=1)), 0] = False
        x = np.where(holes, nan, x)
        model = imputers.fit(imputers.GAUSSIAN_KIND, x)
        assert np.allclose(model.mu, [2.0, -1.0], atol=0.1)
        assert np.allclose(model.sigma, cov, atol=0.15)


def headline_split() -> np.ndarray:
    """An imputer training split of the default simulation: 220 x 20 rows
    over ten blockwise patterns."""
    rng = np.random.default_rng(7)
    population = simgen.build_population(simgen.FactorModelConfig())
    config = simgen.ExperimentConfig()
    matrix = population.sample(rng, config.n_total())
    dataset = simgen.gen_mcar_missingness(matrix, config.missingness(), (0, 1, 2), rng)
    train, _ = estimators.split_train_inference(dataset, config.train_frac, rng)
    return train


def with_all_missing_row() -> np.ndarray:
    masks = ((True, True, False, True), (False, False, False, False))
    return random_blockwise(np.random.default_rng(1), masks=masks)


def with_column_observed_twice() -> np.ndarray:
    train = random_blockwise(np.random.default_rng(2), masks=MIXED_MASKS)
    train[2:, 3] = nan
    return train


def seventy_columns() -> np.ndarray:
    # a missingness row packs to 9 bytes
    rng = np.random.default_rng(3)
    masks = tuple(tuple(rng.random(70) > 0.1) for _ in range(4))
    return random_blockwise(rng, n_complete=150, per_pattern=25, d=70, masks=masks)


PARITY_MATRICES = {
    "headline_split": headline_split,
    "all_missing_row": with_all_missing_row,
    "column_observed_twice": with_column_observed_twice,
    "seventy_columns": seventy_columns,
}


def em_setup(matrix):
    """The plans and zero-filled observed cells an EM map of `matrix` reads."""
    observed = ~np.isnan(matrix)
    plans = [
        imputers._PatternPlan(key, rows, matrix)
        for key, rows in imputers.pattern_groups(~observed).items()
    ]
    return plans, np.where(observed, matrix, 0.0)


class TestPatternPlans:
    """One EM map and the pattern grouping match the unplanned reference
    exactly, and the accelerated fit reaches plain EM's fixed point."""

    @pytest.mark.parametrize("name", PARITY_MATRICES)
    def test_em_matches_reference_bitwise(self, name):
        # one EM map from plain EM's start is plain EM's first iteration
        matrix = PARITY_MATRICES[name]()
        observed = ~np.isnan(matrix)
        assert (observed.sum(axis=0) >= 2).all()
        start_mu, start_sigma, _ = oracles.em_gaussian(matrix, observed, max_iter=0)
        ref_mu, ref_sigma, _ = oracles.em_gaussian(matrix, observed, max_iter=1)
        mu, sigma = imputers._em_map(start_mu, start_sigma, *em_setup(matrix))
        assert np.array_equal(mu, ref_mu)
        assert np.array_equal(sigma, ref_sigma)

    def test_two_maps_at_the_cap_match_reference_bitwise(self, monkeypatch):
        # no extrapolation happens before the third map, so the fit's start
        # and its first two maps are plain EM's
        matrix = headline_split()
        observed = ~np.isnan(matrix)
        monkeypatch.setattr(imputers, "_EM_MAX_ITER", 2)
        mu, sigma, n_iter, converged = imputers._em_gaussian(matrix, observed)
        ref_mu, ref_sigma, ref_iter = oracles.em_gaussian(matrix, observed, max_iter=2)
        assert np.array_equal(mu, ref_mu)
        assert np.array_equal(sigma, ref_sigma)
        assert (n_iter, converged, ref_iter) == (2, False, 2)

    @pytest.mark.parametrize("name", ["headline_split", "all_missing_row", "seventy_columns"])
    def test_em_reaches_the_fixed_point(self, name):
        matrix = PARITY_MATRICES[name]()
        observed = ~np.isnan(matrix)
        mu, sigma, n_iter, converged = imputers._em_gaussian(matrix, observed)
        ref_mu, ref_sigma, ref_iter = oracles.em_gaussian(
            matrix, observed, max_iter=100_000, tol=1e-13
        )
        assert ref_iter < 100_000
        assert converged and n_iter < ref_iter
        assert np.max(np.abs(mu - ref_mu)) <= 1e-5
        assert np.max(np.abs(sigma - ref_sigma)) <= 1e-5

    def test_em_without_a_fixed_point_stops_where_pinned(self):
        # A column observed in two rows only: plain EM never settles (after
        # 200,000 maps each map still moves the fit by 1.3e-8) and stops at
        # its cap of 200.  The accelerated fit meets the 1e-6 rule after 87
        # maps.
        matrix = with_column_observed_twice()
        model = imputers.fit(imputers.GAUSSIAN_KIND, matrix)
        assert (model.n_iter, model.converged) == (87, True)

    def test_rejected_extrapolation_falls_back_to_plain_em(self, monkeypatch):
        # A step rejected at every steplength is the plain two-map point, so
        # the fit is plain EM, map for map.
        matrix = headline_split()
        observed = ~np.isnan(matrix)
        monkeypatch.setattr(imputers, "_positive_definite", lambda sigma: False)
        mu, sigma, n_iter, converged = imputers._em_gaussian(matrix, observed)
        ref_mu, ref_sigma, ref_iter = oracles.em_gaussian(matrix, observed)
        assert np.array_equal(mu, ref_mu)
        assert np.array_equal(sigma, ref_sigma)
        assert n_iter == ref_iter and converged

    def test_non_positive_definite_step_halves_toward_minus_one(self):
        # r = x1 - x0 and v = x2 - 2 x1 + x0; the mean's r sets |r| / |v| to
        # 10, where the extrapolated sigma, 1 + 0.2 a - 0.1 a^2 times I, is
        # negative.  Halving a's distance to -1 rejects -5.5 and -3.25 too
        # and accepts -2.125.
        eye = np.eye(2)
        r_mu = np.array([np.sqrt(1.98), 0.0])
        x0 = (np.zeros(2), eye)
        x1 = (r_mu, 0.9 * eye)
        x2 = (2.0 * r_mu, 0.7 * eye)
        mu, sigma = imputers._squarem_point(x0, x1, x2)
        a = -2.125
        np.testing.assert_allclose(mu, -2.0 * a * r_mu, rtol=1e-12)
        np.testing.assert_allclose(sigma, (1.0 + 0.2 * a - 0.1 * a * a) * eye, rtol=1e-12)
        assert np.linalg.eigvalsh(sigma)[0] > 0.0

    @pytest.mark.parametrize(
        "case", ["never_positive_definite", "infinite_step", "infinite_norms"]
    )
    def test_rejected_step_is_the_two_map_point(self, case):
        eye = np.eye(2)
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        if case == "never_positive_definite":
            # sigma's r is -0.5 I and its v 1e-12 I, so a = -5e11 and the
            # extrapolated sigma, 1 + a + 1e-12 a^2 times I, stays negative
            # through every halving
            x0, x1, x2 = ((np.zeros(2), s * eye) for s in (1.0, 0.5, 1e-12))
        elif case == "infinite_step":
            # the mean's r is 1e100 and sigma's v 1e-100 off the diagonal, so
            # a = -1e200 and a^2 overflows through every halving
            x0, x1 = (np.zeros(2), eye), (np.full(2, 1e100), eye)
            x2 = (np.full(2, 2e100), eye + 1e-100 * off)
        else:
            # |r| and |v| overflow, and their ratio is NaN
            x0, x1, x2 = ((np.full(2, s), eye) for s in (0.0, 1e200, 3e200))
        # the command line raises on overflow and invalid operations
        with np.errstate(all="raise"):
            point = imputers._squarem_point(x0, x1, x2)
        assert point is x2

    def test_fit_at_a_low_cap_is_not_converged_and_warns(self, monkeypatch):
        monkeypatch.setattr(imputers, "_EM_MAX_ITER", 5)
        rng = np.random.default_rng(7)
        population = simgen.build_population(simgen.FactorModelConfig())
        config = simgen.ExperimentConfig()
        matrix = population.sample(rng, config.n_total())
        dataset = simgen.gen_mcar_missingness(matrix, config.missingness(), (0, 1, 2), rng)
        loss, _ = config.make_loss()
        split = simgen.Split(
            dataset, loss, imputers.GAUSSIAN_KIND, config.train_frac, 0, []
        )
        model, _ = split.fitted
        assert (model.n_iter, model.converged) == (5, False)
        assert split.warnings == [
            "the gaussian_conditional imputer stopped at its cap of "
            f"{model.cap} before converging"
        ]

    @pytest.mark.parametrize(
        "miss",
        [np.isnan(make()) for make in PARITY_MATRICES.values()]
        + [
            np.random.default_rng(4).random((60, 3)) < 0.4,
            np.zeros((5, 3), dtype=bool),
        ],
        ids=[*PARITY_MATRICES, "three_columns", "complete_rows"],
    )
    def test_groups_match_reference(self, miss):
        # shuffled rows interleave the patterns
        miss = miss[np.random.default_rng(5).permutation(len(miss))]
        groups = imputers.pattern_groups(miss)
        reference = oracles.pattern_groups(miss)
        assert list(groups) == list(reference)
        for key, rows in reference.items():
            assert np.array_equal(groups[key], rows)

    def test_cached_fill_equals_fresh_fill(self, rng):
        train, query = blockwise_train_and_query(rng)
        query[0] = nan
        batch_first = imputers.fit(imputers.GAUSSIAN_KIND, train)
        rows_first = imputers.fit(imputers.GAUSSIAN_KIND, train)
        cold_batch = batch_first.fill(query)
        cold_rows = np.vstack([rows_first.fill(row) for row in query])
        warm_batch = rows_first.fill(query)
        warm_rows = np.vstack([batch_first.fill(row) for row in query])
        assert np.array_equal(cold_batch, warm_batch)
        assert np.array_equal(cold_rows, warm_rows)
        np.testing.assert_allclose(cold_batch, cold_rows, rtol=0.0, atol=1e-12)


class TestChainedRegression:
    def test_recovers_exact_linear_rule(self, eight_row):
        # Training fits x = 1 + 0.8 u exactly on the four complete rows.
        out = eight_row.imputer.fill(
            np.array([[nan, 5.0], [nan, 7.0], [nan, 9.0], [nan, 11.0]])
        )
        assert np.allclose(out[:, 0], [5.0, 6.6, 8.2, 9.8], atol=1e-9)

    def test_masked_complete_fills(self, eight_row):
        out = eight_row.imputer.fill(
            np.array([[nan, 2.0], [nan, 1.0], [nan, 4.0], [nan, 3.0]])
        )
        assert np.allclose(out[:, 0], [2.6, 1.8, 4.2, 3.4], atol=1e-9)

    def test_complete_training_models_every_column(self):
        train = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        model = imputers.fit(imputers.CHAINED_KIND, train)
        forward = model.fill(np.array([3.0, nan]))
        backward = model.fill(np.array([nan, 4.0]))
        assert forward[1] == pytest.approx(6.0, abs=1e-9)
        assert backward[0] == pytest.approx(2.0, abs=1e-9)

    def test_identity_rule_from_semi_supervised_training(self, semi_supervised):
        out = semi_supervised.imputer.fill(np.array([nan, 4.0]))
        assert out[0] == pytest.approx(4.0, abs=1e-12)

    def test_fill_satisfies_every_stored_regression(self, rng):
        train, query = blockwise_train_and_query(rng)
        model = imputers.fit(imputers.CHAINED_KIND, train)
        assert np.array_equal(np.diag(model.coefs), np.zeros(4))
        out = model.fill(query)
        implied = model.intercepts + out @ model.coefs.T
        miss = np.isnan(query)
        assert np.abs(out - implied)[miss].max() <= 1e-10

    def test_fill_equals_converged_sweep_replay(self, rng):
        train, query = blockwise_train_and_query(rng)
        model = imputers.fit(imputers.CHAINED_KIND, train)
        miss = np.isnan(query)
        for pattern in np.unique(miss, axis=0):
            # Gauss-Seidel in column order contracts on this pattern's cells
            m = np.flatnonzero(pattern)
            system = np.eye(m.size) - model.coefs[np.ix_(m, m)]
            lower = np.tril(system)
            sweep = np.linalg.solve(lower, lower - system)
            assert np.abs(np.linalg.eigvals(sweep)).max() < 1.0
        replay = np.where(miss, 0.0, query)
        for _ in range(10_000):
            change = 0.0
            for j in range(model.d):
                rows = miss[:, j]
                pred = model.intercepts[j] + replay[rows] @ model.coefs[j]
                change = max(change, np.abs(pred - replay[rows, j]).max(initial=0.0))
                replay[rows, j] = pred
            if change < 1e-14:
                break
        else:
            pytest.fail("sweep replay did not converge")
        np.testing.assert_allclose(model.fill(query), replay, rtol=0.0, atol=1e-10)

    def test_constant_column_gets_zero_coefficients(self):
        # Its centred cross-products are zero, so the normal equations are
        # singular and the least-squares fallback answers.
        train = np.array(
            [
                [1.0, 5.0, 0.0],
                [2.0, 5.0, 1.0],
                [3.0, 5.0, 0.5],
                [4.0, 5.0, nan],
                [nan, 5.0, 2.0],
            ]
        )
        model = imputers.fit(imputers.CHAINED_KIND, train)
        assert np.array_equal(model.coefs[:, 1], np.zeros(3))
        out = model.fill(np.array([nan, nan, nan]))
        assert out[1] == pytest.approx(5.0, abs=1e-12)
        assert np.isfinite(out).all()

    def test_reports_sweeps(self, rng):
        complete = random_blockwise(rng, masks=())
        model = imputers.fit(imputers.CHAINED_KIND, complete)
        assert model.n_sweeps == 1 and model.converged
        train, _ = blockwise_train_and_query(rng)
        model = imputers.fit(imputers.CHAINED_KIND, train)
        assert 1 < model.n_sweeps <= 20 and model.converged

    def test_deterministic(self):
        a = imputers.fit(imputers.CHAINED_KIND, train_matrix())
        b = imputers.fit(imputers.CHAINED_KIND, train_matrix())
        query = np.array([[nan, 3.0, nan], [1.0, nan, 0.0]])
        assert np.array_equal(a.fill(query), b.fill(query))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fill_preserves_observed_and_completes_property(data):
    d = data.draw(st.integers(min_value=1, max_value=4))
    m = data.draw(st.integers(min_value=1, max_value=6))
    cells = st.floats(-100.0, 100.0, allow_nan=False)
    train = np.array(
        data.draw(
            st.lists(st.lists(cells, min_size=d, max_size=d), min_size=2, max_size=6)
        )
    )
    query = np.array(
        data.draw(
            st.lists(
                st.lists(st.one_of(cells, st.none()), min_size=d, max_size=d),
                min_size=m,
                max_size=m,
            )
        ),
        dtype=float,
    )
    model = imputers.fit(imputers.MEAN_KIND, train)
    out = model.fill(query)
    obs = ~np.isnan(query)
    assert np.array_equal(out[obs], query[obs])
    assert np.isfinite(out).all()
