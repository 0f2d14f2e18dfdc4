"""Expert probabilities to a coefficient prior: transforms, OLS, mixing."""

from __future__ import annotations

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctproute import elicit
from ctproute.blockage import CovariateMatrix, expit, read_probabilities_csv
from ctproute.elicit import (
    BetaPrior,
    BetaSample,
    LogitVector,
    expert_csv_form,
    fit_prior,
    inverse_logit,
    logit,
    logits_from_probabilities,
    mix_experts,
    mixture_moments,
    prior_to_jsonable,
    pushforward_probabilities,
    read_expert_draws_csv,
    sample_beta,
)
from ctproute.errors import (
    DimensionMismatch,
    DomainError,
    NotPSD,
    ParseError,
    RankDeficient,
    ValidationError,
)


def matrix(values, columns=None, edges=None):
    values = np.asarray(values, dtype=float)
    n, k = values.shape
    return CovariateMatrix(
        values=values,
        columns=tuple(columns or (f"x{j}" for j in range(k))),
        edge_ids=tuple(edges or (f"e{i}" for i in range(n))),
    )


class TestLogit:
    def test_hand_values(self):
        assert logit(0.5) == 0.0
        assert logit(0.75) == pytest.approx(math.log(3.0), abs=1e-15)
        assert inverse_logit(0.0) == 0.5

    def test_roundtrip(self):
        for p in (0.01, 0.3, 0.5, 0.9, 0.999):
            assert inverse_logit(logit(p)) == pytest.approx(p, rel=1e-12)

    def test_boundaries_clamp(self):
        eps = 1e-6
        assert logit(0.0, eps) == math.log(eps / (1.0 - eps))
        assert logit(1.0, eps) == logit(1.0 - eps, eps)
        assert logit(eps / 2, eps) == logit(0.0, eps)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            logit(-0.01)
        with pytest.raises(DomainError):
            logit(1.01)
        with pytest.raises(DomainError):
            logit(math.nan)
        with pytest.raises(DomainError):
            logit(True)
        with pytest.raises(DomainError):
            logit(0.5, eps=0.0)
        with pytest.raises(DomainError):
            logit(0.5, eps=0.6)

    def test_inverse_logit_saturates_without_overflow(self):
        assert inverse_logit(1000.0) == 1.0
        assert inverse_logit(-1000.0) == 0.0

    def test_vector_transform_reports_clamped_entries(self):
        P, clamped = logits_from_probabilities([0.0, 0.5, 1.0, 1e-9])
        assert clamped == (0, 2, 3)
        assert P.values[1] == 0.0
        assert P.values[0] == logit(0.0)

    @pytest.mark.parametrize("entries", [[True, 0.5], ["0.5"], [None]])
    def test_vector_transform_refuses_what_logit_refuses(self, entries):
        with pytest.raises(DomainError, match="must be a finite number"):
            logit(entries[0])
        with pytest.raises(DomainError, match="must be a finite number"):
            logits_from_probabilities(entries)

    def test_logit_vector_validation(self):
        with pytest.raises(DimensionMismatch):
            LogitVector(values=[[0.0]])
        with pytest.raises(ValidationError):
            LogitVector(values=[math.inf])


class TestFitPrior:
    def test_two_point_hand_example(self):
        # two unit covariate rows with stated log odds 0 and 2:
        # beta_hat = 1, RSS = 2 on 1 degree of freedom, so
        # sigma2 = 2 and covariance = sigma2 / (Z'Z) = 1
        Z = matrix([[1.0], [1.0]])
        prior = fit_prior(Z, LogitVector(values=[0.0, 2.0]))
        assert prior.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert prior.sigma2 == pytest.approx(2.0, abs=1e-12)
        assert prior.covariance[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert prior.degrees_of_freedom == 1
        assert not prior.degenerate

    def test_two_covariate_example_against_normal_equations(self):
        Z = matrix([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        P = LogitVector(values=[-1.0, 0.5, 0.6, 2.1])
        prior = fit_prior(Z, P)
        # solve (Z'Z) beta = Z'P longhand with the 2x2 inverse formula
        ztz = Z.values.T @ Z.values
        ztp = Z.values.T @ P.values
        det = ztz[0, 0] * ztz[1, 1] - ztz[0, 1] * ztz[1, 0]
        inv = (
            np.array([[ztz[1, 1], -ztz[0, 1]], [-ztz[1, 0], ztz[0, 0]]]) / det
        )
        mean = inv @ ztp
        residuals = P.values - Z.values @ mean
        sigma2 = float(residuals @ residuals) / (4 - 2)
        assert prior.mean == pytest.approx(mean, abs=1e-12)
        assert prior.sigma2 == pytest.approx(sigma2, abs=1e-12)
        assert prior.covariance == pytest.approx(inv * sigma2, abs=1e-12)

    def test_noiseless_probabilities_recover_the_coefficients(self):
        gen = np.random.default_rng(10)
        Z = matrix(gen.normal(size=(8, 3)))
        beta = np.array([0.4, -1.2, 0.7])
        P = LogitVector(values=Z.values @ beta)
        prior = fit_prior(Z, P)
        assert prior.mean == pytest.approx(beta, abs=1e-12)
        assert prior.sigma2 <= 1e-18
        assert np.max(np.abs(prior.covariance)) <= 1e-18

    def test_interpolation_is_flagged_degenerate(self):
        Z = matrix([[1.0, 0.0], [0.0, 1.0]])
        prior = fit_prior(Z, LogitVector(values=[3.0, -2.0]))
        assert prior.degenerate
        assert prior.degrees_of_freedom == 0
        assert prior.sigma2 == 0.0
        assert np.all(prior.covariance == 0.0)
        assert prior.mean == pytest.approx([3.0, -2.0], abs=1e-12)

    def test_shape_errors(self):
        Z = matrix([[1.0], [1.0]])
        with pytest.raises(DimensionMismatch):
            fit_prior(Z, LogitVector(values=[1.0, 2.0, 3.0]))
        with pytest.raises(ValidationError, match="at least as many"):
            fit_prior(matrix([[1.0, 2.0]]), LogitVector(values=[1.0]))

    def test_duplicate_column_names_both_offenders(self):
        Z = matrix(
            [[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [3.0, 3.0, 5.0]],
            columns=("load", "load_copy", "grade"),
        )
        with pytest.raises(RankDeficient) as excinfo:
            fit_prior(Z, LogitVector(values=[1.0, 2.0, 3.0]))
        assert set(excinfo.value.columns) == {"load", "load_copy"}
        assert "load" in str(excinfo.value)

    def test_linear_combination_names_every_dependent_column(self):
        Z = matrix(
            [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [2.0, 1.0, 3.0]],
            columns=("x1", "x2", "x1_plus_x2"),
        )
        with pytest.raises(RankDeficient) as excinfo:
            fit_prior(Z, LogitVector(values=[1.0, 2.0, 3.0]))
        assert set(excinfo.value.columns) == {"x1", "x2", "x1_plus_x2"}

    def test_zero_single_column_is_rank_deficient(self):
        Z = matrix([[0.0], [0.0]], columns=("flat",))
        with pytest.raises(RankDeficient) as excinfo:
            fit_prior(Z, LogitVector(values=[1.0, 2.0]))
        assert excinfo.value.columns == ("flat",)

    def test_reparameterized_covariates_give_transformed_prior(self):
        gen = np.random.default_rng(3)
        Z = matrix(gen.normal(size=(9, 2)))
        P = LogitVector(values=gen.normal(size=9))
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        ZA = matrix(Z.values @ A)
        base = fit_prior(Z, P)
        repar = fit_prior(ZA, P)
        a_inv = np.linalg.inv(A)
        assert repar.mean == pytest.approx(a_inv @ base.mean, abs=1e-8)
        assert repar.covariance == pytest.approx(
            a_inv @ base.covariance @ a_inv.T, abs=1e-8
        )
        assert repar.sigma2 == pytest.approx(base.sigma2, abs=1e-12)


class TestSampling:
    PRIOR = BetaPrior(
        mean=np.array([1.0, -2.0]),
        covariance=np.array([[0.5, 0.1], [0.1, 0.3]]),
        sigma2=0.2,
        degrees_of_freedom=5,
    )

    def test_reruns_are_identical(self):
        a = sample_beta(self.PRIOR, 100, seed=4)
        b = sample_beta(self.PRIOR, 100, seed=4)
        assert np.array_equal(a.draws, b.draws)

    def test_moments_converge(self):
        sample = sample_beta(self.PRIOR, 40_000, seed=0)
        assert sample.draws.shape == (40_000, 2)
        assert np.mean(sample.draws, axis=0) == pytest.approx(
            self.PRIOR.mean, abs=0.02
        )
        assert np.cov(sample.draws.T) == pytest.approx(
            self.PRIOR.covariance, abs=0.02
        )

    def test_zero_covariance_returns_the_mean_bitwise(self):
        Z = matrix([[1.0, 0.0], [0.0, 1.0]])
        prior = fit_prior(Z, LogitVector(values=[3.0, -2.0]))
        sample = sample_beta(prior, 7, seed=1)
        assert np.all(sample.draws == prior.mean)

    def test_draw_count_must_be_positive(self):
        with pytest.raises(ValidationError):
            sample_beta(self.PRIOR, 0, seed=0)

    def test_indefinite_covariance_rejected(self):
        bad = BetaPrior(
            mean=np.array([0.0]),
            covariance=np.array([[-1.0]]),
            sigma2=1.0,
            degrees_of_freedom=1,
        )
        with pytest.raises(NotPSD, match="eigenvalue"):
            sample_beta(bad, 1, seed=0)

    def test_asymmetric_covariance_rejected(self):
        bad = BetaPrior(
            mean=np.array([0.0, 0.0]),
            covariance=np.array([[1.0, 0.5], [0.0, 1.0]]),
            sigma2=1.0,
            degrees_of_freedom=1,
        )
        with pytest.raises(NotPSD, match="asymmetric"):
            sample_beta(bad, 1, seed=0)

    def test_tiny_negative_eigenvalue_is_clipped_not_rejected(self):
        prior = BetaPrior(
            mean=np.array([2.0]),
            covariance=np.array([[-1e-12]]),
            sigma2=0.0,
            degrees_of_freedom=3,
        )
        sample = sample_beta(prior, 5, seed=0)
        assert np.all(sample.draws == 2.0)

    def test_covariance_shape_must_match_mean(self):
        bad = BetaPrior(
            mean=np.array([0.0, 1.0]),
            covariance=np.array([[1.0]]),
            sigma2=1.0,
            degrees_of_freedom=1,
        )
        with pytest.raises(DimensionMismatch):
            sample_beta(bad, 1, seed=0)


class TestMixing:
    Z = matrix([[1.0], [1.0], [1.0]])
    P1 = LogitVector(values=[0.0, 2.0, 1.0])
    P2 = LogitVector(values=[2.0, 4.0, 3.0])

    def test_pooled_shape_and_determinism(self):
        sample = mix_experts(self.Z, [self.P1, self.P2], 50, seed=9)
        again = mix_experts(self.Z, [self.P1, self.P2], 50, seed=9)
        assert sample.draws.shape == (100, 1)
        assert np.array_equal(sample.draws, again.draws)

    def test_each_expert_draw_has_its_own_stream(self):
        # the first expert's block must not depend on how many experts
        # follow it, so pooled output is order-stable and extensible
        alone = mix_experts(self.Z, [self.P1], 50, seed=9)
        paired = mix_experts(self.Z, [self.P1, self.P2], 50, seed=9)
        assert np.array_equal(paired.draws[:50], alone.draws)

    def test_validation(self):
        with pytest.raises(ValidationError, match="at least one expert"):
            mix_experts(self.Z, [], 10, seed=0)
        with pytest.raises(ValidationError, match="at least one sample"):
            mix_experts(self.Z, [self.P1], 0, seed=0)

    def test_mixture_moments_two_expert_hand_example(self):
        # each expert fits mean 1 resp. 3 with sigma2 = 1 and covariance
        # 1/3; the pooled mean is 2 and the law of total covariance adds
        # the spread of the means: 1/3 + 1 = 4/3
        prior = mixture_moments(self.Z, [self.P1, self.P2])
        assert prior.mean[0] == pytest.approx(2.0, abs=1e-12)
        assert prior.covariance[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert prior.sigma2 == pytest.approx(1.0, abs=1e-12)
        assert prior.degrees_of_freedom == 2
        assert not prior.degenerate

    def test_mixture_moments_single_expert_equals_fit(self):
        direct = fit_prior(self.Z, self.P1)
        mixed = mixture_moments(self.Z, [self.P1])
        assert np.array_equal(mixed.mean, direct.mean)
        assert mixed.covariance == pytest.approx(direct.covariance, abs=1e-15)
        assert mixed.sigma2 == direct.sigma2

    def test_mixture_moments_match_large_pooled_sample(self):
        prior = mixture_moments(self.Z, [self.P1, self.P2])
        sample = mix_experts(self.Z, [self.P1, self.P2], 30_000, seed=2)
        assert np.mean(sample.draws) == pytest.approx(prior.mean[0], abs=0.02)
        assert np.var(sample.draws) == pytest.approx(
            prior.covariance[0, 0], abs=0.03
        )

    def test_degenerate_expert_marks_the_mixture(self):
        Z = matrix([[1.0]])
        prior = mixture_moments(
            Z, [LogitVector(values=[1.0]), LogitVector(values=[2.0])]
        )
        assert prior.degenerate
        assert prior.mean[0] == pytest.approx(1.5, abs=1e-15)


class TestPushforward:
    def test_zero_residual_roundtrip(self):
        gen = np.random.default_rng(5)
        Z = matrix(gen.normal(size=(6, 2)))
        beta = np.array([0.8, -0.5])
        P = LogitVector(values=Z.values @ beta)
        prior = fit_prior(Z, P)
        sample = sample_beta(prior, 200, seed=3)
        summaries = pushforward_probabilities(Z, sample)
        for i, s in enumerate(summaries):
            target = 1.0 / (1.0 + math.exp(-float(Z.values[i] @ beta)))
            assert s.mean == pytest.approx(target, abs=1e-9)
            assert s.q05 == pytest.approx(target, abs=1e-9)
            assert s.q95 == pytest.approx(target, abs=1e-9)

    def test_single_draw_collapses_the_quantiles(self):
        Z = matrix([[1.0], [2.0]])
        sample = BetaSample(draws=np.array([[0.5]]))
        summaries = pushforward_probabilities(Z, sample)
        for s, logit_value in zip(summaries, (0.5, 1.0)):
            expected = 1.0 / (1.0 + math.exp(-logit_value))
            assert s.mean == s.q05 == s.median == s.q95 == pytest.approx(
                expected, abs=1e-15
            )

    def test_edge_ids_follow_the_covariate_rows(self):
        Z = matrix([[1.0], [2.0]], edges=("north", "south"))
        sample = BetaSample(draws=np.array([[0.1]]))
        assert [s.edge_id for s in pushforward_probabilities(Z, sample)] == [
            "north",
            "south",
        ]

    def test_draw_shape_must_match_covariates(self):
        Z = matrix([[1.0, 2.0]])
        sample = BetaSample(draws=np.array([[0.1]]))
        with pytest.raises(DimensionMismatch):
            pushforward_probabilities(Z, sample)
        with pytest.raises(ValidationError, match="at least one draw"):
            pushforward_probabilities(Z, BetaSample(draws=np.empty((0, 2))))

    @pytest.mark.parametrize("block", [1, 5, 64, elicit.PUSHFORWARD_BLOCK])
    def test_blocks_give_the_bits_of_the_whole_table(self, monkeypatch, block):
        # the unblocked formula: expit, quantiles and means over the whole
        # roads x draws table at once; small blocks split the rows unevenly
        monkeypatch.setattr(elicit, "PUSHFORWARD_BLOCK", block)
        gen = np.random.default_rng(block)
        shapes = [(1, 2, 30), (13, 3, 10), (7, 1, 1)]
        shapes += [tuple(map(int, gen.integers(1, (40, 5, 60)))) for _ in range(8)]
        for n, k, m in shapes:
            Z = matrix(gen.normal(size=(n, k)) * 4)
            draws = gen.normal(size=(m, k))
            probs = expit(Z.values @ draws.T)
            q05, q50, q95 = np.quantile(probs, (0.05, 0.5, 0.95), axis=1)
            want = [
                (float(np.mean(row)), float(a), float(b), float(c))
                for row, a, b, c in zip(probs, q05, q50, q95)
            ]
            got = pushforward_probabilities(Z, BetaSample(draws))
            assert [(s.mean, s.q05, s.median, s.q95) for s in got] == want

    def test_a_nan_logit_gives_numpys_nan_quantiles(self, monkeypatch):
        # np.quantile makes every quantile of a row holding a NaN a NaN,
        # where selection alone would give numbers below the NaN. The
        # infinite draw makes road 0's logit inf - inf and the other two
        # roads' logits +inf; the product flags an invalid operation
        Z = matrix([[1.0, 1.0], [1.0, -1.0], [2.0, -0.5]])
        gen = np.random.default_rng(4)
        draws = np.vstack([[np.inf, -np.inf], gen.normal(size=(40, 2))])
        with np.errstate(invalid="ignore"):
            probs = expit(Z.values @ draws.T)
        assert np.isnan(probs[0, 0]) and (probs[1:, 0] == 1.0).all()
        want = np.quantile(probs, (0.05, 0.5, 0.95), axis=1)
        for block in (1, elicit.PUSHFORWARD_BLOCK):
            monkeypatch.setattr(elicit, "PUSHFORWARD_BLOCK", block)
            with np.errstate(invalid="ignore"):
                got = pushforward_probabilities(Z, BetaSample(draws))
            road = got[0]
            for v in (road.mean, road.q05, road.median, road.q95, *want[:, 0]):
                assert math.isnan(v)
            for s, row, a, b, c in zip(got[1:], probs[1:], *want[:, 1:]):
                assert (s.mean, s.q05, s.median, s.q95) == (np.mean(row), a, b, c)

    def test_pushforward_holds_one_table_at_its_peak(self):
        # only the product spans every road and draw; expit, the quantiles
        # and the means see one block of rows at a time
        gen = np.random.default_rng(0)
        Z = matrix(gen.normal(size=(200, 3)))
        draws = gen.normal(size=(2000, 3))
        table = 200 * 2000 * 8
        pushforward_probabilities(Z, BetaSample(draws[:2]))  # warm up numpy
        tracemalloc.start()
        try:
            pushforward_probabilities(Z, BetaSample(draws))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=3000),
    roads=st.integers(min_value=1, max_value=5),
    block=st.sampled_from([1, 7, 64, elicit.PUSHFORWARD_BLOCK]),
    ties=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# 0.95 (n - 1) is a whole number at n = 21, so q95's weight is 0; n = 3
# puts the median's and q95's floors at one index
@example(m=1, roads=2, block=1, ties=False, seed=0)
@example(m=2, roads=3, block=64, ties=True, seed=1)
@example(m=3, roads=4, block=7, ties=False, seed=2)
@example(m=4, roads=2, block=1, ties=True, seed=3)
@example(m=20, roads=5, block=64, ties=False, seed=4)
@example(m=21, roads=5, block=7, ties=True, seed=5)
@example(m=21, roads=3, block=elicit.PUSHFORWARD_BLOCK, ties=False, seed=6)
@example(m=2999, roads=3, block=elicit.PUSHFORWARD_BLOCK, ties=True, seed=7)
def test_pushforward_gives_numpys_quantile_and_mean_bits(m, roads, block, ties, seed):
    # Z is the identity, so the logits are the drawn values exactly; ties
    # draw from a few values, and logits of +-1000 give probabilities of
    # exactly 0 and 1
    gen = np.random.default_rng(seed)
    if ties:
        draws = gen.integers(-2, 3, size=(m, roads)) * 0.75
    else:
        draws = gen.normal(size=(m, roads)) * 3
    draws[gen.random((m, roads)) < 0.1] = 1000.0
    draws[gen.random((m, roads)) < 0.1] = -1000.0
    Z = matrix(np.eye(roads))
    probs = expit(draws.T)
    q05, q50, q95 = np.quantile(probs, (0.05, 0.5, 0.95), axis=1)
    want = [
        (np.mean(row), a, b, c) for row, a, b, c in zip(probs, q05, q50, q95)
    ]
    with mock.patch.object(elicit, "PUSHFORWARD_BLOCK", block):
        got = pushforward_probabilities(Z, BetaSample(draws))
    assert [(s.mean, s.q05, s.median, s.q95) for s in got] == want


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=1e-5, max_value=1.0 - 1e-5),
)
def test_logit_roundtrip_over_the_open_interval(p):
    assert inverse_logit(logit(p)) == pytest.approx(p, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    draws=arrays(
        dtype=float,
        shape=st.tuples(
            st.integers(min_value=1, max_value=12),
            st.just(2),
        ),
        elements=st.floats(min_value=-30, max_value=30),
    )
)
def test_pushforward_quantiles_are_ordered_probabilities(draws):
    Z = matrix([[1.0, 0.5], [-2.0, 1.0], [0.0, 3.0]])
    summaries = pushforward_probabilities(
        Z, BetaSample(draws=draws)
    )
    for s in summaries:
        assert 0.0 <= s.q05 <= s.median <= s.q95 <= 1.0
        assert 0.0 <= s.mean <= 1.0


class TestReaders:
    def test_point_form(self):
        text = "edge_id,p\ne1,0.2\ne2,0.8\n"
        assert read_probabilities_csv(text) == {"e1": 0.2, "e2": 0.8}
        assert expert_csv_form(text) == "point"

    def test_point_form_errors(self):
        with pytest.raises(ParseError, match="header"):
            read_probabilities_csv("edge,p\ne1,0.5\n")
        with pytest.raises(ParseError, match="not a number"):
            read_probabilities_csv("edge_id,p\ne1,maybe\n")
        with pytest.raises(ValidationError, match="duplicate"):
            read_probabilities_csv("edge_id,p\ne1,0.5\ne1,0.7\n")

    def test_draws_form_groups_by_draw_in_file_order(self):
        text = (
            "draw_id,edge_id,p\n"
            "late,e1,0.5\n"
            "early,e1,0.1\n"
            "late,e2,0.6\n"
            "early,e2,0.2\n"
        )
        draws = read_expert_draws_csv(text)
        assert list(draws) == ["late", "early"]
        assert draws["late"] == {"e1": 0.5, "e2": 0.6}
        assert expert_csv_form(text) == "draws"

    def test_draws_form_errors(self):
        with pytest.raises(ParseError, match="header"):
            read_expert_draws_csv("edge_id,p\ne1,0.5\n")
        with pytest.raises(ValidationError, match="duplicate"):
            read_expert_draws_csv(
                "draw_id,edge_id,p\nd1,e1,0.5\nd1,e1,0.6\n"
            )
        with pytest.raises(ValidationError, match="no data"):
            read_expert_draws_csv("draw_id,edge_id,p\n")

    def test_form_detection_rejects_other_headers(self):
        with pytest.raises(ParseError):
            expert_csv_form("edge,chance\ne1,0.5\n")
        with pytest.raises(ParseError):
            expert_csv_form("")


class TestJsonReport:
    def test_prior_serializes_with_row_major_covariance(self):
        Z = matrix([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        prior = fit_prior(Z, LogitVector(values=[0.1, 0.9, 2.3]))
        report = prior_to_jsonable(prior, clamped_edges=("e0",))
        text = json.dumps(report)  # must be plain JSON types
        parsed = json.loads(text)
        assert parsed["mean"] == pytest.approx(list(prior.mean))
        assert parsed["covariance"][0][1] == pytest.approx(
            prior.covariance[0, 1]
        )
        assert parsed["df"] == 1
        assert parsed["clamped_edges"] == ["e0"]
        assert parsed["degenerate_fit"] is False
