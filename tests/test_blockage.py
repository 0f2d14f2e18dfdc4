"""Blockage models, world sampling, and the tabular input readers."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctproute import rng
from ctproute.blockage import (
    BetaVector,
    BlockageModel,
    CovariateMatrix,
    EdgeState,
    Realization,
    blockage_probabilities,
    expit,
    read_covariates_csv,
    read_probabilities_csv,
    sample_realization,
)
from ctproute.errors import (
    DimensionMismatch,
    ParseError,
    UnknownEdge,
    ValidationError,
)
from helpers import make_network, pinned


class TestBlockageModel:
    def test_probability_lookup(self):
        model = BlockageModel(probabilities={"e": 0.25})
        assert model.probability("e") == 0.25
        with pytest.raises(UnknownEdge):
            model.probability("nope")

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan, math.inf, "high", True])
    def test_bad_probability_rejected(self, p):
        with pytest.raises(ValidationError):
            BlockageModel(probabilities={"e": p})

    def test_validate_for_requires_exact_cover(self):
        net = make_network([("e1", "A", "B", 1.0), ("e2", "B", "C", 1.0)])
        BlockageModel(probabilities={"e1": 0.5, "e2": 0.0}).validate_for(net)
        with pytest.raises(ValidationError, match="without probability"):
            BlockageModel(probabilities={"e1": 0.5}).validate_for(net)
        with pytest.raises(UnknownEdge, match="unknown edges"):
            BlockageModel(
                probabilities={"e1": 0.5, "e2": 0.0, "ghost": 0.1}
            ).validate_for(net)


class TestCovariateMatrix:
    def test_valid_matrix(self):
        Z = CovariateMatrix(
            values=[[1.0, 0.5], [1.0, -2.0]],
            columns=("intercept", "grade"),
            edge_ids=("e1", "e2"),
        )
        assert Z.n == 2 and Z.k == 2
        assert Z.values.dtype == float

    def test_rejects_bad_shapes_and_names(self):
        with pytest.raises(DimensionMismatch):
            CovariateMatrix(values=[1.0, 2.0], columns=("c",), edge_ids=("e",))
        with pytest.raises(DimensionMismatch, match="column names"):
            CovariateMatrix(values=[[1.0, 2.0]], columns=("c",), edge_ids=("e",))
        with pytest.raises(DimensionMismatch, match="edge ids"):
            CovariateMatrix(values=[[1.0]], columns=("c",), edge_ids=("e", "f"))
        with pytest.raises(ValidationError, match="duplicate edge id"):
            CovariateMatrix(
                values=[[1.0], [2.0]], columns=("c",), edge_ids=("e", "e")
            )
        with pytest.raises(ValidationError, match="finite"):
            CovariateMatrix(values=[[math.nan]], columns=("c",), edge_ids=("e",))
        with pytest.raises(ValidationError, match="non empty"):
            CovariateMatrix(
                values=np.empty((0, 1)), columns=("c",), edge_ids=()
            )

    def test_beta_vector_validation(self):
        assert BetaVector(values=[1.0, 2.0]).values.tolist() == [1.0, 2.0]
        with pytest.raises(DimensionMismatch):
            BetaVector(values=[[1.0]])
        with pytest.raises(ValidationError):
            BetaVector(values=[math.inf])


class TestLogisticProbabilities:
    def test_matches_hand_expit(self):
        Z = CovariateMatrix(
            values=[[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]],
            columns=("x1", "x2"),
            edge_ids=("e1", "e2", "e3"),
        )
        beta = BetaVector(values=[0.5, -1.0])
        model = blockage_probabilities(Z, beta)
        for edge_id, logit in (("e1", 0.5), ("e2", -2.0), ("e3", -0.5)):
            expected = 1.0 / (1.0 + math.exp(-logit))
            assert model.probability(edge_id) == pytest.approx(
                expected, abs=1e-15
            )
        # equal inputs in distinct arrays give equal models
        twin = CovariateMatrix(
            values=Z.values.copy(), columns=Z.columns, edge_ids=Z.edge_ids
        )
        assert model == blockage_probabilities(twin, BetaVector(beta.values.copy()))

    def test_expit_equals_two_branch_formula_without_warnings(self):
        def two_branch(x):
            with np.errstate(over="ignore", invalid="ignore"):
                return np.where(
                    x >= 0,
                    1.0 / (1.0 + np.exp(-x)),
                    np.exp(x) / (1.0 + np.exp(x)),
                )

        extremes = np.array([0.0, 5e-324, 709.7, 745.2, 1e308, math.inf])
        extremes = np.concatenate([extremes, -extremes])  # -0.0 included
        scales = np.repeat([1.0, 10.0, 100.0, 1000.0], 1000)
        draws = np.random.default_rng(0).standard_normal(scales.size) * scales
        x = np.concatenate([extremes, draws])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(x)
            scalars = [expit(float(v)) for v in extremes]
        want = two_branch(x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        for v, g in zip(extremes, scalars):
            w = two_branch(float(v))
            assert g == w and type(g) is type(w) and np.signbit(g) == np.signbit(w)

    def test_expit_holds_at_most_three_arrays_at_its_peak(self):
        # the pushforward takes expit of a roads x draws matrix, so its
        # temporaries set the elicit subcommand's peak memory
        x = np.random.default_rng(0).standard_normal(100_000)
        tracemalloc.start()
        try:
            expit(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * x.nbytes

    def test_extreme_logits_saturate_cleanly(self):
        Z = CovariateMatrix(
            values=[[1000.0], [-1000.0]], columns=("x",), edge_ids=("hi", "lo")
        )
        model = blockage_probabilities(Z, BetaVector(values=[1.0]))
        assert model.probability("hi") == 1.0
        assert model.probability("lo") == 0.0

    def test_dimension_mismatch_rejected(self):
        Z = CovariateMatrix(values=[[1.0, 2.0]], columns=("a", "b"), edge_ids=("e",))
        with pytest.raises(DimensionMismatch):
            blockage_probabilities(Z, BetaVector(values=[1.0]))


class TestSampling:
    MODEL = BlockageModel(
        probabilities={"e1": 0.5, "e2": 0.25, "e3": 0.0, "e4": 1.0}
    )

    def test_same_inputs_same_world(self):
        a = sample_realization(self.MODEL, seed=42, stream=3)
        b = sample_realization(self.MODEL, seed=42, stream=3)
        assert a.states == b.states

    def test_certain_edges_never_flip(self):
        for stream in range(50):
            world = sample_realization(self.MODEL, seed=1, stream=stream)
            assert world.states["e3"] is EdgeState.OPEN
            assert world.states["e4"] is EdgeState.BLOCKED

    def test_distinct_streams_differ(self):
        model = BlockageModel(probabilities={f"e{i}": 0.5 for i in range(64)})
        a = sample_realization(model, seed=0, stream=0)
        b = sample_realization(model, seed=0, stream=1)
        assert a.states != b.states

    def test_overrides_pin_states_and_share_other_randomness(self):
        for stream in range(20):
            free = sample_realization(self.MODEL, seed=7, stream=stream)
            forced = sample_realization(
                pinned(self.MODEL, {"e1": EdgeState.BLOCKED}), seed=7, stream=stream
            )
            assert forced.states["e1"] is EdgeState.BLOCKED
            for other in ("e2", "e3", "e4"):
                assert forced.states[other] is free.states[other]

    def test_world_is_the_substream_uniforms_below_each_probability(self):
        # the sampling rule written out per edge; a probability equal to
        # its edge's uniform leaves the edge open, and int 0 and 1 are
        # probabilities too
        gen = np.random.default_rng(3)
        for stream in range(40):
            # up to 70 roads, listed out of name order: masks of more
            # than one 64-bit word
            edge_ids = [f"e{i}" for i in gen.permutation(int(gen.integers(1, 70)))]
            probs = {e: float(gen.choice((0.0, 0.2, 0.5, 0.9, 1.0))) for e in edge_ids}
            probs[edge_ids[0]] = int(gen.integers(2))
            uniforms = rng.substream(99, rng.REALIZATIONS, stream).random(len(probs))
            probs[edge_ids[-1]] = float(uniforms[-1])
            overrides = {
                e: (EdgeState.OPEN, EdgeState.BLOCKED)[int(gen.integers(2))]
                for e in edge_ids
                if gen.uniform() < 0.3
            }
            want = {}
            for e, u in zip(probs, uniforms):
                want[e] = EdgeState.BLOCKED if u < probs[e] else EdgeState.OPEN
            want.update(overrides)
            model = BlockageModel(probabilities=probs)
            world = sample_realization(pinned(model, overrides), 99, stream=stream)
            assert list(world.states.items()) == list(want.items())
            assert world.edge_ids == tuple(edge_ids)
            blocked = [s is EdgeState.BLOCKED for s in want.values()]
            assert world.blocked == sum(1 << i for i, b in enumerate(blocked) if b)
            if edge_ids[-1] not in overrides:
                assert world.states[edge_ids[-1]] is EdgeState.OPEN

    def test_a_certain_model_draws_no_uniform(self, monkeypatch):
        # u in [0, 1) blocks a road at 1 and opens one at 0 in every draw,
        # so a model with no uncertain road returns its one world without
        # drawing; the world must be the one the draw would give
        calls = []
        uniforms = rng.uniforms

        def counting(*args):
            calls.append(args)
            return uniforms(*args)

        monkeypatch.setattr(rng, "uniforms", counting)
        gen = np.random.default_rng(5)
        edge_ids = [f"e{i}" for i in gen.permutation(70)]
        probs = {e: float(gen.integers(2)) for e in edge_ids}
        probs[edge_ids[0]] = 1  # an int probability is certain too
        model = BlockageModel(probabilities=probs)
        for stream in range(5):
            drawn = rng.substream(8, rng.REALIZATIONS, stream).random(len(probs))
            want = Realization(states={
                e: EdgeState.BLOCKED if u < p else EdgeState.OPEN
                for (e, p), u in zip(probs.items(), drawn)
            })
            world = sample_realization(model, 8, stream=stream)
            assert world == want and world.edge_ids == tuple(edge_ids)
            assert world.blocked == want.blocked
        assert calls == []
        sample_realization(BlockageModel({**probs, edge_ids[1]: 0.5}), 8, stream=0)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "overrides", [None, {"e2": EdgeState.BLOCKED, "e4": EdgeState.OPEN}]
    )
    def test_sampled_world_equals_a_user_built_one(self, overrides):
        for stream in range(20):
            world = sample_realization(pinned(self.MODEL, overrides), 5, stream=stream)
            built = Realization(states=world.states)
            assert type(world) is Realization
            assert world == built
            assert list(world.states.items()) == list(built.states.items())

    def test_blockage_frequency_tracks_probability(self):
        model = BlockageModel(probabilities={"e": 0.3})
        n = 2000
        blocked = sum(
            sample_realization(model, seed=11, stream=r).states["e"]
            is EdgeState.BLOCKED
            for r in range(n)
        )
        # 4 sigma band around 0.3 for n = 2000
        assert abs(blocked / n - 0.3) < 4 * math.sqrt(0.3 * 0.7 / n)

    def test_realization_rejects_unknown_state(self):
        with pytest.raises(
            ValidationError, match="realization state for 'e' must be open or blocked"
        ):
            Realization(states={"e": "unknown"})

    def test_realization_is_immutable_and_equal_in_any_order(self):
        a = Realization(states={"x": EdgeState.BLOCKED, "y": EdgeState.OPEN})
        b = Realization(states={"y": EdgeState.OPEN, "x": EdgeState.BLOCKED})
        assert a == b and a.edge_ids != b.edge_ids
        assert a != Realization(states={"x": EdgeState.OPEN, "y": EdgeState.OPEN})
        assert a != Realization(states={"x": EdgeState.BLOCKED})
        with pytest.raises(AttributeError):
            a.blocked = 0
        # states is a fresh dict on each read
        a.states["x"] = EdgeState.OPEN
        assert a.states["x"] is EdgeState.BLOCKED


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    stream=st.integers(min_value=0, max_value=2**40),
)
def test_sampling_is_a_pure_function_of_seed_and_stream(seed, stream):
    model = BlockageModel(probabilities={"a": 0.5, "b": 0.123, "c": 0.87})
    first = sample_realization(model, seed, stream=stream)
    second = sample_realization(model, seed, stream=stream)
    assert first.states == second.states


class TestReaders:
    def test_probabilities_csv(self):
        text = "edge_id,p\ne1,0.25\ne2,0\n"
        assert read_probabilities_csv(text) == {"e1": 0.25, "e2": 0.0}

    def test_probabilities_csv_preserves_order(self):
        text = "edge_id,p\nz,0.1\na,0.2\n"
        assert list(read_probabilities_csv(text)) == ["z", "a"]

    def test_probabilities_csv_errors(self):
        with pytest.raises(ParseError, match="header"):
            read_probabilities_csv("edge,p\ne1,0.5\n")
        with pytest.raises(ParseError, match="bad probabilities row"):
            read_probabilities_csv("edge_id,p\ne1,0.5,9\n")
        with pytest.raises(ParseError, match="not a number"):
            read_probabilities_csv("edge_id,p\ne1,often\n")
        with pytest.raises(ValidationError, match="duplicate"):
            read_probabilities_csv("edge_id,p\ne1,0.5\ne1,0.6\n")

    def test_covariates_csv(self):
        text = "edge_id,intercept,grade\ne1,1,0.5\ne2,1,-2\n"
        Z = read_covariates_csv(text)
        assert Z.columns == ("intercept", "grade")
        assert Z.edge_ids == ("e1", "e2")
        assert Z.values.tolist() == [[1.0, 0.5], [1.0, -2.0]]

    def test_covariates_csv_errors(self):
        with pytest.raises(ParseError, match="empty"):
            read_covariates_csv("")
        with pytest.raises(ParseError, match="header"):
            read_covariates_csv("id,x\ne1,1\n")
        with pytest.raises(ParseError, match="header"):
            read_covariates_csv("edge_id\ne1\n")
        with pytest.raises(ParseError, match="fields"):
            read_covariates_csv("edge_id,x\ne1,1,2\n")
        with pytest.raises(ParseError, match="non numeric"):
            read_covariates_csv("edge_id,x\ne1,soft\n")
