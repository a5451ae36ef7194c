"""Tests for acceptance math, both verifiers, traces, and the decode loop."""

import contextlib
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    accept_prob,
    expected_accept_length,
    prefix_reach_probs,
    propose,
    residual_distribution,
    verify_greedy,
    verify_stochastic,
)
from speclab.models import (
    GREEDY,
    TabularModel,
    Vocabulary,
    as_distribution,
    make_synthetic_target,
)
from speclab.training import TrainConfig, sample_corpus
from speclab import models, training, verification
from speclab.bench import BenchReport, run_bench, sample_prompts
from speclab.drafting import masked_contexts
from speclab.verification import (
    MODES,
    VERIFIERS,
    DecodeTrace,
    _round_counts,
    _walk,
    decode_loop,
)


class TestAcceptProb:
    def test_plain_ratio(self):
        p = as_distribution([0.6, 0.4], 2)
        q = as_distribution([0.8, 0.2], 2)
        assert accept_prob(p, q, 0) == pytest.approx(0.75, abs=1e-15)

    def test_identical_distributions_always_accept(self):
        p = as_distribution([0.25, 0.5, 0.25], 3)
        for tok in range(3):
            assert accept_prob(p, p, tok) == 1.0

    def test_ratio_clamped_at_one(self):
        p = as_distribution([0.9, 0.1], 2)
        q = as_distribution([0.3, 0.7], 2)
        assert accept_prob(p, q, 0) == 1.0

    def test_zero_drafter_mass_rejected(self):
        p = as_distribution([0.5, 0.5], 2)
        q = as_distribution([1.0, 0.0], 2)
        with pytest.raises(ValueError, match="impossible token"):
            accept_prob(p, q, 1)


class TestResidualDistribution:
    def test_single_positive_coordinate(self):
        p = as_distribution([0.5, 0.3, 0.2], 3)
        q = as_distribution([0.2, 0.3, 0.5], 3)
        np.testing.assert_allclose(residual_distribution(p, q), [1.0, 0.0, 0.0])

    def test_two_coordinate_case(self):
        p = as_distribution([0.6, 0.4], 2)
        q = as_distribution([0.2, 0.8], 2)
        np.testing.assert_allclose(residual_distribution(p, q), [1.0, 0.0])

    def test_hand_normalization(self):
        p = as_distribution([0.5, 0.3, 0.2], 3)
        q = as_distribution([0.3, 0.5, 0.2], 3)
        np.testing.assert_allclose(residual_distribution(p, q), [1.0, 0.0, 0.0])

    def test_identical_distributions_rejected(self):
        p = as_distribution([0.5, 0.5], 2)
        with pytest.raises(ValueError, match="no residual"):
            residual_distribution(p, p)


def _order1_pair(seed=0, vocab_size=4):
    rng = np.random.default_rng(seed)
    return oracles.random_order1_model(vocab_size, rng), oracles.random_order1_model(
        vocab_size, rng
    )


class TestVerifyStochastic:
    def test_matching_proposal_distributions_accept_everything(self):
        # q_k = p_k at every position forces a_k = 1 for all rng draws. The
        # constant model satisfies this even through its mask contexts.
        model = oracles.constant_model(3, 1, token=2)
        rng = np.random.default_rng(2)
        for _ in range(50):
            prop = propose(model, [2], 4, model.vocab.none_feature_id, mode="sample", rng=rng)
            out = verify_stochastic(model, [2], prop, rng)
            assert out.accepted_len == 4
            assert out.committed == (2, 2, 2, 2, 2)

    def test_drafter_equal_target_always_accepts_first_position(self):
        # At k = 0 the drafter context equals the target context, so q_0 = p_0.
        target, _ = _order1_pair(1)
        rng = np.random.default_rng(2)
        for _ in range(50):
            prop = propose(target, [0, 1], 1, target.vocab.none_feature_id, mode="sample", rng=rng)
            out = verify_stochastic(target, [0, 1], prop, rng)
            assert out.accepted_len == 1

    def test_single_step_marginal_matches_target_exactly(self):
        # One-token proposal: enumerated committed-token marginal equals the
        # target conditional coordinatewise (the lossless identity).
        target, drafter = _order1_pair(7, vocab_size=5)
        dist = oracles.decode_sequence_distribution(target, drafter, (2,), 1, 1)
        expected = oracles.ar_sequence_distribution(target, (2,), 1)
        for seq, prob in expected.items():
            assert abs(dist.get(seq, 0.0) - prob) <= 1e-12

    def test_guaranteed_acceptance_when_target_dominates(self):
        # q >= p everywhere except one token: that token's ratio clamps to 1.
        vocab = Vocabulary(3)
        target = oracles.model_from_table(1, vocab, {(0,): [0.6, 0.2, 0.2]}, [1 / 3] * 3)
        drafter = oracles.model_from_table(1, vocab, {(0,): [0.2, 0.4, 0.4]}, [1 / 3] * 3)
        rng = np.random.default_rng(5)
        for _ in range(100):
            prop = propose(drafter, [0], 1, vocab.none_feature_id, mode="sample", rng=rng)
            out = verify_stochastic(target, [0], prop, rng)
            if prop.tokens[0] == 0:
                assert out.per_position[0].accept_prob == 1.0
                assert out.accepted_len == 1

    def test_accepted_flags_form_contiguous_prefix(self):
        target, drafter = _order1_pair(13, vocab_size=4)
        rng = np.random.default_rng(17)
        for _ in range(200):
            prop = propose(drafter, [1], 4, target.vocab.none_feature_id, mode="sample", rng=rng)
            out = verify_stochastic(target, [1], prop, rng)
            flags = [r.accepted for r in out.per_position]
            assert flags == sorted(flags, reverse=True)
            assert len(out.committed) == out.accepted_len + 1
            assert sum(flags) == out.accepted_len


def _greedy_target():
    # Deterministic continuation 0 -> 1 -> 2 -> 3 -> 0 ... at order 1.
    vocab = Vocabulary(4)
    eye = np.eye(4)
    table = {(t,): eye[(t + 1) % 4] for t in range(4)}
    return oracles.model_from_table(1, vocab, table, np.full(4, 0.25))


def _fixed_proposal(tokens, vocab_size=4):
    dists = tuple(as_distribution(np.full(vocab_size, 1.0 / vocab_size), vocab_size) for _ in tokens)
    return oracles.DraftProposal(tokens=tuple(tokens), dists=dists)


class TestLosslessOverSparseTables:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), vocab_size=st.sampled_from([3, 4]),
           draft_len=st.sampled_from([1, 2, 3]), data=st.data())
    def test_enumerated_decode_equals_autoregressive(self, seed, vocab_size, draft_len, data):
        # Zero entries on either side, and rows where p = q, must not bend
        # the committed-sequence distribution away from the target's.
        target, drafter = oracles.sparse_order1_pair(vocab_size, np.random.default_rng(seed))
        prefix = (data.draw(st.integers(0, vocab_size - 1), label="prefix"),)
        horizon = draft_len + 1
        actual = oracles.decode_sequence_distribution(target, drafter, prefix, draft_len,
                                                      horizon)
        expected = oracles.ar_sequence_distribution(target, prefix, horizon)
        assert abs(sum(actual.values()) - 1.0) <= 1e-10
        for seq, prob in expected.items():
            assert abs(actual.get(seq, 0.0) - prob) <= 1e-10
        for seq, prob in actual.items():
            assert seq in expected or prob <= 1e-10

class TestVerifyGreedy:
    def test_longest_common_prefix(self):
        target = _greedy_target()
        out = verify_greedy(target, [0], _fixed_proposal([1, 2, 0]))
        assert out.accepted_len == 2
        assert out.committed == (1, 2, 3)

    def test_full_acceptance_commits_bonus(self):
        target = _greedy_target()
        out = verify_greedy(target, [0], _fixed_proposal([1, 2, 3]))
        assert out.accepted_len == 3
        assert out.committed == (1, 2, 3, 0)

    def test_first_token_mismatch(self):
        target = _greedy_target()
        out = verify_greedy(target, [0], _fixed_proposal([3, 1, 2]))
        assert out.accepted_len == 0
        assert out.committed == (1,)


class TestExpectedAcceptLength:
    def test_all_accept(self):
        assert expected_accept_length([1.0, 1.0, 1.0, 1.0]) == 4.0

    def test_geometric_halving(self):
        assert expected_accept_length([0.5] * 4) == 0.9375

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(31)
        a = rng.random(8)
        lengths = oracles.simulate_accept_lengths(a, 200_000, np.random.default_rng(77))
        se = lengths.std(ddof=1) / np.sqrt(lengths.size)
        assert abs(lengths.mean() - expected_accept_length(a)) <= 3 * se

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            expected_accept_length([0.5, 1.2])


class TestPrefixReachProbs:
    def test_cumulative_product(self):
        assert prefix_reach_probs([0.8, 0.5, 1.0]) == [1.0, 0.8, 0.4]

    def test_rejection_absorbs(self):
        reach = prefix_reach_probs([0.9, 0.0, 0.7, 0.3])
        assert reach[2:] == [0.0, 0.0]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_identity_with_expected_length(self, a):
        reach = prefix_reach_probs(a)
        total = sum(s * x for s, x in zip(reach, a))
        assert abs(total - expected_accept_length(a)) <= 1e-12


class TestInverseCdfDraw:
    """A draw is the first CDF entry above u times the CDF's own total: the
    kernels find it by ``argmax`` over a comparison and
    ``oracles.sample_token`` by ``searchsorted``, and the two agree."""

    @settings(max_examples=300, deadline=None)
    @given(
        row=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=20)
        .filter(lambda row: sum(row) > 0.0),
        scale=st.sampled_from([1.0 - 2**-52, 1.0 - 2**-53, 1.0, 1.0 + 2**-52, 1.0 + 1e-9]),
        u=st.one_of(st.just(0.0), st.just(1.0 - 2**-53), st.floats(0.0, 1.0, exclude_max=True)),
    )
    def test_searchsorted_equals_first_entry_above(self, row, scale, u):
        # Rows with zero entries, normalized to a total that rounding leaves
        # a little under or over 1.
        row = np.array(row)
        cdf = np.cumsum(row / row.sum() * scale)
        x = u * cdf[-1]
        token = int(np.searchsorted(cdf, x, side="right"))
        assert token == int((cdf > x).argmax())
        assert row[token] > 0.0


class TestDecodeTrace:
    def test_counts_follow_from_the_histogram(self):
        # Two rounds at K = 3: one accepts 1 draft (attempts 0, 1), one all 3.
        trace = DecodeTrace(draft_len=3)
        trace.record(np.array([1, 3]), np.array([[0.95, 0.05, 0.5], [0.3, 0.3, 0.61]]))
        assert trace.accept_hist.tolist() == [0, 1, 0, 1]
        assert (trace.steps, trace.total_tokens, trace.tau) == (2, 6, 2.0)
        assert trace.position_attempts.tolist() == [2, 2, 1]
        assert trace.position_accepts.tolist() == [2, 1, 1]
        assert trace.bin_attempts.tolist() == [1, 0, 0, 2, 0, 0, 1, 0, 0, 1]
        assert trace.bin_accepts.tolist() == [0, 0, 0, 2, 0, 0, 1, 0, 0, 1]

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 5), data=st.data())
    def test_record_with_counts_equals_repeated_rows(self, k, data):
        rows = data.draw(st.lists(st.tuples(st.integers(0, k),
                                            st.lists(st.floats(0, 1), min_size=k, max_size=k),
                                            st.integers(0, 4)), max_size=6))
        accepted = np.array([a for a, _, _ in rows], dtype=np.intp)
        probs = np.array([p for _, p, _ in rows]).reshape(len(rows), k)
        counts = np.array([c for _, _, c in rows], dtype=np.int64)
        counted, repeated = DecodeTrace(draft_len=k), DecodeTrace(draft_len=k)
        counted.record(accepted, probs, counts)
        repeated.record(np.repeat(accepted, counts), np.repeat(probs, counts, axis=0))
        for name in ("accept_hist", "bin_attempts", "bin_accepts"):
            assert getattr(counted, name).tolist() == getattr(repeated, name).tolist()

    def test_record_counts_sum_exactly(self):
        # 2**53 + 1 is not a float64: float weights would lose the 1.
        trace = DecodeTrace(draft_len=2)
        trace.record(np.array([1, 1]), np.array([[0.5, 0.5], [0.5, 0.5]]),
                     np.array([2**53, 1]))
        assert trace.accept_hist.tolist() == [0, 2**53 + 1, 0]
        assert trace.bin_attempts[5] == 2 * (2**53 + 1)
        assert trace.bin_accepts[5] == 2**53 + 1

    @pytest.mark.parametrize("draft_len", [2.5, "3", None])
    def test_non_integer_draft_len_rejected(self, draft_len):
        with pytest.raises(ValueError, match=r"^draft_len must be an integer, got "):
            DecodeTrace(draft_len=draft_len)

    def test_integer_draft_len_of_any_type(self):
        trace = DecodeTrace(draft_len=np.int64(3))
        assert type(trace.draft_len) is int and trace.accept_hist.tolist() == [0] * 4
        # Every checked integer setting keeps the int that checked_int returns.
        assert type(Vocabulary(True).size) is int and type(Vocabulary(np.int64(4)).size) is int
        config = TrainConfig(draft_len=np.int64(4), drafter_order=True, seed=np.int64(3))
        assert [type(v) for v in (config.draft_len, config.drafter_order, config.seed)] == [int] * 3
        assert (config.draft_len, config.drafter_order, config.seed) == (4, 1, 3)

    def test_trace_keeps_counts_only(self):
        # The bench report owns the layout and the derived rates.
        for name in ("to_json_dict", "combine", "committed_per_step"):
            assert not hasattr(DecodeTrace, name)


class TestDecodeLoop:
    def test_perfect_constant_drafter(self):
        model = oracles.constant_model(4, 2, token=3)
        out, trace = decode_loop(
            model, model, [[3, 3]], 30, 5, mode="independent", verify="greedy"
        )
        assert out.tolist() == [[3] * 30]
        assert trace.accept_hist[:5].sum() == 0 and trace.accept_hist[5] == trace.steps
        assert trace.tau == 5.0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("verify", VERIFIERS)
    def test_one_trace_record_per_call(self, verify, mode):
        # The target always emits 0 and the drafter always proposes 1, so
        # every round rejects at position 0. Greedy: 4,096 distinct prompt
        # windows, each a counted node. Stochastic: 256 rounds of 64 prompts
        # at K = 16, 2**18 drafted positions.
        target, drafter = oracles.constant_model(4, 1, 0), oracles.constant_model(4, 6, 1)
        if verify == "greedy":
            prompts, max_tokens = list(itertools.product(range(4), repeat=6)), 1
        else:
            prompts, max_tokens = [[i % 4] * 6 for i in range(64)], 256
        with mock.patch.object(DecodeTrace, "record", autospec=True,
                               side_effect=DecodeTrace.record) as record:
            tokens, trace = decode_loop(target, drafter, prompts, max_tokens, 16, mode, verify,
                                        seed=7)
        assert record.call_count == 1
        assert (tokens == 0).all()
        assert trace.accept_hist[0] == trace.steps == len(prompts) * max_tokens

    def test_truncation_bound(self):
        target, drafter = _order1_pair(9)
        out, trace = decode_loop(
            target, drafter, [[0]], 25, 4, mode="independent", verify="stochastic", seed=10
        )
        assert out.shape == (1, 25)
        assert trace.total_tokens >= 25
        assert trace.total_tokens - 25 < 4 + 1

    def test_token_accounting(self):
        target, drafter = _order1_pair(11)
        _, trace = decode_loop(
            target, drafter, [[1]], 40, 3, mode="independent", verify="stochastic", seed=12
        )
        _, outcomes = oracles.decode_loop(
            target, drafter, [1], 40, 3, mode="independent", verify="stochastic",
            rng=np.random.default_rng([12, 0, 1]),
        )
        assert trace.total_tokens == sum(len(o.committed) for o in outcomes)
        assert trace.steps == len(outcomes)

    def test_attempts_nonincreasing(self):
        target, drafter = _order1_pair(15)
        _, trace = decode_loop(
            target, drafter, [[2]], 60, 5, mode="independent", verify="stochastic", seed=16
        )
        attempts = trace.position_attempts
        assert all(attempts[k] >= attempts[k + 1] for k in range(len(attempts) - 1))

    def test_committed_marginal_monte_carlo(self):
        # No context has a row of its own, so every context reads the
        # fallback p and each committed token is an independent draw from p;
        # the one-token drafts from q are often rejected.
        vocab = Vocabulary(3)
        p_row = np.array([0.5, 0.3, 0.2])
        q_row = [0.2, 0.3, 0.5]
        target = TabularModel(1, vocab, [], [], p_row)
        drafter = TabularModel(1, vocab, [], [], q_row)
        prompts, max_tokens = [[0]] * 1000, 200
        tokens, trace = decode_loop(target, drafter, prompts, max_tokens, 1,
                                    mode="independent", verify="stochastic", seed=2024)
        trials = tokens.size
        assert trials == 200_000 and trace.accept_hist[0] > 0
        freqs = np.bincount(tokens.ravel(), minlength=3) / trials
        sigma = np.sqrt(p_row * (1 - p_row) / trials)
        assert np.all(np.abs(freqs - p_row) <= 3 * sigma)

    def test_dependent_mode_runs_and_differs_by_feature_slot(self):
        target = make_synthetic_target(8, vocab_size=4, order=2, concentration=0.3)
        out, trace = decode_loop(
            target, target, [[0, 1]], 15, 3, mode="dependent", verify="stochastic", seed=19
        )
        assert out.shape == (1, 15)
        assert trace.steps > 0

    def test_empty_prompt_rejected(self):
        target, drafter = _order1_pair(20)
        with pytest.raises(ValueError, match="prompt must be nonempty"):
            decode_loop(target, drafter, [[0], []], 10, 2, mode="independent", verify="greedy")

    @pytest.mark.parametrize("prompts, entry", [([3], 0), ([[0, 1], 3], 1)])
    def test_prompt_that_is_not_a_sequence_rejected(self, prompts, entry):
        target, drafter = _order1_pair(20)
        with pytest.raises(ValueError, match=rf"^prompt entry {entry} is not a sequence of "
                                             rf"tokens: 3$"):
            decode_loop(target, drafter, prompts, 10, 2, mode="independent", verify="greedy")

    def test_empty_prompt_list_rejected(self):
        target, drafter = _order1_pair(20)
        with pytest.raises(ValueError, match="prompts must be nonempty"):
            decode_loop(target, drafter, [], 10, 2, mode="independent", verify="greedy")

    @pytest.mark.parametrize("max_tokens, draft_len", [(0, 2), (-3, 2), (5, 0)])
    def test_nonpositive_lengths_rejected(self, max_tokens, draft_len):
        target, drafter = _order1_pair(20)
        name, value = ("max_tokens", max_tokens) if max_tokens < 1 else ("draft_len", draft_len)
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got {value}$"):
            decode_loop(target, drafter, [[0]], max_tokens, draft_len, mode="independent",
                        verify="greedy")

    @pytest.mark.parametrize("verify", VERIFIERS)
    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"), (2.0, "seed must be an integer, got 2.0"),
        ("3", "seed must be an integer, got '3'"), (None, "seed must be an integer, got None"),
    ], ids=["-1", "2.0", "3", "None"])
    def test_negative_or_non_integer_seed_rejected(self, seed, message, verify):
        target, drafter = _order1_pair(20)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            decode_loop(target, drafter, [[0], [1]], 5, 2, mode="independent", verify=verify,
                        seed=seed)

    @pytest.mark.parametrize("name, max_tokens, draft_len",
                             [("max_tokens", 5.0, 2), ("max_tokens", "5", 2),
                              ("draft_len", 5, 2.5), ("draft_len", 5, None)])
    def test_non_integer_lengths_rejected(self, name, max_tokens, draft_len):
        target, drafter = _order1_pair(20)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            decode_loop(target, drafter, [[0]], max_tokens, draft_len, mode="independent",
                        verify="greedy")

    @pytest.mark.parametrize("call, name", [
        (lambda t: sample_prompts(t, 2.5, 4, 0), "num_prompts"),
        (lambda t: sample_prompts(t, 2, 4.0, 0), "prompt_len"),
        (lambda t: make_synthetic_target(0, 4.0, 1, 0.5), "vocab_size"),
        (lambda t: make_synthetic_target(0, 4, 1.5, 0.5), "order"),
        *[(lambda t, order=order: TabularModel(order, Vocabulary(2), [(0, 0)], [[0.5, 0.5]],
                                               [0.5, 0.5]), "model order")
          for order in (2.0, "2", None, 1.5)],
        (lambda t: Vocabulary(4.0), "vocabulary size"),
        (lambda t: TrainConfig(draft_len=2.0), "draft_len"),
        (lambda t: TrainConfig(drafter_order=1.5), "drafter_order"),
        (lambda t: TrainConfig(seed="0"), "seed"),
        (lambda t: sample_corpus(t, 2.0, 4, np.random.default_rng(0)), "num_sequences"),
        (lambda t: sample_corpus(t, 2, None, np.random.default_rng(0)), "sequence_length"),
        (lambda t: DecodeTrace(draft_len=2.0), "draft_len"),
    ])
    def test_non_integer_counts_rejected_at_other_entry_points(self, call, name):
        target, _ = _order1_pair(20)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            call(target)

    @pytest.mark.parametrize("call, message", [
        (lambda t: DecodeTrace(draft_len=0), "draft_len must be >= 1, got 0"),
        (lambda t: sample_prompts(t, 0, 4, 0), "num_prompts must be >= 1, got 0"),
        (lambda t: sample_prompts(t, 2, -1, 0), "prompt_len must be >= 1, got -1"),
    ])
    def test_counts_below_their_bound_rejected_at_other_entry_points(self, call, message):
        target, _ = _order1_pair(20)
        with pytest.raises(ValueError, match=rf"^{message}$"):
            call(target)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"), (2.5, "seed must be an integer, got 2.5"),
        ("3", "seed must be an integer, got '3'"), (None, "seed must be an integer, got None"),
    ], ids=["-1", "2.5", "3", "None"])
    @pytest.mark.parametrize("call", [
        lambda t, seed: make_synthetic_target(seed, 4, 1, 0.5),
        lambda t, seed: sample_prompts(t, 2, 4, seed),
        lambda t, seed: run_bench(t, t, draft_len=2, mode="independent", verify="greedy",
                                  num_prompts=2, prompt_len=3, max_tokens=4, seed=seed),
        lambda t, seed: run_bench(t, t, draft_len=2, mode="independent", verify="greedy",
                                  prompts=[[0, 1]], max_tokens=4, seed=seed),
    ], ids=["make_synthetic_target", "sample_prompts", "run_bench", "run_bench-prompts"])
    def test_bad_seed_rejected_at_other_entry_points_before_any_draw(self, call, seed, message):
        target, _ = _order1_pair(20)
        with mock.patch.object(np.random, "default_rng",
                               side_effect=AssertionError("drew before the seed check")):
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                call(target, seed)

    def test_integer_seeds_of_any_type_make_the_same_target_and_prompts(self):
        class Five:
            def __index__(self):
                return 5

        targets = [make_synthetic_target(seed, 4, 2, 0.5) for seed in (5, np.uint8(5), Five())]
        for other in targets[1:]:
            assert other.rows.tobytes() == targets[0].rows.tobytes()
        prompts = [sample_prompts(targets[0], 3, 6, seed) for seed in (5, np.uint8(5), Five())]
        assert prompts[0] == prompts[1] == prompts[2]

    def test_integer_seeds_of_any_type_draw_the_same_stream(self):
        class Five:
            def __index__(self):
                return 5

        target, drafter = _order1_pair(26)
        got = [decode_loop(target, drafter, [[0], [1]], 20, 2, mode="independent",
                           verify="stochastic", seed=seed)[0].tolist()
               for seed in (5, np.uint8(5), Five())]
        assert got[0] == got[1] == got[2]

    def test_vocab_mismatch_rejected(self):
        target, _ = _order1_pair(21, vocab_size=4)
        other, _ = _order1_pair(22, vocab_size=5)
        with pytest.raises(ValueError, match="vocabulary"):
            decode_loop(target, other, [[0]], 10, 2, mode="independent", verify="greedy")

    def test_non_real_prompt_token_rejected_at_entry(self):
        # The bad token lies far outside the last max(d_target, d_drafter)
        # tokens the loop carries, so only the entry check can see it.
        target, drafter = _order1_pair(24)
        prompt = [target.vocab.mask_id] + [0] * 8
        with pytest.raises(ValueError, match=rf"^prompt token out of range "
                                             rf"\[0, {target.vocab.size}\): "
                                             rf"{target.vocab.mask_id}$"):
            decode_loop(target, drafter, [[1], prompt], 5, 2, mode="independent",
                        verify="greedy")

    @pytest.mark.parametrize("verify", VERIFIERS)
    @pytest.mark.parametrize("bad", [-1, -2**63, 2**63 - 1, 2**63, 2**64, "V"])
    def test_edge_tokens_rejected_at_entry(self, bad, verify):
        # Tokens of int64's two ends, just past them and at V: the range check
        # reads int64 tokens as uint64, so a negative one lands above V. A
        # later bad token is not the one named.
        target, drafter = _order1_pair(27)
        size = target.vocab.size
        bad = size if bad == "V" else bad
        prompts = [[0, size - 1], [size - 1, bad, -2, size]]
        with pytest.raises(ValueError, match=rf"^prompt token out of range \[0, {size}\): "
                                             rf"{re.escape(str(bad))}$"):
            decode_loop(target, drafter, prompts, 5, 2, mode="independent", verify=verify)

    @pytest.mark.parametrize("verify", VERIFIERS)
    def test_edge_real_tokens_decode(self, verify):
        target, drafter = _order1_pair(27)
        top = target.vocab.size - 1
        prompts = [[0], [top], [top, 0, top], np.array([0, top], dtype=np.uint64)]
        _assert_batch_matches_scalar(target, drafter, prompts, 7, 2, "independent", verify, 3)

    @pytest.mark.parametrize("prompt, bad", [([1.7, 2], "1.7"), (["1", 2], "'1'")])
    def test_non_integer_prompt_token_rejected(self, prompt, bad):
        # A float or a string is not a token, even where int() would parse it.
        target, drafter = _order1_pair(25)
        with pytest.raises(ValueError, match=rf"^prompt token is not an integer: "
                                             rf"{re.escape(bad)}$"):
            decode_loop(target, drafter, [prompt], 4, 2, mode="independent",
                        verify="greedy")

    def test_bad_mode_and_verifier_rejected(self):
        target, drafter = _order1_pair(23)
        with pytest.raises(ValueError, match="mode"):
            decode_loop(target, drafter, [[0]], 5, 2, mode="dual", verify="greedy")
        with pytest.raises(ValueError, match="verify"):
            decode_loop(target, drafter, [[0]], 5, 2, mode="independent", verify="exact")


def _random_sparse_model(rng, vocab_size, order):
    """Model over every symbol of the vocabulary: about 70% of the order-d
    contexts stored, every row (fallback included) with some zero entries."""
    vocab = Vocabulary(vocab_size)
    table = {
        ctx: oracles.sparse_row(vocab_size, rng)
        for ctx in itertools.product(range(vocab.num_symbols), repeat=order)
        if rng.random() < 0.7
    }
    return oracles.model_from_table(order, vocab, table,
                        fallback=oracles.sparse_row(vocab_size, rng))


def _random_dense_model(rng, vocab_size, order):
    """Model with a full-support row for every order-d context of the
    vocabulary's symbols, and a full-support fallback."""
    vocab = Vocabulary(vocab_size)
    contexts = list(itertools.product(range(vocab.num_symbols), repeat=order))
    rows = rng.dirichlet(np.ones(vocab_size), size=len(contexts) + 1)
    return oracles.TabularModel(order, vocab, contexts, rows[1:], rows[0])


def _trace_counts(trace):
    return {
        "steps": trace.steps,
        "total_tokens": trace.total_tokens,
        "accept_hist": trace.accept_hist.tolist(),
        "position_attempts": trace.position_attempts.tolist(),
        "position_accepts": trace.position_accepts.tolist(),
        "bin_attempts": trace.bin_attempts.tolist(),
        "bin_accepts": trace.bin_accepts.tolist(),
    }


def _assert_batch_matches_scalar(target, drafter, prompts, max_tokens, k, mode, verify, seed,
                                 loop=oracles.decode_loop):
    """The batch loop against one scalar oracle loop per prompt, prompt i
    drawing from ``default_rng([seed, i, 1])``: tokens, trace counts and tau
    bytes."""
    tokens, trace = decode_loop(target, drafter, prompts, max_tokens, k, mode=mode,
                                verify=verify, seed=seed)
    outcomes = []
    for i, prompt in enumerate(prompts):
        want, rounds = loop(target, drafter, prompt, max_tokens, k, mode=mode, verify=verify,
                            rng=np.random.default_rng([seed, i, 1]))
        assert tokens[i].tolist() == want
        outcomes += rounds
    assert _trace_counts(trace) == oracles.trace_counts(outcomes, k)
    assert trace.tau == float(np.mean([o.accepted_len for o in outcomes]))
    return trace


#: One random decode case: the tables, the orders, K, ragged prompts, the
#: mode, the verifier and the length.
_DECODE_CASE = dict(
    seed=st.integers(0, 2**32 - 1),
    table=st.sampled_from(["dense", "sparse", "sparse order-1 pair"]),
    vocab_size=st.sampled_from([2, 3, 4]),
    target_order=st.integers(1, 3),
    drafter_order=st.integers(1, 3),
    draft_len=st.sampled_from(["1", "d", "d+1", "16"]),
    num_prompts=st.sampled_from([1, 2, 7]),
    mode=st.sampled_from(MODES),
    verify=st.sampled_from(VERIFIERS),
    max_tokens=st.integers(1, 40),
)


def _assert_case_matches_scalar(seed, table, vocab_size, target_order, drafter_order,
                                draft_len, num_prompts, mode, verify, max_tokens):
    rng = np.random.default_rng(seed)
    if table == "sparse order-1 pair":
        vocab_size = max(vocab_size, 3)
        target, drafter = oracles.sparse_order1_pair(vocab_size, rng)
    else:
        make = _random_dense_model if table == "dense" else _random_sparse_model
        target = make(rng, vocab_size, target_order)
        drafter = make(rng, vocab_size, drafter_order)
    d = drafter.order
    k = {"1": 1, "d": d, "d+1": d + 1, "16": 16}[draft_len]
    # Ragged prompts, some shorter than both orders so pads reach both.
    window = max(target.order, d)
    lengths = rng.integers(1, window + k + 3, size=num_prompts)
    lengths[0] = 1
    prompts = [rng.integers(0, vocab_size, size=n).tolist() for n in lengths]
    _assert_batch_matches_scalar(target, drafter, prompts, max_tokens, k, mode, verify, seed)


class TestWalk:
    @pytest.mark.parametrize("nodes", [1, 2, 5, 40])
    def test_equals_repeated_gathers(self, nodes):
        # Every length from 1 to 70 crosses the powers of two, where the
        # doubling gathers stop.
        rng = np.random.default_rng(nodes)
        for length in range(1, 71):
            succ = rng.integers(0, nodes, nodes).astype(np.intp)
            starts = rng.integers(0, nodes, 3)
            want = np.empty((3, length), dtype=np.intp)
            want[:, 0] = starts
            for t in range(1, length):
                want[:, t] = succ[want[:, t - 1]]
            assert _walk(succ, starts, length).tolist() == want.tolist(), length


class TestDecodeLoopMatchesScalarOracle:
    @pytest.mark.parametrize("draft_len", [1, 3])
    def test_greedy_outputs_around_multiples_of_the_round(self, draft_len):
        # Lengths around the multiples of the K + 1 tokens a fully accepted
        # round commits, where a prompt's last round overshoots or not.
        rng = np.random.default_rng(draft_len)
        target = _random_sparse_model(rng, 3, 2)
        drafter = _random_dense_model(rng, 3, 1)
        for max_tokens in range(1, 4 * (draft_len + 1) + 2):
            for mode in MODES:
                _assert_batch_matches_scalar(target, drafter, [[0], [1, 2], [2, 2, 0]],
                                             max_tokens, draft_len, mode, "greedy", 0)


    @settings(max_examples=150, deadline=None)
    @given(**_DECODE_CASE)
    def test_same_tokens_and_trace(
        self, seed, table, vocab_size, target_order, drafter_order, draft_len, num_prompts,
        mode, verify, max_tokens,
    ):
        _assert_case_matches_scalar(seed, table, vocab_size, target_order, drafter_order,
                                    draft_len, num_prompts, mode, verify, max_tokens)

    @settings(max_examples=300, deadline=None)
    @given(**{**_DECODE_CASE, "verify": st.just("greedy")})
    def test_greedy_kernel_over_many_window_graphs(
        self, seed, table, vocab_size, target_order, drafter_order, draft_len, num_prompts,
        mode, verify, max_tokens,
    ):
        # Greedy cases only: each call drafts, scores and records all of its
        # reached windows in one step, over graphs of many shapes.
        _assert_case_matches_scalar(seed, table, vocab_size, target_order, drafter_order,
                                    draft_len, num_prompts, mode, verify, max_tokens)

    @settings(max_examples=50, deadline=None)
    @given(**{**_DECODE_CASE, "verify": st.just("greedy"), "max_tokens": st.integers(1, 600)})
    def test_long_greedy_outputs_skip_round_cycles(
        self, seed, table, vocab_size, target_order, drafter_order, draft_len, num_prompts,
        mode, verify, max_tokens,
    ):
        # Up to 600 tokens over at most 7**3 windows: a prompt's rounds
        # settle into a cycle early and skip it many times.
        _assert_case_matches_scalar(seed, table, vocab_size, target_order, drafter_order,
                                    draft_len, num_prompts, mode, verify, max_tokens)

    @settings(max_examples=50, deadline=None)
    @given(**{**_DECODE_CASE, "verify": st.just("stochastic"),
              "draft_len": st.sampled_from(["d+1", "16"]), "max_tokens": st.integers(1, 200)})
    def test_stochastic_prompts_leave_the_live_set_at_different_rounds(
        self, seed, table, vocab_size, target_order, drafter_order, draft_len, num_prompts,
        mode, verify, max_tokens,
    ):
        # Up to 200 tokens at K = 16 take tens of rounds, so prompts keep
        # reading their uniforms after others have left the live set, and the
        # call's one record joins rounds of different live widths.
        _assert_case_matches_scalar(seed, table, vocab_size, target_order, drafter_order,
                                    draft_len, num_prompts, mode, verify, max_tokens)

    @pytest.mark.parametrize("mode", MODES)
    def test_residual_sum_past_the_pairwise_block(self, mode):
        # V = 130 rows are summed past numpy's 128-element pairwise block.
        rng = np.random.default_rng(130)
        target, drafter = _random_dense_model(rng, 130, 1), _random_dense_model(rng, 130, 1)
        prompts = [[int(t)] for t in rng.integers(0, 130, size=5)]
        trace = _assert_batch_matches_scalar(target, drafter, prompts, 30, 3, mode,
                                             "stochastic", 7)
        assert trace.accept_hist[0] > 0

    def test_greedy_kernel_accepts_every_draft_of_a_self_drafter(self):
        base = make_synthetic_target(5, 3, 1, 0.5)
        model = oracles.mask_closed_self_drafter(base, 6)
        prompts = [[0] * 6, [1] * 6, [2, 1, 0, 2, 1, 0]]
        trace = _assert_batch_matches_scalar(model, model, prompts, 50, 6, "independent",
                                             "greedy", 0)
        assert trace.accept_hist[:6].sum() == 0 and trace.accept_hist[6] == trace.steps

    def test_long_decode_with_a_weak_drafter(self):
        # A weak drafter uses about K + 2 draws per committed token, so 200
        # tokens at K = 16 read far into each prompt's (K + 2) * 200 + K - 1
        # uniforms.
        rng = np.random.default_rng(3)
        target, drafter = _random_dense_model(rng, 4, 2), _random_dense_model(rng, 4, 1)
        for mode in MODES:
            _assert_batch_matches_scalar(target, drafter, [[0, 1], [2], [3, 3, 3]], 200, 16,
                                         mode, "stochastic", 11)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("drafter_order, draft_len", [(1, 16), (3, 2)])
    def test_stochastic_kernel_in_the_benchmark_shape(self, seed, drafter_order, draft_len):
        # decode-stochastic-short's pair: V = 16, a d = 2 target, a CAT
        # drafter trained by the gen/train chain, and 16 prompts of 8 tokens
        # decoded to 64 in dependent mode. At order 1 and K = 16, positions
        # 1-15 read the all-mask row; at order 3 and K = 2 no position does.
        target = make_synthetic_target(seed, 16, 2, 0.3)
        config = training.TrainConfig(draft_len=draft_len, drafter_order=drafter_order,
                                      seed=seed)
        corpus = training.sample_corpus(target, 16, 64, np.random.default_rng([seed, 2]))
        windows = training.build_training_windows(target, corpus, config,
                                                  np.random.default_rng([seed, 3]))
        drafter = training.train_tabular_drafter(windows, config)
        prompts = np.random.default_rng([seed, 7]).integers(0, 16, size=(16, 8)).tolist()
        trace = _assert_batch_matches_scalar(target, drafter, prompts, 64, draft_len,
                                             "dependent", "stochastic", seed)
        assert trace.accept_hist[1:].sum() > 0

    @pytest.mark.parametrize("k", [1, 3, 16])
    @pytest.mark.parametrize("max_tokens", [1, 2, 9, 40])
    def test_always_rejected_drafts_read_every_uniform_drawn(self, k, max_tokens):
        # The drafter always proposes the token the target never emits, so
        # every round rejects at position 0, reads K + 2 uniforms and commits
        # one token: the last round's slice ends at the last of the
        # (K + 2) * max_tokens + K - 1 uniforms each prompt draws.
        vocab = Vocabulary(2)
        contexts = np.arange(vocab.num_symbols)[:, None]
        target, drafter = (TabularModel(1, vocab, contexts, np.tile(row, (len(contexts), 1)), row)
                           for row in (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
        for mode in MODES:
            trace = _assert_batch_matches_scalar(target, drafter, [[0], [1, 0, 1]], max_tokens,
                                                 k, mode, "stochastic", k)
            assert trace.accept_hist[0] == trace.steps == 2 * max_tokens

    @pytest.mark.parametrize("order, code_dtype", [(8, np.int64), (23, object)])
    def test_decoding_above_the_dense_index_cap(self, order, code_dtype):
        # V = 2 has 7 symbols: 7**8 codes are past the dense index and
        # binary-searched as int64, and 7**23 > 2**63 are Python ints.
        target, drafter = _short_history_pair(np.random.default_rng(order), order, 4)
        assert 7**order > models.DENSE_INDEX_MAX
        assert models.code_weights(7, order).dtype == code_dtype
        prompts = [[0], [1, 1], [1, 0, 1], [0, 1] * 15]
        for mode, verify in itertools.product(MODES, VERIFIERS):
            with _stored_row_reads(target) as target_hits, \
                 _stored_row_reads(drafter) as drafter_hits:
                _assert_batch_matches_scalar(target, drafter, prompts, 30, 4, mode, verify,
                                             order)
            # The lookups read stored rows, not only the fallbacks.
            assert any(target_hits) and any(drafter_hits), (mode, verify)


@contextlib.contextmanager
def _stored_row_reads(model):
    """Patch ``model.code_rows`` to note, per call, whether any id it
    returns is a stored row's rather than the fallback's."""
    hits, code_rows = [], model.code_rows

    def noting(codes):
        ids = code_rows(codes)
        hits.append(bool(np.min(ids) < len(model.contexts)))
        return ids

    with mock.patch.object(model, "code_rows", noting):
        yield hits


def _short_history_pair(rng, order, draft_len):
    """Target and drafter over V = 2, both of ``order``, with sparse rows
    for about 70% of the contexts that histories of at most 8 real tokens
    give: the pad-filled histories for the target, and for the drafter
    their masked contexts at draft positions 0..``draft_len``, with and
    without a feature. A fallback sparse row covers the rest."""
    vocab = Vocabulary(2)
    prefixes = np.array([[vocab.pad_id] * (order - n) + list(tail) for n in range(9)
                         for tail in itertools.product(range(2), repeat=n)])
    features = np.array([vocab.none_feature_id, *vocab.feature_ids])
    masked = masked_contexts(np.repeat(prefixes, len(features), axis=0),
                             np.tile(features, len(prefixes)), np.arange(draft_len + 1), vocab,
                             order)
    pair = []
    for contexts in (prefixes, np.unique(masked.reshape(-1, order), axis=0)):
        table = {tuple(c): oracles.sparse_row(2, rng) for c in contexts.tolist()
                 if rng.random() < 0.7}
        pair.append(oracles.model_from_table(order, vocab, table, oracles.sparse_row(2, rng)))
    return tuple(pair)


def _successor_model(successor):
    """Order-1 target whose greedy token after token x is ``successor[x]``,
    and token 0 after the pad. Each row puts half its mass on that token and
    spreads the rest at random, so a wrong target row shows in the trace."""
    vocab = Vocabulary(len(successor))
    rows = np.random.default_rng(len(successor)).dirichlet(np.ones(vocab.size),
                                                           size=vocab.size + 1) / 2
    rows[np.arange(vocab.size), successor] += 0.5
    rows[-1, 0] += 0.5
    return TabularModel(1, vocab, np.arange(vocab.size)[:, None], rows[:-1], rows[-1])


def _reached_windows(target, drafter, prompts, max_tokens, k):
    """Distinct windows before the first ``max_tokens + k`` positions of the
    prompts' greedy streams, read off the scalar oracle's tokens."""
    width = max(target.order, drafter.order)
    reached = set()
    for prompt in prompts:
        stream, _ = oracles.decode_loop(target, drafter, prompt, max_tokens + k, k,
                                        mode="independent", verify="greedy")
        symbols = ([target.vocab.pad_id] * width + list(prompt))[-width:] + stream
        reached |= {tuple(symbols[t : t + width]) for t in range(max_tokens + k)}
    return len(reached)


class TestGreedyWindowGraph:
    """The greedy kernel looks up once each window that the prompts' streams
    reach within the positions their rounds read, however many prompts
    reach it. These targets repeat (or not) at chosen positions. Every
    decode is held to the scalar oracle, and in both modes the target row
    lookups are counted against the windows read off the oracle's streams:
    the dependent mode's feature slot reads no target row of its own."""

    @pytest.fixture(params=["random", "zeros"], ids=lambda kind: f"{kind}-drafter")
    def make_drafter(self, request):
        """Order-1 drafters, so the windows are the target's and the lookups
        do not depend on the drafter: one at random, and one that always
        drafts token 0, so a round accepts only where the stream emits 0."""
        if request.param == "random":
            return lambda size: _random_dense_model(np.random.default_rng(1), size, 1)
        return lambda size: oracles.constant_model(size, 1, 0)

    def _check(self, make_drafter, target, prompts, max_tokens, k, lookups):
        drafter = make_drafter(target.vocab.size)
        assert _reached_windows(target, drafter, prompts, max_tokens, k) == lookups
        for mode in MODES:
            _assert_batch_matches_scalar(target, drafter, prompts, max_tokens, k, mode,
                                         "greedy", 0)
            with mock.patch.object(target, "code_rows", wraps=target.code_rows) as rows:
                decode_loop(target, drafter, prompts, max_tokens, k, mode, "greedy")
            assert rows.call_count == lookups, mode

    def test_fixed_point(self, make_drafter):
        # Period 1 after a tail: two windows at order 1, six at order 2.
        prompts = [[2], [1, 2], [0]]
        self._check(make_drafter, _successor_model([0, 0, 0]), prompts, 200, 3, lookups=2)
        self._check(make_drafter, oracles.constant_model(3, 2, 1), prompts, 200, 3, lookups=6)

    def test_one_cycle_reached_from_two_prompts(self, make_drafter):
        # Period 24: the first prompt walks the cycle, the second stops at
        # its first window.
        self._check(make_drafter, _successor_model((np.arange(24) + 1) % 24), [[5], [0, 23]],
                    300, 4, lookups=24)

    def test_prompts_enter_the_cycle_at_different_windows(self, make_drafter):
        # Tokens climb to 39 and cycle through 30..39: [35] walks the cycle,
        # [12] its tail into it, and [0] the tail up to 12.
        successor = np.append(np.arange(1, 40), 30)
        self._check(make_drafter, _successor_model(successor), [[35], [0], [12]], 300, 2,
                    lookups=40)

    def test_cycle_entered_at_its_first_window(self, make_drafter):
        successor = np.append(np.arange(1, 40), 30)
        self._check(make_drafter, _successor_model(successor), [[14]], 100, 2, lookups=26)

    def test_stream_that_never_repeats(self, make_drafter):
        # Period 100 > the 84 positions read: [0] walks 0..83 and stops
        # there; [50] follows it from 50 and then walks 84..99.
        self._check(make_drafter, _successor_model((np.arange(100) + 1) % 100), [[0], [50]],
                    80, 4, lookups=100)

    def test_walk_resumes_past_an_earlier_prompts_horizon(self, make_drafter):
        # [50] stops at window 34, which [0] reaches 34 positions in, with
        # 50 positions still to read: it looks up 34..49 and follows on.
        self._check(make_drafter, _successor_model((np.arange(100) + 1) % 100),
                    [[50], [0], [25]], 80, 4, lookups=100)

    def test_short_output_of_a_long_cycle(self, make_drafter):
        # Period 100: the walk stops after the 13 positions 10 tokens at
        # K = 3 can read.
        self._check(make_drafter, _successor_model((np.arange(100) + 1) % 100), [[3]], 10, 3,
                    lookups=13)

    def test_order_23_object_codes(self, make_drafter):
        # V = 2 has 7 symbols, and 7**23 > 2**63: the window codes are Python
        # ints. The all-zero context emits 1 and every other (the fallback) 0,
        # so a stream cycles with period 24 once its window is all zeros.
        vocab = Vocabulary(2)
        assert models.code_weights(vocab.num_symbols, 23).dtype == object
        target = oracles.model_from_table(23, vocab, {(0,) * 23: [0.0, 1.0]}, [0.75, 0.25])
        self._check(make_drafter, target, [[1, 0, 1], [0] * 30, [1]], 150, 2, lookups=67)

    @pytest.mark.parametrize("mode", MODES)
    def test_identical_prompts_cost_the_lookups_of_one_prompt(self, mode):
        rng = np.random.default_rng(5)
        target, drafter = _random_dense_model(rng, 4, 2), _random_dense_model(rng, 4, 3)
        calls = []
        for prompts in ([[1, 2, 3]], [[1, 2, 3]] * 7):
            with mock.patch.object(target, "code_rows", wraps=target.code_rows) as rows:
                tokens, trace = decode_loop(target, drafter, prompts, 300, 5, mode, "greedy")
            calls.append(rows.call_count)
            assert (tokens == tokens[0]).all()
        assert calls[0] == calls[1]
        _assert_batch_matches_scalar(target, drafter, [[1, 2, 3]] * 7, 300, 5, mode, "greedy", 0)


class TestGreedyKernelSteps:
    """The greedy kernel's steps: one walk and one round count per distinct
    start window, weighted by its number of prompts, and the output as one
    walk of the target's greedy stream."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab_size=st.sampled_from([2, 3, 4]),
        target_order=st.integers(1, 3),
        drafter_order=st.integers(2, 3),
        draft_len=st.sampled_from(["d-1", "d+1"]),
        num_prompts=st.sampled_from([1, 4, 9]),
        mode=st.sampled_from(MODES),
        max_tokens=st.integers(1, 60),
    )
    def test_batch_trace_sums_one_prompt_traces_by_start_window(
        self, seed, vocab_size, target_order, drafter_order, draft_len, num_prompts, mode,
        max_tokens,
    ):
        rng = np.random.default_rng(seed)
        target = _random_sparse_model(rng, vocab_size, target_order)
        drafter = _random_sparse_model(rng, vocab_size, drafter_order)
        k = {"d-1": drafter_order - 1, "d+1": drafter_order + 1}[draft_len]
        # Three prompts, the first shorter than the window, drawn with
        # repeats (the first prompt at least twice), so some start windows
        # hold several prompts.
        width = max(target_order, drafter_order)
        lengths = rng.integers(1, width + 3, size=3)
        lengths[0] = 1
        distinct = [rng.integers(0, vocab_size, size=n).tolist() for n in lengths]
        prompts = [distinct[0], *(distinct[j] for j in rng.integers(0, 3, size=num_prompts))]
        prompts.append(prompts[0])
        _, trace = decode_loop(target, drafter, prompts, max_tokens, k, mode, GREEDY)

        by_window = {}
        for prompt in prompts:
            window = tuple(([target.vocab.pad_id] * width + prompt)[-width:])
            by_window.setdefault(window, [prompt, 0])[1] += 1
        assert max(count for _, count in by_window.values()) >= 2
        want = dict.fromkeys(["accept_hist", "bin_attempts", "bin_accepts"], 0)
        for prompt, count in by_window.values():
            _, alone = decode_loop(target, drafter, [prompt], max_tokens, k, mode, GREEDY)
            for name in want:
                want[name] = want[name] + count * getattr(alone, name)
        for name, counts in want.items():
            assert getattr(trace, name).tolist() == counts.tolist(), name

    @settings(max_examples=200, deadline=None)
    @given(nodes=st.integers(1, 12), max_tokens=st.integers(1, 80), data=st.data())
    def test_round_counts_weigh_each_start(self, nodes, max_tokens, data):
        def draw(elements, size):
            return data.draw(st.lists(elements, min_size=size, max_size=size))

        advance = np.array(draw(st.integers(1, 5), nodes))
        following = np.array(draw(st.integers(0, nodes - 1), nodes))
        starts = data.draw(st.lists(st.integers(0, nodes - 1), min_size=1, max_size=4))
        weights = draw(st.integers(1, 2**40), len(starts))
        # Each start's rounds, walked one at a time.
        walked = []
        for x in starts:
            counts, s = [0] * nodes, 0
            while s < max_tokens:
                counts[x] += 1
                s, x = s + advance[x], following[x]
            walked.append(counts)
        for x, w, counts in zip(starts, weights, walked):
            assert _round_counts([x], [1], advance, following, max_tokens).tolist() == counts
            assert (_round_counts([x], [w], advance, following, max_tokens).tolist()
                    == [w * c for c in counts])
        got = _round_counts(starts, weights, advance, following, max_tokens)
        assert got.dtype == np.int64
        assert got.tolist() == [sum(w * counts[y] for w, counts in zip(weights, walked))
                                for y in range(nodes)]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_output_of_a_cut_off_walk_joined_by_later_prompts(self, k, mode):
        # No cycle within the 40 + K positions read: [0]'s walk stops at
        # window 40 + K and leaves it unexpanded. [25] joins that walk 25
        # positions in and must walk on past its end, and [0] repeats it; in
        # the second batch [40 + K] starts at the window it left unexpanded.
        target = _successor_model((np.arange(100) + 1) % 100)
        drafter = _random_dense_model(np.random.default_rng(k), 100, 1)
        max_tokens = 40
        for prompts in ([[0], [25], [0]], [[0], [max_tokens + k]]):
            tokens, _ = decode_loop(target, drafter, prompts, max_tokens, k, mode, GREEDY)
            assert tokens.shape == (len(prompts), max_tokens)
            for got, prompt in zip(tokens.tolist(), prompts):
                assert got == oracles.generate_autoregressive(target, prompt, max_tokens, GREEDY)
            _assert_batch_matches_scalar(target, drafter, prompts, max_tokens, k, mode, GREEDY,
                                         0)


class TestDecodeLoopMatchesFullPrefixOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab_size=st.sampled_from([2, 3]),
        target_order=st.integers(1, 3),
        drafter_order=st.integers(1, 3),
        draft_len=st.sampled_from(["1", "d", "d+1", "16"]),
        prompt_len=st.sampled_from(["shorter than d", "d", "longer than the window"]),
        mode=st.sampled_from(MODES),
        verify=st.sampled_from(VERIFIERS),
        max_tokens=st.integers(1, 40),
    )
    def test_same_tokens_and_trace(
        self, seed, vocab_size, target_order, drafter_order, draft_len, prompt_len,
        mode, verify, max_tokens,
    ):
        rng = np.random.default_rng(seed)
        target = _random_sparse_model(rng, vocab_size, target_order)
        drafter = _random_sparse_model(rng, vocab_size, drafter_order)
        d = drafter_order
        k = {"1": 1, "d": d, "d+1": d + 1, "16": 16}[draft_len]
        window = max(target_order, drafter_order)
        n = {"shorter than d": max(1, d - 1), "d": d,
             "longer than the window": window + k + 2}[prompt_len]
        prompt = rng.integers(0, vocab_size, size=n).tolist()
        _assert_batch_matches_scalar(target, drafter, [prompt], max_tokens, k, mode, verify,
                                     seed, loop=oracles.decode_loop_full_prefix)


class TestBenchReadsOnlyTheTrace:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab_size=st.sampled_from([2, 3, 4]),
        target_order=st.integers(1, 3),
        drafter_order=st.integers(2, 3),
        draft_len=st.sampled_from(["d-1", "d+1"]),
        rounds=st.integers(0, 6),
        num_prompts=st.sampled_from([1, 3, 7]),
        mode=st.sampled_from(MODES),
        verify=st.sampled_from(VERIFIERS),
        data=st.data(),
    )
    def test_same_report_as_decode_loops_trace(
        self, seed, vocab_size, target_order, drafter_order, draft_len, rounds, num_prompts,
        mode, verify, data,
    ):
        rng = np.random.default_rng(seed)
        target = _random_sparse_model(rng, vocab_size, target_order)
        drafter = _random_sparse_model(rng, vocab_size, drafter_order)
        d = drafter_order
        k = {"d-1": d - 1, "d+1": d + 1}[draft_len]
        # Never a multiple of the K + 1 tokens a fully accepted round commits.
        max_tokens = rounds * (k + 1) + data.draw(st.integers(1, k), label="past the rounds")
        # The first prompt is shorter than the window, so pads reach it.
        width = max(target_order, drafter_order)
        lengths = rng.integers(1, width + 3, size=num_prompts)
        lengths[0] = 1
        prompts = [rng.integers(0, vocab_size, size=n).tolist() for n in lengths]
        report = run_bench(target, drafter, draft_len=k, mode=mode, verify=verify,
                           prompts=prompts, max_tokens=max_tokens, seed=seed)
        _, trace = decode_loop(target, drafter, prompts, max_tokens, k, mode, verify, seed)
        want = BenchReport(trace=trace, draft_cost=report.draft_cost, config=report.config)
        assert report.to_json_dict() == want.to_json_dict()

    def test_greedy_bench_never_lays_out_the_tokens(self, monkeypatch):
        rng = np.random.default_rng(4)
        target, drafter = _random_sparse_model(rng, 3, 2), _random_sparse_model(rng, 3, 2)

        def refuse(*args):
            raise AssertionError("greedy output expanded")

        monkeypatch.setattr(verification, "_expand_output", refuse)
        for mode in MODES:
            report = run_bench(target, drafter, draft_len=3, mode=mode, verify="greedy",
                               prompts=[[0], [1, 2]], max_tokens=50)
            assert report.trace.total_tokens >= 100
            with pytest.raises(AssertionError, match="greedy output expanded"):
                decode_loop(target, drafter, [[0], [1, 2]], 50, 3, mode, "greedy")

    @pytest.mark.parametrize("mode", MODES)
    def test_greedy_bench_does_not_grow_with_max_tokens(self, mode):
        # The CLI's shape: V = 16, a d = 2 target, 64 prompts of 8 tokens,
        # K = 16. The target drafts for itself, so independent rounds accept.
        target = make_synthetic_target(0, 16, 2, 0.3)
        n, k, max_tokens = 64, 16, 10**12
        kwargs = dict(draft_len=k, mode=mode, verify="greedy", num_prompts=n)
        run_bench(target, target, max_tokens=k, **kwargs)  # the model's cached arrays
        tracemalloc.start()
        try:
            report = run_bench(target, target, max_tokens=max_tokens, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        got = report.to_json_dict()
        assert got["position_stats"][0]["attempts"] == got["steps"]
        assert n * max_tokens <= got["total_tokens"] <= n * (max_tokens + k)
