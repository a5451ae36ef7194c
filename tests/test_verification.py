"""Tests for acceptance math, both verifiers, traces, and the decode loop."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import expected_accept_length, prefix_reach_probs
from speclab.drafting import propose
from speclab.models import (
    Vocabulary,
    as_distribution,
    make_synthetic_target,
)
from speclab.verification import (
    MODES,
    VERIFIERS,
    DecodeTrace,
    accept_prob,
    decode_loop,
    residual_distribution,
    verify_greedy,
    verify_stochastic,
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

    def test_single_step_marginal_monte_carlo(self):
        vocab = Vocabulary(3)
        p_row = [0.5, 0.3, 0.2]
        q_row = [0.2, 0.3, 0.5]
        target = oracles.model_from_table(1, vocab, {(0,): p_row}, [1 / 3] * 3)
        drafter = oracles.model_from_table(1, vocab, {(0,): q_row}, [1 / 3] * 3)
        rng = np.random.default_rng(2024)
        trials = 200_000
        counts = np.zeros(3)
        for _ in range(trials):
            prop = propose(drafter, [0], 1, vocab.none_feature_id, mode="sample", rng=rng)
            out = verify_stochastic(target, [0], prop, rng)
            counts[out.committed[0]] += 1
        freqs = counts / trials
        sigma = np.sqrt(np.array(p_row) * (1 - np.array(p_row)) / trials)
        assert np.all(np.abs(freqs - p_row) <= 3 * sigma)

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
    from speclab.drafting import DraftProposal

    return DraftProposal(tokens=tuple(tokens), dists=dists)


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


class TestDecodeTrace:
    def test_combine_adds_counts(self):
        target, drafter = _order1_pair(3)
        rng = np.random.default_rng(4)
        traces = []
        for start in (0, 1, 2):
            _, tr = decode_loop(
                target, drafter, [start], 20, 3, mode="independent", verify="stochastic", rng=rng
            )
            traces.append(tr)
        merged = DecodeTrace.combine(traces)
        assert merged.steps == sum(t.steps for t in traces)
        assert merged.total_tokens == sum(t.total_tokens for t in traces)
        np.testing.assert_array_equal(
            merged.position_attempts, sum(t.position_attempts for t in traces)
        )

    def test_json_schema(self):
        target, drafter = _order1_pair(5)
        _, tr = decode_loop(
            target, drafter, [0], 10, 3, mode="independent", verify="stochastic",
            rng=np.random.default_rng(0),
        )
        data = tr.to_json_dict()
        assert set(data) == {
            "steps", "tau", "committed_per_step", "position_stats",
            "confidence_bins", "total_tokens",
        }
        assert len(data["position_stats"]) == 3
        assert len(data["confidence_bins"]) == 10
        assert set(data["position_stats"][0]) == {"k", "attempts", "accepts"}
        assert set(data["confidence_bins"][0]) == {"lo", "hi", "attempts", "accepts"}


class TestDecodeLoop:
    def test_perfect_constant_drafter(self):
        model = oracles.constant_model(4, 2, token=3)
        out, trace = decode_loop(
            model, model, [3, 3], 30, 5, mode="independent", verify="greedy"
        )
        assert out == [3] * 30
        assert all(acc == 5 for acc in trace.accepted_per_step)
        assert trace.tau == 5.0

    def test_truncation_bound(self):
        target, drafter = _order1_pair(9)
        rng = np.random.default_rng(10)
        out, trace = decode_loop(
            target, drafter, [0], 25, 4, mode="independent", verify="stochastic", rng=rng
        )
        assert len(out) == 25
        assert trace.total_tokens >= 25
        assert trace.total_tokens - 25 < 4 + 1

    def test_token_accounting(self):
        target, drafter = _order1_pair(11)
        rng = np.random.default_rng(12)
        _, trace = decode_loop(
            target, drafter, [1], 40, 3, mode="independent", verify="stochastic", rng=rng
        )
        assert trace.total_tokens == sum(trace.accepted_per_step) + trace.steps

    def test_attempts_nonincreasing(self):
        target, drafter = _order1_pair(15)
        rng = np.random.default_rng(16)
        _, trace = decode_loop(
            target, drafter, [2], 60, 5, mode="independent", verify="stochastic", rng=rng
        )
        attempts = trace.position_attempts
        assert all(attempts[k] >= attempts[k + 1] for k in range(len(attempts) - 1))

    def test_dependent_mode_runs_and_differs_by_feature_slot(self):
        target = make_synthetic_target(8, vocab_size=4, order=2, concentration=0.3)
        rng = np.random.default_rng(19)
        out, trace = decode_loop(
            target, target, [0, 1], 15, 3, mode="dependent", verify="stochastic", rng=rng
        )
        assert len(out) == 15
        assert trace.steps > 0

    def test_empty_prompt_rejected(self):
        target, drafter = _order1_pair(20)
        with pytest.raises(ValueError, match="prompt"):
            decode_loop(target, drafter, [], 10, 2, mode="independent", verify="greedy")

    def test_vocab_mismatch_rejected(self):
        target, _ = _order1_pair(21, vocab_size=4)
        other, _ = _order1_pair(22, vocab_size=5)
        with pytest.raises(ValueError, match="vocabulary"):
            decode_loop(target, other, [0], 10, 2, mode="independent", verify="greedy")

    def test_non_real_prompt_token_rejected_at_entry(self):
        # The bad token lies far outside the last max(d_target, d_drafter)
        # tokens the loop carries, so only the entry check can see it.
        target, drafter = _order1_pair(24)
        prompt = [target.vocab.mask_id] + [0] * 8
        with pytest.raises(ValueError, match="real tokens"):
            decode_loop(target, drafter, prompt, 5, 2, mode="independent", verify="greedy")

    def test_bad_mode_and_verifier_rejected(self):
        target, drafter = _order1_pair(23)
        with pytest.raises(ValueError, match="mode"):
            decode_loop(target, drafter, [0], 5, 2, mode="dual", verify="greedy")
        with pytest.raises(ValueError, match="verify"):
            decode_loop(target, drafter, [0], 5, 2, mode="independent", verify="exact")


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

        got = decode_loop(target, drafter, prompt, max_tokens, k, mode=mode, verify=verify,
                          rng=np.random.default_rng([seed, 1]))
        want = oracles.decode_loop_full_prefix(
            target, drafter, prompt, max_tokens, k, mode=mode, verify=verify,
            rng=np.random.default_rng([seed, 1]))
        assert got[0] == want[0]
        assert got[1].accepted_per_step == want[1].accepted_per_step
        assert got[1].to_json_dict() == want[1].to_json_dict()
