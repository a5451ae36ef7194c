"""Tests for confidence weighting, window losses, and the closed-form trainer."""

import dataclasses
import math
import re
import typing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    build_ngram_model,
    compute_feature,
    decay_weights,
    masked_context,
    propose,
    target_confidences,
)
from speclab import training
from speclab.drafting import masked_contexts
from speclab.models import (
    Vocabulary,
    make_synthetic_target,
    next_distribution,
    save_model,
)
from speclab.training import (
    TrainConfig,
    build_training_windows,
    cat_weights,
    parse_train_config_file,
    sample_corpus,
    train_tabular_drafter,
    window_losses,
)


def _onehot(v, i):
    arr = np.zeros(v)
    arr[i] = 1.0
    return arr


class TestTargetConfidences:
    def test_deterministic_target_gives_ones(self):
        vocab = Vocabulary(3)
        eye = np.eye(3)
        table = {(t,): eye[(t + 1) % 3] for t in range(3)}
        target = oracles.model_from_table(1, vocab, table, np.full(3, 1 / 3))
        seq = [0, 1, 2, 0, 1]
        assert target_confidences(target, seq, 1, 4) == [1.0] * 4

    def test_matches_per_position_lookup(self):
        target = make_synthetic_target(3, vocab_size=5, order=2, concentration=0.5)
        rng = np.random.default_rng(1)
        seq = list(rng.integers(0, 5, size=12))
        conf = target_confidences(target, seq, 2, 6)
        for k in range(6):
            dist = next_distribution(target, seq[: 2 + k])
            assert conf[k] == float(dist[seq[2 + k]])

    def test_uniform_target(self):
        vocab = Vocabulary(4)
        target = oracles.model_from_table(1, vocab, {}, np.full(4, 0.25))
        assert target_confidences(target, [0, 1, 2, 3], 1, 3) == [0.25] * 3

    def test_window_outside_sequence_rejected(self):
        vocab = Vocabulary(2)
        target = oracles.model_from_table(1, vocab, {}, np.full(2, 0.5))
        with pytest.raises(ValueError):
            target_confidences(target, [0, 1], 1, 3)


class TestCatWeights:
    def test_cumulative_product_example(self):
        _, weights = cat_weights([0.8, 0.5, 1.0])
        assert weights.tolist() == [1.0, 0.8, 0.4]

    def test_all_ones_reduce_to_uniform(self):
        assert cat_weights([1.0] * 5)[1].tolist() == [1.0] * 5

    def test_constant_confidence_equals_decay_exactly(self):
        for c in (0.3, 0.5, 0.8, 1.0):
            assert cat_weights([c] * 6)[1].tolist() == decay_weights(c, 6)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24))
    def test_recursion_is_exact(self, conf):
        clamped, weights = cat_weights(conf)
        assert weights[0] == 1.0
        for k in range(len(conf) - 1):
            assert weights[k + 1] == weights[k] * clamped[k]
        assert all(b <= a for a, b in zip(weights, weights[1:]))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), min_size=1,
                    max_size=5))
    def test_rows_match_the_scalar_recursion(self, rows):
        # The last axis is K; every row is the oracle's recursion, bit for bit.
        clamped, weights = cat_weights(rows)
        for i, conf in enumerate(rows):
            expected_clamped, expected_weights = oracles.scalar_cat_weights(conf)
            assert tuple(clamped[i].tolist()) == expected_clamped
            assert tuple(weights[i].tolist()) == expected_weights

    def test_zero_confidence_is_clamped(self):
        clamped, weights = cat_weights([0.0, 0.5])
        assert clamped[0] == 1e-12
        assert weights[1] == 1e-12

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValueError):
            cat_weights([0.5, 1.2])


class TestDecayWeights:
    def test_gamma_one_uniform(self):
        assert decay_weights(1.0, 4) == [1.0, 1.0, 1.0, 1.0]

    def test_geometric(self):
        assert decay_weights(0.8, 3) == [1.0, 0.8, 0.8 * 0.8]

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            decay_weights(0.0, 3)
        with pytest.raises(ValueError):
            decay_weights(1.2, 3)


def _window(vocab_size, prefix_ctx, future, dists, weights, feature_symbol=None):
    """Hand-built window record; ``weights`` is a (confidences, weights) pair."""
    vocab = Vocabulary(vocab_size)
    feature = feature_symbol if feature_symbol is not None else vocab.none_feature_id
    confidences, weights = (tuple(np.asarray(a, dtype=float).tolist()) for a in weights)
    return oracles.Window(
        prefix_context=tuple(prefix_ctx),
        future_tokens=tuple(future),
        target_dists=tuple(np.asarray(d, dtype=float) for d in dists),
        feature=feature,
        confidences=confidences,
        weights=weights,
    )


def _loss(drafter, window, config):
    """The loss of one hand-built window."""
    return float(window_losses(drafter, oracles.stack_windows([window]), config)[0])


class TestWindowLoss:
    def test_zero_kl_when_drafter_matches_target(self):
        # Drafter rows equal the window's target dists at the masked contexts,
        # so only the CE term remains.
        vocab = Vocabulary(3)
        m = vocab.mask_id
        rows = {(0, 1): [0.6, 0.3, 0.1], (1, m): [0.2, 0.5, 0.3]}
        drafter = oracles.model_from_table(2, vocab, rows, np.full(3, 1 / 3))
        window = _window(
            3, (0, 1), (1, 1), [rows[(0, 1)], rows[(1, m)]], cat_weights([1.0, 1.0])
        )
        config = TrainConfig(draft_len=2, beta=0.5, weighting="uniform")
        expected_ce = -math.log(0.3) - math.log(0.5)
        assert _loss(drafter, window, config) == pytest.approx(0.5 * expected_ce, abs=1e-12)

    def test_zero_weights_leave_single_position(self):
        vocab = Vocabulary(2)
        m = vocab.mask_id
        drafter = oracles.model_from_table(
            1, vocab, {(0,): [0.75, 0.25], (m,): [0.5, 0.5]}, np.full(2, 0.5)
        )
        window = _window(2, (0,), (1, 1), [[0.5, 0.5], [0.5, 0.5]], ((0.0, 0.0), (1.0, 0.0)))
        config = TrainConfig(draft_len=2, beta=1.0)
        # beta*CE_0 + KD_0 only
        ce0 = -math.log(0.25)
        p = np.array([0.5, 0.5])
        kd0 = float(np.sum(p * (np.log(p) - np.log([0.75, 0.25]))))
        assert _loss(drafter, window, config) == pytest.approx(ce0 + kd0, abs=1e-12)

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(8)
        target = make_synthetic_target(9, vocab_size=4, order=2, concentration=0.5)
        corpus = sample_corpus(target, 3, 10, rng)
        config = TrainConfig(draft_len=3, rho=0.3, beta=0.7, weighting="cat", seed=5)
        windows = build_training_windows(target, corpus, config, np.random.default_rng(6))
        drafter = train_tabular_drafter(windows, config)
        losses = window_losses(drafter, windows, config)
        for i in range(10):
            window = oracles.window_record(windows, i)
            direct = 0.0
            base = window.prefix_context
            if window.feature != target.vocab.none_feature_id:
                base = base + (window.feature,)
            for k, y in enumerate(window.future_tokens):
                ctx = (base + (target.vocab.mask_id,) * k)[-drafter.order:]
                q = next_distribution(drafter, ctx)
                p = window.target_dists[k]
                ce = -math.log(q[y])
                kd = sum(
                    p[i] * (math.log(p[i]) - math.log(q[i])) for i in range(4) if p[i] > 0
                )
                direct += window.weights[k] * (0.7 * ce + kd)
            assert losses[i] == pytest.approx(direct, abs=1e-12)

    def test_zero_mass_reports_overflow(self):
        vocab = Vocabulary(2)
        drafter = oracles.model_from_table(1, vocab, {(0,): [1.0, 0.0]}, [1.0, 0.0])
        window = _window(2, (0,), (1,), [[0.0, 1.0]], cat_weights([1.0]))
        config = TrainConfig(draft_len=1, beta=1.0, kd_weight=0.0, smoothing=0.0)
        assert _loss(drafter, window, config) == math.inf


class TestBuildTrainingWindows:
    def _target(self):
        return make_synthetic_target(17, vocab_size=4, order=2, concentration=0.4)

    def test_window_counts(self):
        target = self._target()
        config = TrainConfig(draft_len=4, rho=0.0)
        rng = np.random.default_rng(0)
        assert len(build_training_windows(target, [[0, 1, 2, 3, 0]], config, rng)) == 1
        assert len(build_training_windows(target, [[0, 1, 2, 3, 0, 1, 2]], config, rng)) == 3

    def test_short_sequences_skipped(self):
        target = self._target()
        config = TrainConfig(draft_len=4)
        rng = np.random.default_rng(0)
        assert len(build_training_windows(target, [[0, 1, 2, 3]], config, rng)) == 0

    def test_uniform_weights_are_all_ones(self):
        target = self._target()
        config = TrainConfig(draft_len=3, weighting="uniform")
        windows = build_training_windows(
            target, [[0, 1, 2, 3, 0, 1]], config, np.random.default_rng(0)
        )
        assert windows.weights.shape == (3, 3)
        assert (windows.weights == 1.0).all()

    def test_rho_one_gives_pure_sentinel_features(self):
        target = self._target()
        config = TrainConfig(draft_len=3, rho=1.0)
        windows = build_training_windows(
            target, [[0, 1, 2, 3, 0, 1, 2]], config, np.random.default_rng(0)
        )
        assert len(windows) == 4
        assert (windows.features == target.vocab.none_feature_id).all()

    def test_rho_zero_always_injects_features(self):
        target = self._target()
        config = TrainConfig(draft_len=3, rho=0.0)
        windows = build_training_windows(
            target, [[0, 1, 2, 3, 0, 1, 2]], config, np.random.default_rng(0)
        )
        assert len(windows) == 4
        assert all(f in target.vocab.feature_ids for f in windows.features.tolist())

    def test_cat_confidences_match_target_dists(self):
        target = self._target()
        config = TrainConfig(draft_len=3, weighting="cat")
        windows = build_training_windows(
            target, sample_corpus(target, 2, 9, np.random.default_rng(1)),
            config, np.random.default_rng(2),
        )
        assert windows
        for i in range(len(windows)):
            w = oracles.window_record(windows, i)
            for k, y in enumerate(w.future_tokens):
                raw = float(w.target_dists[k][y])
                assert w.confidences[k] == min(max(raw, 1e-12), 1.0)

    def test_drafter_order_truncates_prefix_context(self):
        target = self._target()
        config = TrainConfig(draft_len=3, drafter_order=1)
        windows = build_training_windows(
            target, [[0, 1, 2, 3, 0, 1]], config, np.random.default_rng(0)
        )
        assert windows.prefix_contexts.shape == (3, 1)

    def test_non_real_corpus_tokens_rejected(self):
        # V = 4: -1 and 4 are not tokens, also in a sequence too short to window.
        target = self._target()
        config = TrainConfig(draft_len=2)
        for bad in (-1, 4):
            for corpus in ([[0, 1, 2, bad]], [[bad]]):
                with pytest.raises(ValueError, match="corpus token out of range"):
                    build_training_windows(target, corpus, config, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [1.7, "1"])
    def test_non_integer_corpus_tokens_rejected(self, bad):
        # A float or a string is not a token, even where int() would parse it.
        target = self._target()
        config = TrainConfig(draft_len=2)
        for corpus in ([[0, 1, 2, bad]], [[bad]]):
            with pytest.raises(ValueError, match=rf"^corpus token is not an integer: "
                                                 rf"{re.escape(repr(bad))}$"):
                build_training_windows(target, corpus, config, np.random.default_rng(0))

    @pytest.mark.parametrize("corpus, message", [
        ([3], "corpus entry 0 is not a sequence of tokens: 3"),
        ([[0, 1, 2, 3, 0], 3], "corpus entry 1 is not a sequence of tokens: 3"),
        ([3, [9]], "corpus entry 0 is not a sequence of tokens: 3"),
        ([[0, 9], 3], r"corpus token out of range \[0, 4\): 9"),
    ])
    def test_corpus_entry_that_is_not_a_sequence_rejected(self, corpus, message):
        # The first fault in corpus order is named, a bad token included.
        target = self._target()
        with pytest.raises(ValueError, match=rf"^{message}$"):
            build_training_windows(target, corpus, TrainConfig(draft_len=2),
                                   np.random.default_rng(0))

    @pytest.mark.parametrize("weighting", ["cat", "decay"])
    @pytest.mark.parametrize("corpus", [
        [[0, 1, 2, 3, 0, 1, 2], [3, 2], [1, 1, 0, 2, 3]],
        np.arange(24).reshape(3, 8) % 4,
        [[0, 1]],
        [],
    ])
    def test_every_array_is_c_contiguous_and_read_only(self, corpus, weighting):
        # The solve reads .ravel() views of these arrays.
        config = TrainConfig(draft_len=3, drafter_order=1, weighting=weighting)
        windows = build_training_windows(self._target(), corpus, config,
                                         np.random.default_rng(0))
        for field in dataclasses.fields(windows):
            array = getattr(windows, field.name)
            assert array.flags.c_contiguous, field.name
            assert not array.flags.writeable, field.name


class TestSampleCorpus:
    @pytest.mark.parametrize("counts, name", [
        ((-1, 4), "num_sequences"), ((2.5, 4), "num_sequences"),
        ((2, -1), "sequence_length"), ((2, 2.5), "sequence_length"),
    ])
    def test_bad_counts_rejected_before_any_draw(self, counts, name):
        target = make_synthetic_target(17, vocab_size=4, order=2, concentration=0.4)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            sample_corpus(target, *counts, rng)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("counts, expected", [((0, 4), []), ((3, 0), [[], [], []])])
    def test_zero_counts_give_empty_sequences(self, counts, expected):
        target = make_synthetic_target(17, vocab_size=4, order=2, concentration=0.4)
        assert sample_corpus(target, *counts, np.random.default_rng(0)) == expected

    def test_integer_counts_of_any_type_draw_as_ints(self):
        # True is the int 1 and np.int64(3) the int 3, as for sample_prompts.
        target = make_synthetic_target(17, vocab_size=4, order=2, concentration=0.4)
        want = sample_corpus(target, 1, 3, np.random.default_rng(0))
        for counts in ((True, 3), (np.int64(1), np.int64(3)), (1, np.int8(3))):
            assert sample_corpus(target, *counts, np.random.default_rng(0)) == want
        assert len(want) == 1 and len(want[0]) == 3



class TestMaskedContext:
    """The decoder, the trainer and the scalar ``propose`` share one context
    layout, the oracle's."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_rewrite(self, data):
        target_order = data.draw(st.integers(1, 4), label="target_order")
        order = data.draw(st.integers(1, target_order), label="drafter_order")
        vocab = Vocabulary(data.draw(st.integers(1, 5), label="vocab_size"))
        # Shorter than, equal to and longer than the target's order.
        prefix = data.draw(st.lists(st.integers(0, vocab.size - 1), min_size=1,
                                    max_size=2 * target_order + 1), label="prefix")
        feature = data.draw(st.sampled_from([vocab.none_feature_id, *vocab.feature_ids]),
                            label="feature")
        draft_len = data.draw(st.integers(1, 6), label="draft_len")
        k = data.draw(st.integers(0, draft_len - 1), label="k")
        expected = oracles.rewritten_context(prefix, feature, k, vocab, order)
        assert masked_context(prefix, feature, k, vocab, order) == expected
        # The array form, on the pad-filled order-wide prefix, at every
        # position at once.
        padded = oracles.rewritten_context(prefix, vocab.none_feature_id, 0, vocab, order)
        rows = masked_contexts(np.array([padded]), np.array([feature]), np.arange(draft_len),
                               vocab, order)
        assert tuple(rows[0, k].tolist()) == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_rho_zero_drafter_reads_only_stored_rows(self, seed, data):
        vocab_size = data.draw(st.integers(2, 4), label="vocab_size")
        target_order = data.draw(st.integers(1, 3), label="target_order")
        drafter_order = data.draw(st.integers(1, target_order), label="drafter_order")
        draft_len = data.draw(st.integers(1, 5), label="draft_len")
        corpus = data.draw(st.lists(
            st.lists(st.integers(0, vocab_size - 1),
                     min_size=draft_len + 1, max_size=draft_len + 2 * target_order + 2),
            min_size=1, max_size=3,
        ), label="corpus")
        target = make_synthetic_target(seed, vocab_size, target_order, 0.5)
        config = TrainConfig(draft_len=draft_len, rho=0.0, drafter_order=drafter_order)
        windows = build_training_windows(target, corpus, config, np.random.default_rng(seed))
        drafter = train_tabular_drafter(windows, config)
        for seq in corpus:
            for n in range(1, len(seq) - draft_len + 1):
                feature = compute_feature(target, seq[:n])
                prop = propose(drafter, seq[:n], draft_len, feature)
                for k, dist in enumerate(prop.dists):
                    ctx = oracles.rewritten_context(seq[:n], feature, k, drafter.vocab,
                                                    drafter_order)
                    # Rows of one array share memory only with themselves.
                    assert np.shares_memory(dist, drafter.table[ctx])


class TestTrainTabularDrafter:
    def test_weighted_frequency_hand_example(self):
        # Two windows hit the shared masked context (m,) at position 1 with
        # weights 1 and 0.25 on tokens 0 and 1. With beta=1 and one-hot
        # distillation the doubled soft counts normalize to (0.8, 0.2).
        def two_step_window(second_label, first_conf):
            return _window(
                2,
                (0,),
                (0, second_label),
                [_onehot(2, 0), _onehot(2, second_label)],
                cat_weights([first_conf, 1.0]),
            )

        windows = [two_step_window(0, 1.0), two_step_window(1, 0.25)]
        config = TrainConfig(draft_len=2, beta=1.0, smoothing=0.0)
        drafter = train_tabular_drafter(oracles.stack_windows(windows), config)
        mask_ctx = (Vocabulary(2).mask_id,)
        np.testing.assert_allclose(drafter.table[mask_ctx], [0.8, 0.2], atol=1e-15)

    def test_pure_distillation_recovers_target_row(self):
        vocab = Vocabulary(3)
        p = np.array([0.2, 0.5, 0.3])
        window = _window(3, (1,), (1,), [p], cat_weights([1.0]))
        config = TrainConfig(draft_len=1, beta=0.0, smoothing=0.0)
        drafter = train_tabular_drafter(oracles.stack_windows([window]), config)
        np.testing.assert_array_equal(drafter.table[(1,)], p)

    def test_reduces_to_masked_event_estimation_with_kd_off(self):
        target = make_synthetic_target(23, vocab_size=4, order=2, concentration=0.5)
        corpus = sample_corpus(target, 4, 12, np.random.default_rng(3))
        config = TrainConfig(
            draft_len=3, rho=1.0, beta=1.0, weighting="uniform",
            kd_weight=0.0, smoothing=0.1,
        )
        windows = build_training_windows(target, corpus, config, np.random.default_rng(4))
        drafter = train_tabular_drafter(windows, config)
        table, fallback = oracles.addk_masked_event_model(
            corpus, target.vocab, order=2, draft_len=3, smoothing=0.1
        )
        assert set(drafter.table) == set(table)
        for ctx in table:
            np.testing.assert_array_equal(drafter.table[ctx], table[ctx])
        np.testing.assert_array_equal(drafter.fallback, fallback)

    def test_onehot_distillation_matches_estimation_at_zero_smoothing(self):
        # With one-hot target dists the CE and KD soft counts coincide, so the
        # doubled counts normalize to the same table when smoothing is zero.
        vocab = Vocabulary(3)
        windows = []
        for y in (0, 1, 1, 2):
            windows.append(_window(3, (2,), (y,), [_onehot(3, y)], cat_weights([1.0])))
        cfg_onehot = TrainConfig(draft_len=1, beta=1.0, kd_weight=1.0, smoothing=0.0)
        cfg_plain = TrainConfig(draft_len=1, beta=1.0, kd_weight=0.0, smoothing=0.0)
        a = train_tabular_drafter(oracles.stack_windows(windows), cfg_onehot)
        b = train_tabular_drafter(oracles.stack_windows(windows), cfg_plain)
        np.testing.assert_array_equal(a.table[(2,)], b.table[(2,)])

    def test_random_perturbations_never_beat_closed_form(self):
        target = make_synthetic_target(29, vocab_size=3, order=1, concentration=0.8)
        corpus = sample_corpus(target, 3, 8, np.random.default_rng(5))
        config = TrainConfig(draft_len=2, rho=1.0, beta=0.4, smoothing=0.0)
        windows = build_training_windows(target, corpus, config, np.random.default_rng(6))
        drafter = train_tabular_drafter(windows, config)
        base_loss = window_losses(drafter, windows, config).sum()
        rng = np.random.default_rng(7)
        for _ in range(200):
            noisy_table = {}
            for ctx, row in drafter.table.items():
                jitter = np.clip(np.asarray(row) + rng.normal(0, 0.05, row.size), 1e-9, None)
                noisy_table[ctx] = jitter / jitter.sum()
            noisy = oracles.model_from_table(drafter.order, drafter.vocab, noisy_table,
                                             drafter.fallback)
            noisy_loss = window_losses(noisy, windows, config).sum()
            assert noisy_loss >= base_loss - 1e-9

    def test_matches_projected_gradient_descent(self):
        # Numeric-optimizer oracle: literal PGD over the per-context simplex
        # converges to the closed form on a well-conditioned instance.
        target = make_synthetic_target(31, vocab_size=3, order=1, concentration=2.0)
        corpus = sample_corpus(target, 2, 7, np.random.default_rng(9))
        config = TrainConfig(draft_len=2, rho=1.0, beta=0.5, smoothing=0.0, weighting="cat")
        windows = build_training_windows(target, corpus, config, np.random.default_rng(10))
        drafter = train_tabular_drafter(windows, config)
        terms_by_ctx = oracles.group_loss_terms(windows, target.vocab, 1)
        for ctx, terms in terms_by_ctx.items():
            q_pgd, loss_pgd = oracles.pgd_minimize_context(
                terms, 3, config.beta, config.kd_weight
            )
            np.testing.assert_allclose(drafter.table[ctx], q_pgd, atol=1e-6)
            closed = oracles.direct_context_loss(
                np.asarray(drafter.table[ctx]), terms, config.beta, config.kd_weight
            )
            assert closed <= loss_pgd + 1e-6

    def test_zero_windows_rejected(self):
        with pytest.raises(ValueError, match="zero windows"):
            train_tabular_drafter(
                build_training_windows(make_synthetic_target(0, 2, 1, 1.0), [[0, 1]],
                                       TrainConfig(draft_len=2), np.random.default_rng(0)),
                TrainConfig(draft_len=2),
            )

    def test_all_zero_weights_rejected(self):
        # Built windows weigh their first position 1, so only a directly
        # built TrainingWindows can weigh every position 0.
        config = TrainConfig(draft_len=2)
        windows = build_training_windows(make_synthetic_target(0, 2, 1, 1.0), [[0, 1, 0, 1]],
                                         config, np.random.default_rng(0))
        zero = dataclasses.replace(windows, weights=np.zeros_like(windows.weights))
        with pytest.raises(ValueError, match="^all window weights were zero; nothing to train on$"):
            train_tabular_drafter(zero, config)

    def test_draft_len_mismatch_rejected(self):
        window = _window(2, (0,), (1,), [[0.5, 0.5]], cat_weights([1.0]))
        with pytest.raises(ValueError, match="draft_len"):
            train_tabular_drafter(oracles.stack_windows([window]), TrainConfig(draft_len=3))

    @pytest.mark.parametrize("beta, kd_weight", [(0.1, 1.0), (0.0, 1.0), (0.5, 0.0)])
    def test_chunk_buffers_allocated_once_per_call(self, ngm_bytes, beta, kd_weight):
        # 4 sequences x 17 windows x 3 positions = 204 soft-count events: 30
        # chunks of 7 or 5 chunks of 50. The solve's np.empty calls (its chunk
        # buffers included) must not grow with the number of chunks.
        target = make_synthetic_target(3, vocab_size=4, order=2, concentration=0.5)
        config = TrainConfig(draft_len=3, beta=beta, kd_weight=kd_weight)
        corpus = sample_corpus(target, 4, 20, np.random.default_rng(1))
        windows = build_training_windows(target, corpus, config, np.random.default_rng(2))
        calls, drafters = [], []
        for chunk in (7, 50):
            with mock.patch.object(training, "_EVENT_CHUNK", chunk), \
                    mock.patch.object(training.np, "empty", wraps=np.empty) as empty:
                drafters.append(ngm_bytes(train_tabular_drafter(windows, config)))
            calls.append(empty.call_count)
        assert calls[0] == calls[1]
        assert drafters[0] == drafters[1]


def _outcome(fn, *args):
    """The call's result, or its ValueError as (type name, message)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.fixture(scope="module")
def ngm_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "drafter.ngm"

    def to_bytes(model):
        save_model(model, path)
        return path.read_bytes()

    return to_bytes


def _assert_same_windows(array_windows, scalar_windows):
    assert len(array_windows) == len(scalar_windows)
    for i, b in enumerate(scalar_windows):
        a = oracles.window_record(array_windows, i)
        assert a.prefix_context == b.prefix_context
        assert a.future_tokens == b.future_tokens
        assert a.feature == b.feature
        assert a.confidences == b.confidences
        assert a.weights == b.weights
        assert len(a.target_dists) == len(b.target_dists)
        for p, q in zip(a.target_dists, b.target_dists):
            np.testing.assert_array_equal(p, q)


def _draw_corpus_case(data, seed):
    """A target, a ragged corpus and a config: random or sparse targets,
    every weighting, rho 0/0.3/1, beta or kd_weight 0, a drafter order below,
    at or above the target's, and K in {1, d, d+1, 16}."""
    vocab_size = data.draw(st.integers(2, 5), label="vocab_size")
    order = data.draw(st.integers(1, 3), label="target_order")
    if data.draw(st.booleans(), label="sparse_target"):
        # Unsmoothed counts leave zero entries, so confidences can be 0.
        rows = data.draw(st.lists(st.lists(st.integers(0, vocab_size - 1), max_size=8),
                                  min_size=1, max_size=4), label="count_corpus")
        target = build_ngram_model(rows + [[0]], order, vocab_size, smoothing=0.0)
    else:
        alpha = data.draw(st.sampled_from([0.05, 0.5, 2.0]), label="alpha")
        target = make_synthetic_target(seed, vocab_size, order, alpha)
    draft_len = data.draw(st.sampled_from([1, order, order + 1, 16]), label="K")
    token = st.integers(0, vocab_size - 1)
    corpus = data.draw(st.lists(st.lists(token, max_size=draft_len + 2 * order + 3),
                                max_size=4), label="corpus")
    config = TrainConfig(
        draft_len=draft_len,
        rho=data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="rho"),
        beta=data.draw(st.sampled_from([0.0, 0.1, 1.0]), label="beta"),
        kd_weight=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="kd_weight"),
        weighting=data.draw(st.sampled_from(["uniform", "decay", "cat"]), label="weighting"),
        gamma=data.draw(st.sampled_from([0.3, 0.8, 1.0]), label="gamma"),
        smoothing=data.draw(st.sampled_from([0.0, 0.1]), label="smoothing"),
        drafter_order=data.draw(st.sampled_from([None, *range(1, order + 2)]),
                                label="drafter_order"),
    )
    return target, corpus, config


def _draw_wide_corpus(data, vocab_size, draft_len, order):
    """5 to 12 sequences, so that windows cross many sequence boundaries, as
    nested lists, a 2-D ndarray or a list of NumPy integer arrays. About
    half the lengths are long enough to window."""
    token = st.integers(0, vocab_size - 1)
    count = data.draw(st.integers(5, 12), label="num_sequences")
    length = st.one_of(st.integers(0, draft_len),
                       st.integers(draft_len + 1, draft_len + 2 * order + 3))
    form = data.draw(st.sampled_from(["lists", "ndarray", "arrays"]), label="form")
    dtype = data.draw(st.sampled_from([np.int8, np.uint16, np.int32, np.int64]), label="dtype")
    if form == "ndarray":
        n = data.draw(length, label="length")
        rows = data.draw(st.lists(st.lists(token, min_size=n, max_size=n),
                                  min_size=count, max_size=count), label="corpus")
        return np.array(rows, dtype=dtype).reshape(count, n)
    sequence = length.flatmap(lambda n: st.lists(token, min_size=n, max_size=n))
    rows = data.draw(st.lists(sequence, min_size=count, max_size=count), label="corpus")
    return [np.array(row, dtype=dtype) for row in rows] if form == "arrays" else rows


def _draw_hand_built_windows(data):
    """Window records with sparse target rows, whose zero confidences zero
    every later weight, and a config."""
    vocab = Vocabulary(data.draw(st.integers(2, 4), label="vocab_size"))
    order = data.draw(st.integers(1, 3), label="order")
    draft_len = data.draw(st.integers(1, 5), label="K")
    symbols = st.sampled_from([*range(vocab.size), vocab.pad_id])
    row = st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=vocab.size,
                   max_size=vocab.size).filter(any).map(lambda r: np.array(r) / sum(r))
    windows = []
    for _ in range(data.draw(st.integers(1, 6), label="num_windows")):
        # A zero confidence zeroes every later weight of the window.
        conf = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=draft_len,
                                  max_size=draft_len), label="confidences")
        weights = [1.0]
        for c in conf[:-1]:
            weights.append(weights[-1] * c)
        windows.append(oracles.Window(
            prefix_context=tuple(data.draw(st.lists(symbols, min_size=order,
                                                    max_size=order), label="prefix")),
            future_tokens=tuple(data.draw(st.lists(st.integers(0, vocab.size - 1),
                                                   min_size=draft_len, max_size=draft_len),
                                          label="future")),
            target_dists=tuple(data.draw(row, label="dist") for _ in range(draft_len)),
            feature=data.draw(st.sampled_from([vocab.none_feature_id, *vocab.feature_ids]),
                              label="feature"),
            confidences=tuple(conf),
            weights=tuple(weights),
        ))
    config = TrainConfig(
        draft_len=draft_len,
        beta=data.draw(st.sampled_from([0.0, 0.4]), label="beta"),
        kd_weight=data.draw(st.sampled_from([0.0, 1.0]), label="kd_weight"),
        smoothing=data.draw(st.sampled_from([0.0, 0.1]), label="smoothing"),
    )
    return windows, config


def _assert_corpus_case_matches_scalar(ngm_bytes, seed, data):
    """Windows, drafter bytes or error of a drawn corpus case, against the
    scalar oracle's."""
    target, corpus, config = _draw_corpus_case(data, seed)
    rng_array, rng_scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    windows = build_training_windows(target, corpus, config, rng_array)
    reference = oracles.scalar_training_windows(target, corpus, config, rng_scalar)
    _assert_same_windows(windows, reference)
    # Both drew the same number of gate uniforms (none at rho 0 or 1).
    assert rng_array.random() == rng_scalar.random()
    drafter = _outcome(train_tabular_drafter, windows, config)
    expected = _outcome(oracles.scalar_train_drafter, reference, config)
    if isinstance(expected, tuple):
        assert drafter == expected
    else:
        assert ngm_bytes(drafter) == ngm_bytes(expected)


class TestArrayTrainerMatchesScalarOracle:
    """The array window builder and solve give the scalar oracle's windows,
    drafter bytes and errors."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_corpus_training_is_byte_identical(self, ngm_bytes, seed, data):
        _assert_corpus_case_matches_scalar(ngm_bytes, seed, data)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_corpus_training_in_small_event_chunks(self, ngm_bytes, seed, data):
        # Seven soft-count events per np.add.at call: most solves span chunks.
        with mock.patch.object(training, "_EVENT_CHUNK", 7):
            _assert_corpus_case_matches_scalar(ngm_bytes, seed, data)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_windows_of_wide_and_array_corpora(self, seed, data):
        target, _, config = _draw_corpus_case(data, seed)
        corpus = _draw_wide_corpus(data, target.vocab.size, config.draft_len, target.order)
        rng_array, rng_scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        windows = build_training_windows(target, corpus, config, rng_array)
        _assert_same_windows(windows, oracles.scalar_training_windows(target, corpus, config,
                                                                      rng_scalar))
        # Both drew the same number of gate uniforms (none at rho 0 or 1).
        assert rng_array.random() == rng_scalar.random()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_hand_built_windows_with_zero_weights(self, ngm_bytes, data):
        windows, config = _draw_hand_built_windows(data)
        drafter = _outcome(train_tabular_drafter, oracles.stack_windows(windows), config)
        expected = _outcome(oracles.scalar_train_drafter, windows, config)
        if isinstance(expected, tuple):
            assert drafter == expected
        else:
            assert ngm_bytes(drafter) == ngm_bytes(expected)

    def test_zero_mass_raises_as_the_oracle_does(self):
        target = make_synthetic_target(5, vocab_size=3, order=1, concentration=0.5)
        config = TrainConfig(draft_len=2, beta=0.0, kd_weight=0.0, smoothing=0.0)
        windows = build_training_windows(target, [[0, 1, 2, 0]], config,
                                         np.random.default_rng(0))
        reference = oracles.scalar_training_windows(target, [[0, 1, 2, 0]], config,
                                                    np.random.default_rng(0))
        expected = _outcome(oracles.scalar_train_drafter, reference, config)
        assert expected == ("ValueError",
                            "context received zero training mass; increase smoothing")
        assert _outcome(train_tabular_drafter, windows, config) == expected

    @pytest.mark.parametrize("corpus", [[[0, 1, 2, 0, 7]], [[0, 1, 2, 0], [3]], [[-2]],
                                        [[0, 1, 2, 0, 1, 2], [1, -1, 5]]])
    def test_bad_corpus_token_raises_as_the_oracle_does(self, corpus):
        target = make_synthetic_target(5, vocab_size=3, order=1, concentration=0.5)
        config = TrainConfig(draft_len=2)
        expected = _outcome(oracles.scalar_training_windows, target, corpus, config,
                            np.random.default_rng(0))
        assert expected[0] == "ValueError"
        assert _outcome(build_training_windows, target, corpus, config,
                        np.random.default_rng(0)) == expected

    def test_windows_share_one_row_per_corpus_position(self):
        target = make_synthetic_target(17, vocab_size=4, order=2, concentration=0.4)
        corpus = [[0, 1, 2, 3, 0, 1, 2], [3, 2], [1, 1, 0, 2, 3]]
        windows = build_training_windows(target, corpus, TrainConfig(draft_len=3),
                                         np.random.default_rng(0))
        # Rows for positions 1..L-1 of the two sequences long enough to window.
        assert windows.target_rows.shape == (6 + 4, 4)
        assert len(windows) == 4 + 2
        first, second = oracles.window_record(windows, 0), oracles.window_record(windows, 1)
        assert np.shares_memory(first.target_dists[1], second.target_dists[0])


def _draw_drafter(data, rng, windows, config):
    """The drafter trained on the windows, or, when not drawn or when
    training fails, one over about half of their masked contexts with zero
    entries in every row (fallback included), so some needed tokens get no
    mass."""
    if data.draw(st.booleans(), label="trained_drafter"):
        try:
            return train_tabular_drafter(windows, config)
        except ValueError:
            pass
    vocab = Vocabulary(windows.target_rows.shape[1])
    order = windows.prefix_contexts.shape[1]
    records = [oracles.window_record(windows, i) for i in range(len(windows))]
    contexts = sorted({
        oracles.rewritten_context(w.prefix_context, w.feature, k, vocab, order)
        for w in records for k in range(len(w.future_tokens))
    })
    table = {ctx: oracles.sparse_row(vocab.size, rng) for ctx in contexts if rng.random() < 0.5}
    return oracles.model_from_table(order, vocab, table, oracles.sparse_row(vocab.size, rng))


def _assert_losses_match_oracle(drafter, windows, config):
    losses = window_losses(drafter, windows, config)
    expected = np.array([oracles.window_loss(drafter, windows, i, config)
                         for i in range(len(windows))])
    assert losses.shape == (len(windows),)
    assert not np.isnan(losses).any()
    np.testing.assert_array_equal(np.isinf(losses), np.isinf(expected))
    finite = np.isfinite(expected)
    np.testing.assert_allclose(losses[finite], expected[finite], rtol=1e-12, atol=0.0)


class TestWindowLossesMatchScalarOracle:
    """The array objective gives the scalar oracle's loss, window by window."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_corpus_windows(self, seed, data):
        target, corpus, config = _draw_corpus_case(data, seed)
        rng = np.random.default_rng(seed)
        windows = build_training_windows(target, corpus, config, rng)
        _assert_losses_match_oracle(_draw_drafter(data, rng, windows, config), windows, config)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_hand_built_windows_with_zero_weights(self, seed, data):
        records, config = _draw_hand_built_windows(data)
        windows = oracles.stack_windows(records)
        rng = np.random.default_rng(seed)
        _assert_losses_match_oracle(_draw_drafter(data, rng, windows, config), windows, config)

    def test_zero_mass_at_a_zero_weight_position_adds_nothing(self):
        vocab = Vocabulary(2)
        drafter = oracles.model_from_table(1, vocab, {(0,): [0.5, 0.5]}, [1.0, 0.0])
        # Position 1 reads the fallback, which gives token 1 no mass.
        window = _window(2, (0,), (0, 1), [[0.5, 0.5], [0.0, 1.0]], ((0.0, 1.0), (1.0, 0.0)))
        config = TrainConfig(draft_len=2, beta=1.0)
        assert _loss(drafter, window, config) == pytest.approx(math.log(2.0), abs=1e-15)
        full = _window(2, (0,), (0, 1), [[0.5, 0.5], [0.0, 1.0]], ((1.0, 1.0), (1.0, 1.0)))
        assert _loss(drafter, full, config) == math.inf

    def test_drafter_of_another_order_rejected(self):
        window = _window(2, (0,), (1,), [[0.5, 0.5]], cat_weights([1.0]))
        drafter = oracles.model_from_table(2, Vocabulary(2), {}, [0.5, 0.5])
        with pytest.raises(ValueError, match="does not match the windows"):
            window_losses(drafter, oracles.stack_windows([window]), TrainConfig(draft_len=1))

    def test_no_windows_give_no_losses(self):
        target = make_synthetic_target(0, 3, 2, 1.0)
        config = TrainConfig(draft_len=3)
        windows = build_training_windows(target, [[0, 1]], config, np.random.default_rng(0))
        assert window_losses(target, windows, config).shape == (0,)

class TestTrainConfig:
    def test_published_defaults(self):
        config = TrainConfig()
        assert config.draft_len == 16
        assert config.rho == 0.1
        assert config.beta == 0.1
        assert config.weighting == "cat"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"draft_len": 0},
            {"rho": -0.1},
            {"rho": 1.1},
            {"beta": -1.0},
            {"weighting": "linear"},
            {"gamma": 0.0},
            {"gamma": 1.5},
            {"smoothing": -0.5},
            {"kd_weight": -0.1},
            {"drafter_order": 0},
            # NaN passes a plain ">= 0" test, and switched its term off.
            {"beta": float("nan")},
            {"beta": float("inf")},
            {"smoothing": float("nan")},
            {"smoothing": float("inf")},
            {"kd_weight": float("nan")},
            {"kd_weight": float("inf")},
            {"drafter_order": 65},  # above models.MAX_ORDER
            {"seed": -1},
            # Integer fields take integers only: these used to construct and
            # then fail in window building with a TypeError.
            {"draft_len": 2.5},
            {"draft_len": 2.0},
            {"seed": 1.5},
            {"drafter_order": 1.5},
            {"drafter_order": "2"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestConfigFileParsing:
    def test_aliases_and_casting(self):
        text = """
        Training Draft Length K = 8
        Stochastic Gating Ratio = 0.2
        CE Loss Coefficient = 0.3
        weighting = decay
        gamma = 0.9
        seed = 5
        """
        kwargs, ignored = parse_train_config_file(text)
        assert kwargs == {
            "draft_len": 8, "rho": 0.2, "beta": 0.3,
            "weighting": "decay", "gamma": 0.9, "seed": 5,
        }
        assert ignored == []
        TrainConfig(**kwargs)

    def test_gradient_keys_ignored_with_report(self):
        text = "learning_rate = 1e-5\noptimizers = AdamW\nK = 4\n"
        kwargs, ignored = parse_train_config_file(text)
        assert kwargs == {"draft_len": 4}
        assert set(ignored) == {"learning_rate", "optimizers"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_train_config_file("dropout = 0.5\n")

    def test_every_field_name_is_a_key_cast_to_its_declared_type(self):
        # The sheet reads its keys and casts off TrainConfig, so the two
        # cannot drift apart: the alias table holds only other names.
        hints = typing.get_type_hints(TrainConfig)
        assert not set(training._CONFIG_ALIASES) & set(hints)
        assert set(training._CONFIG_ALIASES.values()) <= set(hints)
        for field in dataclasses.fields(TrainConfig):
            cast = (typing.get_args(hints[field.name]) or (hints[field.name],))[0]
            kwargs, _ = parse_train_config_file(f"{field.name} = 1\n")
            assert kwargs == {field.name: cast("1")}
            assert type(kwargs[field.name]) is cast

    def test_comments_and_blank_lines_skipped(self):
        kwargs, _ = parse_train_config_file("# comment\n\nrho = 0.4  # trailing\n")
        assert kwargs == {"rho": 0.4}
