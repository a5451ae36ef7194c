"""Tests for parallel masked drafting, features, and the stochastic gate."""

import numpy as np
import pytest

from speclab.drafting import GateConfig, apply_gate, has_feature_contexts
import oracles
from oracles import compute_feature, propose
from speclab.models import Vocabulary, as_distribution


def _marked_drafter():
    """Order-2 drafter whose rows are distinct point masses per context kind.

    Lets tests identify exactly which context each draft position used.
    """
    vocab = Vocabulary(4)
    m, f = vocab.mask_id, vocab.feature_ids[3]
    eye = np.eye(4)
    table = {
        (0, 1): eye[0],  # real suffix of the prefix
        (1, m): eye[1],
        (m, m): eye[2],
        (1, f): eye[3],
        (f, m): eye[0] * 0.5 + eye[1] * 0.5,
    }
    return oracles.model_from_table(2, vocab, table, fallback=np.full(4, 0.25))


class TestComputeFeature:
    def test_encodes_target_argmax(self):
        vocab = Vocabulary(3)
        table = {(0,): [0.1, 0.8, 0.1]}
        target = oracles.model_from_table(1, vocab, table, fallback=[1 / 3] * 3)
        feature = compute_feature(target, [0])
        assert feature == vocab.feature_ids[1]

    def test_same_suffix_same_feature(self):
        target = oracles.model_from_table(
            order=1,
            vocab=Vocabulary(3),
            table={(2,): [0.0, 0.0, 1.0]},
            fallback=[1 / 3] * 3,
        )
        assert compute_feature(target, [0, 1, 2]) == compute_feature(target, [1, 2, 2])

    def test_feature_is_never_a_real_token(self):
        target = oracles.model_from_table(
            order=1, vocab=Vocabulary(5), table={}, fallback=np.full(5, 0.2)
        )
        for prefix in ([0], [4], [2, 3]):
            feature = compute_feature(target, prefix)
            assert not 0 <= feature < target.vocab.size
            assert feature in target.vocab.feature_ids

    def test_empty_prefix_rejected(self):
        target = _marked_drafter()
        with pytest.raises(ValueError, match="nonempty"):
            compute_feature(target, [])


class TestApplyGate:
    def test_rho_zero_always_keeps(self):
        vocab = Vocabulary(3)
        feature = vocab.feature_ids[1]
        rng = np.random.default_rng(0)
        gate = GateConfig(rho=0.0)
        assert all(apply_gate(feature, gate, vocab, rng) == feature for _ in range(200))

    def test_rho_one_always_drops(self):
        vocab = Vocabulary(3)
        feature = vocab.feature_ids[1]
        rng = np.random.default_rng(0)
        gate = GateConfig(rho=1.0)
        assert all(
            apply_gate(feature, gate, vocab, rng) == vocab.none_feature_id for _ in range(200)
        )

    def test_keep_fraction_matches_bernoulli(self):
        vocab = Vocabulary(3)
        feature = vocab.feature_ids[0]
        gate = GateConfig(rho=0.1)
        rng = np.random.default_rng(42)
        n = 20_000
        kept = sum(apply_gate(feature, gate, vocab, rng) == feature for _ in range(n))
        sigma = (0.1 * 0.9 / n) ** 0.5
        assert abs(kept / n - 0.9) <= 3 * sigma

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    def test_array_gate_equals_single_draws(self, rho):
        vocab = Vocabulary(3)
        features = np.array([vocab.feature_ids[t] for t in (0, 1, 2, 1, 0, 2, 2)])
        gate = GateConfig(rho=rho)
        rng_array, rng_single = np.random.default_rng(5), np.random.default_rng(5)
        gated = apply_gate(features, gate, vocab, rng_array)
        assert gated.tolist() == [apply_gate(int(f), gate, vocab, rng_single) for f in features]
        # The same draws were consumed: none at rho 0 or 1, one per feature else.
        assert rng_array.random() == rng_single.random()

    def test_invalid_rho_rejected(self):
        with pytest.raises(ValueError):
            GateConfig(rho=1.5)


class TestPropose:
    def test_contexts_without_feature(self):
        # K=3, d=2, prefix (..., 0, 1) -> contexts (0,1), (1,m), (m,m).
        drafter = _marked_drafter()
        prop = propose(drafter, [2, 0, 1], 3, drafter.vocab.none_feature_id)
        assert prop.tokens == (0, 1, 2)

    def test_contexts_with_feature(self):
        # Feature f displaces one mask: contexts (1,f), (f,m), (m,m).
        drafter = _marked_drafter()
        feature = drafter.vocab.feature_ids[3]
        prop = propose(drafter, [2, 0, 1], 3, feature)
        assert prop.tokens[0] == 3
        np.testing.assert_array_equal(prop.dists[1], [0.5, 0.5, 0.0, 0.0])
        assert prop.tokens[2] == 2

    def test_dists_do_not_depend_on_sampling_seed(self):
        drafter = _marked_drafter()
        feature = drafter.vocab.none_feature_id
        a = propose(drafter, [0, 1], 4, feature, mode="sample", rng=np.random.default_rng(1))
        b = propose(drafter, [0, 1], 4, feature, mode="sample", rng=np.random.default_rng(999))
        for da, db in zip(a.dists, b.dists):
            np.testing.assert_array_equal(da, db)

    def test_sampled_tokens_always_have_positive_mass(self):
        drafter = _marked_drafter()
        rng = np.random.default_rng(3)
        for _ in range(50):
            prop = propose(drafter, [0, 1], 3, drafter.vocab.none_feature_id, mode="sample",
                           rng=rng)
            for tok, dist in zip(prop.tokens, prop.dists):
                assert dist[tok] > 0.0

    def test_batched_draws_match_one_draw_per_position(self):
        drafter = _marked_drafter()
        feature = drafter.vocab.feature_ids[3]
        rngs = [lambda s=s: np.random.default_rng(s) for s in range(20)]
        # Draws that land exactly on a CDF step, where side="right" matters.
        rngs += [lambda u=u: oracles.FixedUniform(u) for u in (0.0, 0.5)]
        for make_rng in rngs:
            for prefix in ([2, 0, 1], [1]):
                a = propose(drafter, prefix, 5, feature, mode="sample", rng=make_rng())
                b = oracles.propose_per_position(drafter, prefix, 5, feature, "sample",
                                                 make_rng())
                assert a.tokens == b.tokens
                for da, db in zip(a.dists, b.dists):
                    np.testing.assert_array_equal(da, db)

    def test_all_mask_positions_share_one_lookup(self):
        # K=6, d=2: positions 2..5 all see (m, m) and reuse its one row.
        drafter = _marked_drafter()
        prop = propose(drafter, [0, 1], 6, drafter.vocab.none_feature_id)
        assert prop.tokens == (0, 1, 2, 2, 2, 2)
        assert all(dist is prop.dists[2] for dist in prop.dists[2:])

    def test_batched_draws_skip_zero_probability_tail(self):
        # Every row tops out just below 1; a draw above that must not land on
        # the zero-probability last token.
        vocab = Vocabulary(3)
        shortfall = as_distribution([0.3, 0.7 - 1e-12, 0.0], 3)
        drafter = oracles.model_from_table(1, vocab, {}, fallback=shortfall)
        prop = propose(drafter, [0], 4, vocab.none_feature_id, mode="sample",
                       rng=oracles.FixedUniform(0.9999999999999))
        assert prop.tokens == (1, 1, 1, 1)

    def test_zero_draft_len_rejected(self):
        drafter = _marked_drafter()
        with pytest.raises(ValueError, match="draft_len"):
            propose(drafter, [0], 0, drafter.vocab.none_feature_id)

    def test_non_real_prefix_rejected(self):
        drafter = _marked_drafter()
        with pytest.raises(ValueError, match="real tokens"):
            propose(drafter, [drafter.vocab.mask_id], 2, drafter.vocab.none_feature_id)

    def test_bad_feature_symbol_rejected(self):
        drafter = _marked_drafter()
        with pytest.raises(ValueError, match="feature symbol"):
            propose(drafter, [0], 2, 0)


class TestHasFeatureContexts:
    def test_detects_feature_bearing_tables(self):
        drafter = _marked_drafter()
        assert has_feature_contexts(drafter)

    def test_plain_tables_have_none(self):
        vocab = Vocabulary(4)
        model = oracles.model_from_table(
            order=1, vocab=vocab, table={(0,): np.full(4, 0.25)}, fallback=np.full(4, 0.25)
        )
        assert not has_feature_contexts(model)
