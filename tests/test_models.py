"""Tests for the tabular model substrate."""

import re
from decimal import Decimal
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    build_ngram_model,
    generate_autoregressive,
    greedy_token,
    padded_suffix,
    sample_token,
)
from speclab import models
from speclab.models import (
    TabularModel,
    Vocabulary,
    as_distribution,
    load_model,
    lookup_rows,
    make_synthetic_target,
    next_distribution,
    sample_sequences,
    save_model,
)
from speclab.training import sample_corpus


class TestVocabulary:
    def test_reserved_ids_are_pairwise_distinct(self):
        vocab = Vocabulary(5)
        reserved = [vocab.mask_id, vocab.none_feature_id, vocab.pad_id, *vocab.feature_ids]
        assert len(set(reserved)) == len(reserved)
        assert all(not 0 <= s < vocab.size for s in reserved)

    def test_feature_range_covers_one_symbol_per_token(self):
        vocab = Vocabulary(4)
        assert list(vocab.feature_ids) == [5, 6, 7, 8]
        for t in range(4):
            assert oracles.token_of_feature(vocab, vocab.feature_ids[t]) == t

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Vocabulary(0)

    @pytest.mark.parametrize("size", [2.5, 3.0, "3", None])
    def test_non_integer_size(self, size):
        with pytest.raises(ValueError, match="^vocabulary size must be an integer, got "):
            Vocabulary(size)


class TestDistributionValidation:
    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            as_distribution([0.5, -0.1, 0.6], 3)

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            as_distribution([0.5, 0.4, 0.2], 3)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            as_distribution([0.5, 0.5], 3)

    def test_nan_entry_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            as_distribution([float("nan"), 0.5], 2)

    def test_result_is_frozen(self):
        arr = as_distribution([0.25, 0.75], 2)
        with pytest.raises(ValueError):
            arr[0] = 1.0


def _tiny_model():
    vocab = Vocabulary(3)
    table = {
        (0, 1): [0.5, 0.3, 0.2],
        (1, 0): [0.1, 0.1, 0.8],
    }
    return oracles.model_from_table(2, vocab, table, fallback=[1 / 3, 1 / 3, 1 / 3])


class TestNextDistribution:
    def test_direct_lookup(self):
        model = _tiny_model()
        np.testing.assert_array_equal(
            next_distribution(model, [2, 0, 1]), [0.5, 0.3, 0.2]
        )

    def test_unseen_context_uses_fallback(self):
        model = _tiny_model()
        np.testing.assert_array_equal(
            next_distribution(model, [2, 2]), model.fallback
        )

    def test_short_context_matches_model_built_with_same_padding(self):
        # Hand-built two-symbol corpus; the padded key for history (1,) must
        # be exactly what the builder stored for position 1 of "1 0 ...".
        corpus = [[1, 0, 1, 0]]
        model = build_ngram_model(corpus, order=2, vocab_size=2, smoothing=0.0)
        pad = model.vocab.pad_id
        assert (pad, 1) in model.table
        np.testing.assert_array_equal(
            next_distribution(model, [1]), model.table[(pad, 1)]
        )

    def test_out_of_range_symbol_rejected(self):
        model = _tiny_model()
        with pytest.raises(ValueError, match="out of range"):
            next_distribution(model, [0, 99])

    @pytest.mark.parametrize("symbol", [2**70, -(2**70)])
    def test_symbol_beyond_int64_is_a_value_error(self, symbol):
        model = _tiny_model()
        with pytest.raises(ValueError, match=f"^context symbol out of range: {symbol}$"):
            next_distribution(model, [0, symbol])

    def test_float_symbol_is_a_value_error(self):
        # A float is not truncated to the row of its integer part.
        model = _tiny_model()
        with pytest.raises(ValueError, match=r"^context symbol must be an integer, got 1\.7$"):
            next_distribution(model, [0, 1.7])

    def test_float_symbol_in_lookup_rows_is_a_value_error(self):
        model = _tiny_model()
        with pytest.raises(ValueError, match=r"^context symbol must be an integer, got 1\.7$"):
            lookup_rows(model, [[0, 1], [0, 1.7]])

    def test_only_the_order_d_key_is_read(self):
        # Symbols before the last d never enter the key, so they are not checked.
        model = _tiny_model()
        np.testing.assert_array_equal(next_distribution(model, [99, 0, 1]), [0.5, 0.3, 0.2])

    def test_bad_context_length_in_table_rejected(self):
        vocab = Vocabulary(2)
        with pytest.raises(ValueError, match="order"):
            oracles.model_from_table(2, vocab, {(0,): [0.5, 0.5]}, fallback=[0.5, 0.5])


class TestSampleToken:
    def test_degenerate_distribution(self):
        dist = as_distribution([0.0, 1.0, 0.0], 3)
        for seed in range(20):
            assert sample_token(dist, np.random.default_rng(seed)) == 1

    def test_same_seed_same_sequence(self):
        dist = as_distribution([0.2, 0.3, 0.5], 3)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        a = [sample_token(dist, rng_a) for _ in range(50)]
        b = [sample_token(dist, rng_b) for _ in range(50)]
        assert a == b
        assert len(set(a)) > 1  # sanity: the draw stream actually varies

    def test_zero_probability_token_never_drawn(self):
        dist = as_distribution([0.5, 0.0, 0.5], 3)
        rng = np.random.default_rng(11)
        assert all(sample_token(dist, rng) != 1 for _ in range(2000))

    def test_rounding_shortfall_never_picks_zero_probability_token(self):
        # The CDF tops out just below 1; a draw above it must still land on
        # the last token with mass, not on the zero-probability tail.
        dist = as_distribution([0.3, 0.7 - 1e-12, 0.0], 3)
        assert sample_token(dist, oracles.FixedUniform(0.9999999999999)) == 1


class TestGreedyToken:
    def test_plain_argmax(self):
        assert greedy_token(as_distribution([0.2, 0.5, 0.3], 3)) == 1

    def test_tie_breaks_to_lowest_id(self):
        assert greedy_token(as_distribution([0.5, 0.5, 0.0], 3)) == 0
        assert greedy_token(as_distribution([0.0, 0.5, 0.5], 3)) == 1

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(5)
        model = make_synthetic_target(5, vocab_size=6, order=1, concentration=0.5)
        for ctx, dist in model.table.items():
            best, best_p = 0, -1.0
            for tok, p in enumerate(dist):
                if p > best_p:
                    best, best_p = tok, p
            assert greedy_token(dist) == best


def _chain_model():
    # 0 -> 1 -> 2 -> 0 deterministic chain, order 1
    vocab = Vocabulary(3)
    eye = np.eye(3)
    table = {(0,): eye[1], (1,): eye[2], (2,): eye[0], (vocab.pad_id,): eye[0]}
    return oracles.model_from_table(1, vocab, table, fallback=[1 / 3, 1 / 3, 1 / 3])


class TestGenerateAutoregressive:
    def test_deterministic_chain(self):
        assert generate_autoregressive(_chain_model(), [0], 3) == [1, 2, 0]

    def test_zero_tokens(self):
        assert generate_autoregressive(_chain_model(), [0], 0) == []

    def test_sample_mode_is_seed_deterministic(self):
        model = make_synthetic_target(3, vocab_size=4, order=2, concentration=1.0)
        a = generate_autoregressive(model, [1, 2], 16, mode="sample", rng=np.random.default_rng(9))
        b = generate_autoregressive(model, [1, 2], 16, mode="sample", rng=np.random.default_rng(9))
        assert a == b

    def test_rejects_non_real_prefix(self):
        model = _chain_model()
        with pytest.raises(ValueError, match="real tokens"):
            generate_autoregressive(model, [model.vocab.mask_id], 2)

    def test_sample_mode_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            generate_autoregressive(_chain_model(), [0], 2, mode="sample")


class TestBuildNgramModel:
    def test_forced_counts(self):
        model = build_ngram_model([[0, 1, 0, 1]], order=1, vocab_size=2, smoothing=0.0)
        assert next_distribution(model, [0])[1] == 1.0
        assert next_distribution(model, [1])[0] == 1.0

    def test_add_one_hand_count(self):
        # One event for context (0,): token 1. (0+1, 1+1) / (1 + 2).
        model = build_ngram_model([[0, 1]], order=1, vocab_size=2, smoothing=1.0)
        np.testing.assert_allclose(next_distribution(model, [0]), [1 / 3, 2 / 3])

    def test_padded_start_position_is_counted(self):
        model = build_ngram_model([[1]], order=2, vocab_size=2, smoothing=0.0)
        pad = model.vocab.pad_id
        assert model.table[(pad, pad)][1] == 1.0

    def test_empty_corpus_with_zero_smoothing_fails(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_ngram_model([], order=1, vocab_size=3, smoothing=0.0)

    def test_empty_corpus_with_smoothing_gives_uniform_fallback(self):
        model = build_ngram_model([], order=1, vocab_size=4, smoothing=0.5)
        np.testing.assert_allclose(model.fallback, np.full(4, 0.25))

    def test_out_of_range_token_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_ngram_model([[0, 5]], order=1, vocab_size=2, smoothing=0.1)

    @settings(max_examples=50, deadline=None)
    @given(
        corpus=st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=12), min_size=1, max_size=6
        ),
        order=st.integers(1, 3),
        smoothing=st.floats(0.0, 2.0),
    )
    def test_all_rows_normalized(self, corpus, order, smoothing):
        model = build_ngram_model(corpus, order=order, vocab_size=5, smoothing=smoothing)
        for dist in list(model.table.values()) + [model.fallback]:
            assert np.all(dist >= 0.0)
            assert abs(float(dist.sum()) - 1.0) <= 1e-9


class TestSyntheticTarget:
    def test_small_concentration_is_peaked(self):
        model = make_synthetic_target(11, vocab_size=8, order=2, concentration=0.01)
        mean_max = np.mean([dist.max() for dist in model.table.values()])
        assert mean_max > 0.9

    def test_large_concentration_is_near_uniform(self):
        model = make_synthetic_target(11, vocab_size=8, order=2, concentration=1000.0)
        mean_max = np.mean([dist.max() for dist in model.table.values()])
        assert mean_max < 2 / 8 + 0.05

    @pytest.mark.parametrize("concentration", [float("nan"), float("inf")])
    def test_concentration_must_be_finite_and_positive(self, concentration):
        # Unchecked, a NaN or infinite alpha reaches the Dirichlet draw and
        # fails only later, as "distribution sums to nan".
        with pytest.raises(ValueError, match="concentration must be finite and > 0"):
            make_synthetic_target(0, vocab_size=3, order=1, concentration=concentration)

    def test_same_seed_identical_tables(self):
        a = make_synthetic_target(21, vocab_size=5, order=2, concentration=0.3)
        b = make_synthetic_target(21, vocab_size=5, order=2, concentration=0.3)
        assert set(a.table) == set(b.table)
        for ctx in a.table:
            np.testing.assert_array_equal(a.table[ctx], b.table[ctx])
        np.testing.assert_array_equal(a.fallback, b.fallback)

    def test_covers_padded_contexts(self):
        model = make_synthetic_target(3, vocab_size=4, order=2, concentration=0.5)
        pad = model.vocab.pad_id
        assert (pad, pad) in model.table
        assert (pad, 0) in model.table

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vocab_size": 1, "order": 1, "concentration": 1.0},
            {"vocab_size": 4, "order": 0, "concentration": 1.0},
            {"vocab_size": 4, "order": 1, "concentration": 0.0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            make_synthetic_target(0, **kwargs)


def _one_pass_parse_only():
    """Make ``load_model``'s split walk raise: a well-formed file must load
    through the one-pass parse, not silently through the slow path."""
    return mock.patch.object(models, "_split_rows", side_effect=AssertionError(
        "a well-formed model file fell back to the split walk"))


class TestSerialization:
    def test_round_trip_is_lossless(self, tmp_path):
        model = make_synthetic_target(42, vocab_size=6, order=2, concentration=0.4)
        path = tmp_path / "m.ngm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.order == model.order
        assert loaded.vocab == model.vocab
        assert set(loaded.table) == set(model.table)
        for ctx in model.table:
            np.testing.assert_array_equal(loaded.table[ctx], model.table[ctx])
        np.testing.assert_array_equal(loaded.fallback, model.fallback)

    def test_rewrite_is_byte_identical(self, tmp_path):
        model = make_synthetic_target(4, vocab_size=5, order=1, concentration=0.7)
        p1, p2 = tmp_path / "a.ngm", tmp_path / "b.ngm"
        save_model(model, p1)
        with _one_pass_parse_only():
            save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_format(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.ngm"
        save_model(model, path)
        assert path.read_text().splitlines()[0] == "ngram v=3 d=2"

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "ngram v=x d=2\n*\t0.5 0.5\n",
            "ngram v=2 d=1\n0\t0.5 0.5\n",  # missing fallback
            "ngram v=2 d=1\n*\t0.9 0.3\n",  # bad sum
            "ngram v=2 d=1\n*\t0.5 0.5\n0\tnan 0.5\n",  # NaN row
            "ngram v=2 d=1\n*\t0.5 0.5\n0 0.5 0.5\n",  # a row without its tab
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, content):
        path = tmp_path / "bad.ngm"
        path.write_text(content)
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("header", ["ngram 2 1", "ngram v=2 1", "ngram 2 d=1",
                                        "ngram d=1 v=2"])
    def test_header_needs_its_v_and_d_prefixes(self, tmp_path, header):
        path = tmp_path / "m.ngm"
        path.write_text(f"{header}\n*\t0.5 0.5\n")
        with pytest.raises(ValueError, match=re.escape(f"bad model header: {header!r}")) as raised:
            load_model(path)
        assert str(raised.value) == f"bad model header: {header!r} in model file: {path}"

    @pytest.mark.parametrize("order", [models.MAX_ORDER + 1, 32000])
    def test_order_above_the_bound_rejected_before_any_code(self, tmp_path, order):
        # Place values cost time quadratic in the order: d=32000 once took 10 s.
        path = tmp_path / "deep.ngm"
        path.write_text(f"ngram v=2 d={order}\n*\t0.5 0.5\n")
        with pytest.raises(ValueError, match=rf"^model order must be in 1\.\.{models.MAX_ORDER}, "
                                             rf"got {order} in model file: {re.escape(str(path))}$"):
            load_model(path)

    def test_order_at_the_bound_loads(self, tmp_path):
        path = tmp_path / "deep.ngm"
        path.write_text(f"ngram v=2 d={models.MAX_ORDER}\n*\t0.5 0.5\n")
        assert load_model(path).order == models.MAX_ORDER


def _random_table(data, vocab, order):
    """Random rows over real, mask and pad keys, with zero entries."""
    symbols = st.sampled_from([*range(vocab.size), vocab.mask_id, vocab.pad_id])
    keys = data.draw(st.lists(st.tuples(*[symbols] * order), unique=True, max_size=6),
                     label="keys")
    weights = st.lists(st.sampled_from([0.0, 0.1, 1.0, 7.0]), min_size=vocab.size,
                       max_size=vocab.size).filter(any)
    table = {}
    for key in keys:
        row = np.array(data.draw(weights, label="row"))
        table[key] = row / row.sum()
    return table


def _row_text(key, probs):
    return " ".join(map(str, key)) + "\t" + " ".join(format(float(p), ".17g") for p in probs)


#: (fault, row transform, expected error) for one faulty table row.
ROW_FAULTS = [
    ("nan", lambda p: np.r_[np.nan, p[1:]], "sums to"),
    ("inf", lambda p: np.r_[np.inf, p[1:]], "sums to"),
    ("negative", lambda p: np.r_[-0.5, p[1:] + 0.5 / (len(p) - 1)], "negative"),
    ("short", lambda p: p[:-1], "shape"),
    ("long", lambda p: np.r_[p, 0.0], "shape"),
    ("bad sum", lambda p: p * 0.5, "sums to"),
]


class TestTableRows:
    def test_rows_are_read_only_views_of_one_array(self):
        model = make_synthetic_target(3, vocab_size=4, order=2, concentration=0.5)
        rows = list(model.table.values()) + [model.fallback]
        assert model.rows.shape == (len(rows), 4) and not model.rows.flags.writeable
        assert all(row.base is model.rows and not row.flags.writeable for row in rows)

    def test_synthetic_rows_equal_one_draw_per_row(self):
        # Reference: the fallback, then one Dirichlet call per context.
        rng = np.random.default_rng(8)
        alpha = np.full(3, 0.4)
        fallback = rng.dirichlet(alpha)
        model = make_synthetic_target(8, vocab_size=3, order=2, concentration=0.4)
        symbols = [0, 1, 2, model.vocab.pad_id]
        assert list(model.table) == [(a, b) for a in symbols for b in symbols]
        np.testing.assert_array_equal(model.fallback, fallback)
        for ctx, row in model.table.items():
            np.testing.assert_array_equal(row, rng.dirichlet(alpha))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, data):
        vocab = Vocabulary(data.draw(st.integers(1, 4), label="vocab_size"))
        order = data.draw(st.integers(1, 3), label="order")
        table = _random_table(data, vocab, order)
        fallback = np.full(vocab.size, 1.0 / vocab.size)
        model = oracles.model_from_table(order, vocab, table, fallback=fallback)
        root = tmp_path_factory.mktemp("roundtrip")
        save_model(model, root / "a.ngm")
        with _one_pass_parse_only():
            loaded = load_model(root / "a.ngm")
        save_model(loaded, root / "b.ngm")
        assert (root / "a.ngm").read_bytes() == (root / "b.ngm").read_bytes()
        assert set(loaded.table) == set(table)
        for key, row in table.items():
            np.testing.assert_array_equal(loaded.table[key], row)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_faulty_rows_rejected_first_fault_first(self, tmp_path_factory, data):
        vocab = Vocabulary(data.draw(st.integers(2, 4), label="vocab_size"))
        order = data.draw(st.integers(1, 3), label="order")
        fallback = np.full(vocab.size, 1.0 / vocab.size)
        table = _random_table(data, vocab, order)
        bad_key = (vocab.pad_id,) * order
        table.pop(bad_key, None)
        rows = list(table.items())
        fault, transform, message = data.draw(st.sampled_from(ROW_FAULTS), label="fault")
        rows.insert(data.draw(st.integers(0, len(rows)), label="at"),
                    (bad_key, transform(fallback)))
        # A later fault of another kind must not be the one reported.
        rows.append(((vocab.num_symbols,) * order, fallback))
        with pytest.raises(ValueError, match=message):
            oracles.model_from_table(order, vocab, dict(rows), fallback=fallback)
        path = tmp_path_factory.mktemp("faulty") / "m.ngm"
        lines = [f"ngram v={vocab.size} d={order}", _row_text(("*",), fallback)]
        path.write_text("\n".join(lines + [_row_text(k, p) for k, p in rows]) + "\n")
        with pytest.raises(ValueError, match=message):
            load_model(path)

    @pytest.mark.parametrize("key, message", [
        ((0,), "order"), ((0, 99), "out of range"), ((-1, 0), "out of range"),
        ((0, 0.7), r"^context symbol must be an integer, got 0\.7$")])
    def test_faulty_keys_rejected(self, key, message):
        vocab = Vocabulary(2)
        table = {(0, 1): [0.5, 0.5], key: [0.5, 0.5], (1, 1): [0.0, 1.0]}
        with pytest.raises(ValueError, match=message):
            oracles.model_from_table(2, vocab, table, fallback=[0.5, 0.5])

    @pytest.mark.parametrize("contexts", [[0, 1], np.array([0, 1]), [(0,), 1]],
                             ids=["list", "array", "mixed"])
    def test_one_symbol_per_context_is_a_shape_error(self, contexts):
        rows = [[0.5, 0.5], [1.0, 0.0]]
        with pytest.raises(ValueError, match=r"^contexts must have shape \(R, 1\) and rows"):
            TabularModel(1, Vocabulary(2), contexts, rows, [0.5, 0.5])

    def test_more_contexts_than_rows_is_a_shape_error(self):
        rows = [[0.5, 0.5], [1.0, 0.0]]
        with pytest.raises(ValueError, match=r"^contexts must have shape \(R, 1\) and rows "
                                             r"\(R, 2\)$"):
            TabularModel(1, Vocabulary(2), [(0,), (1,), (2,)], rows, [0.5, 0.5])

    def test_cdf_is_the_read_only_row_cumsum(self):
        # The scalar oracles draw from np.cumsum of one row at a time.
        model = make_synthetic_target(4, vocab_size=5, order=2, concentration=0.5)
        assert model.cdf.tobytes() == np.cumsum(model.rows, axis=1).tobytes()
        for row, cdf in zip(model.rows, model.cdf):
            assert cdf.tobytes() == np.cumsum(row).tobytes()
        assert not model.cdf.flags.writeable and model.cdf is model.cdf

    def test_text_keys_convert_as_int_does(self):
        # Vocabulary(4) has 11 symbols, so 10 is a valid symbol.
        vocab = Vocabulary(4)
        rows = [[0.25] * 4, [0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
        text = TabularModel(1, vocab, [["\u0663"], ["1_0"], ["+1"]], rows, [0.25] * 4)
        ints = TabularModel(1, vocab, [[3], [10], [1]], rows, [0.25] * 4)
        for name in ("contexts", "rows"):
            got, want = getattr(text, name), getattr(ints, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("key", [(0, 0.5), (0, 1.0), ("0", 1), (0,), (0, 1, 1), (0, 99),
                                     (-1, 0), (1, 0), 5, None])
    def test_table_view_misses_are_key_errors(self, key):
        # (1, 0) is a valid context without a stored row: the fallback's.
        vocab = Vocabulary(2)
        model = oracles.model_from_table(2, vocab, {(0, 1): [0.5, 0.5], (1, 1): [0.0, 1.0]},
                                         fallback=[0.5, 0.5])
        assert key not in model.table
        with pytest.raises(KeyError):
            model.table[key]
        assert (0, 1) in model.table and (np.int64(1), 1) in model.table

    @pytest.mark.parametrize("duplicate", ["0 1", "*"])
    def test_duplicate_rows_rejected_by_load(self, tmp_path, duplicate):
        path = tmp_path / "dup.ngm"
        path.write_text(
            "ngram v=2 d=2\n*\t0.5 0.5\n0 1\t0.25 0.75\n1 1\t1 0\n"
            f"{duplicate}\t0.75 0.25\n"
        )
        name = "(0, 1)" if duplicate == "0 1" else "fallback"
        with pytest.raises(ValueError, match=rf"duplicate.*{re.escape(name)}"):
            load_model(path)

    def test_earlier_bad_sum_reported_before_later_unparsable_number(self, tmp_path):
        path = tmp_path / "m.ngm"
        path.write_text("ngram v=2 d=1\n*\t0.5 0.5\n0\t0.5 0.4\n1\t0.5 abc\n")
        with pytest.raises(ValueError, match="sums to"):
            load_model(path)

    @pytest.mark.parametrize("body, message", [
        ("*\t0.5 0.5\n0\t0.9 0.3\n", "sums to"),
        ("*\t0.5 0.5\n0\t1.5 -0.5\n", "negative"),
        ("*\t0.5 0.5\n0\t1\n", "shape"),
        ("*\t0.5 0.5\n0\t0.5 abc\n", "could not convert string to float: 'abc'"),
        ("*\t0.5 abc\n", "could not convert string to float: 'abc'"),
        ("*\t0.5 0.5\n1.5\t0.5 0.5\n", "invalid literal for int"),
        ("*\t0.5 0.5\n99\t0.5 0.5\n", "context symbol out of range: 99"),
        ("*\t0.5 0.5\n0 1\t0.5 0.5\n", "does not match model order 1"),
        ("*\t0.9 0.3\n", "sums to"),
        ("*\t0.5 0.5\n0 0.5 0.5\n", "malformed model line: '0 0.5 0.5'"),
    ], ids=["bad-sum", "negative", "short", "unparsable-number", "unparsable-fallback",
            "unparsable-symbol", "symbol-range", "order", "fallback-sum", "no-tab"])
    def test_every_check_error_names_the_file(self, tmp_path, body, message):
        path = tmp_path / "m.ngm"
        path.write_text("ngram v=2 d=1\n" + body)
        with pytest.raises(ValueError, match=rf"{message}.* in model file: {re.escape(str(path))}$"):
            load_model(path)

    def test_file_that_is_not_utf8_names_itself(self, tmp_path):
        path = tmp_path / "m.ngm"
        path.write_bytes(b"ngram v=2 d=1\n*\t0.5 0.5\n0\t0.5 \xff.5\n")
        with pytest.raises(ValueError) as raised:
            load_model(path)
        assert str(raised.value) == ("'utf-8' codec can't decode byte 0xff in position 30: "
                                     f"invalid start byte in model file: {path}")

    def test_header_wider_than_the_file_is_walked(self, tmp_path):
        # V + d fields a row cannot fit in the file: the array parse allocates
        # nothing for them, and the walk names the fallback's shape.
        path = tmp_path / "m.ngm"
        path.write_text(f"ngram v={10**12} d=1\n*\t1\n0\t1\n")
        with pytest.raises(ValueError, match=r"^distribution must have shape \(1000000000000,\)"):
            load_model(path)


# Mutations of a saved model file's lines: [header, fallback row, context rows].

def _row_index(lines, draw):
    """A context row, else the fallback row."""
    return draw(st.integers(2, len(lines) - 1)) if len(lines) > 2 else 1


def _move_tab(lines, draw):
    """Same token count, wrong key width: the tab lands between other tokens."""
    i = _row_index(lines, draw)
    tokens = lines[i].split()
    at = draw(st.integers(0, len(tokens)))
    lines[i] = " ".join(tokens[:at]) + "\t" + " ".join(tokens[at:])


def _double_space(lines, draw):
    i = _row_index(lines, draw)
    spaces = [m.start() for m in re.finditer(" ", lines[i])]
    if spaces:
        at = draw(st.sampled_from(spaces))
        lines[i] = lines[i][:at] + " " + lines[i][at:]


def _insert_text(lines, draw):
    """One character or token-like text anywhere; NumPy's int64 text parser
    reads U+01FE, a letter, as a digit (``"1\\u01fe2"`` as 4722)."""
    i = draw(st.integers(1, len(lines) - 1))
    at = draw(st.integers(0, len(lines[i])))
    text = draw(st.sampled_from([" ", "#", " # ", "\x00", "\x1f", "\xa0", "\u3000", "\u01fe",
                                 "\u0663", "_", "+", "-", "e", ".", "0"]))
    lines[i] = lines[i][:at] + text + lines[i][at:]


def _comment_mark(lines, draw):
    """A "#" at the end of a token: text that a comment-aware reader would drop."""
    i = draw(st.integers(1, len(lines) - 1))
    ends = [m.end() for m in re.finditer(r"\S+", lines[i])]
    if ends:
        at = draw(st.sampled_from(ends))
        lines[i] = lines[i][:at] + draw(st.sampled_from(["#", "#0", " #"])) + lines[i][at:]


def _insert_blank_line(lines, draw):
    lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", " \t ", "\xa0"])))


def _blank_key_or_tail(lines, draw):
    i = _row_index(lines, draw)
    key, _, tail = lines[i].partition("\t")
    blank = draw(st.sampled_from(["", " ", "  "]))
    lines[i] = blank + "\t" + tail if draw(st.booleans()) else key + "\t" + blank


def _replace_symbol(lines, draw):
    if len(lines) > 2:
        i = _row_index(lines, draw)
        key, _, tail = lines[i].partition("\t")
        tokens = key.split() or [""]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(
            ["+1", "01", "1_0", "\u0663", "1.0", "9223372036854775808", "-1", "1\u01fe"]))
        lines[i] = " ".join(tokens) + "\t" + tail


def _replace_number(lines, draw):
    i = draw(st.integers(1, len(lines) - 1))
    key, _, tail = lines[i].partition("\t")
    tokens = tail.split() or [""]
    at = draw(st.integers(0, len(tokens) - 1))
    tokens[at] = draw(st.sampled_from(
        ["1_0", "Infinity", "nan", "1e400", "-0", "+{}", "0{}", "{}e0", "{}0"])).format(tokens[at])
    lines[i] = key + "\t" + " ".join(tokens)


def _ragged_pair(lines, draw):
    """Two rows one token short and one long: 2 * V tokens between them."""
    if len(lines) > 3:
        i = draw(st.integers(2, len(lines) - 2))
        key, _, tail = lines[i].partition("\t")
        tokens = tail.split() or [""]
        lines[i] = key + "\t" + " ".join(tokens[:-1])
        lines[i + 1] += " " + tokens[-1]


def _fallback_last(lines, draw):
    lines.append(lines.pop(1))


def _repeat_row(lines, draw):
    lines.append(lines[draw(st.integers(1, len(lines) - 1))])


def _no_context_rows(lines, draw):
    del lines[2:]


def _crlf(lines, draw):
    """A carriage return before one line's newline, or before every one."""
    ends = range(len(lines)) if draw(st.booleans()) else [draw(st.integers(0, len(lines) - 1))]
    for i in ends:
        lines[i] += "\r"


def _form_feed(lines, draw):
    """A \\f or \\v, which ``str.splitlines`` takes for a line break, inside a line."""
    i = draw(st.integers(1, len(lines) - 1))
    at = draw(st.integers(0, len(lines[i])))
    lines[i] = lines[i][:at] + draw(st.sampled_from(["\f", "\v"])) + lines[i][at:]


def _byte_order_mark(lines, draw):
    lines[0] = "\ufeff" + lines[0]


#: Marks a line that the file writes without its newline (see ``_written``).
_NO_NEWLINE = "<no newline>"


def _no_final_newline(lines, draw):
    lines[-1] += _NO_NEWLINE


def _long_field(lines, draw):
    """A number with zeros after its digits: past 17 significant digits,
    or past the parse's 16-byte window."""
    i = draw(st.integers(1, len(lines) - 1))
    key, _, tail = lines[i].partition("\t")
    tokens = tail.split() or [""]
    at = draw(st.integers(0, len(tokens) - 1))
    digits, e, exponent = tokens[at].partition("e")
    zeros = "0" * draw(st.sampled_from([1, 4, 16]))
    tokens[at] = digits + ("" if "." in digits else ".") + zeros + e + exponent
    lines[i] = key + "\t" + " ".join(tokens)


def _padded_symbol(lines, draw):
    """A context symbol with a leading zero or plus sign: the same int()."""
    if len(lines) > 2:
        i = _row_index(lines, draw)
        key, _, tail = lines[i].partition("\t")
        tokens = key.split() or [""]
        at = draw(st.integers(0, len(tokens) - 1))
        tokens[at] = draw(st.sampled_from(["0", "+", "00"])) + tokens[at]
        lines[i] = " ".join(tokens) + "\t" + tail


FILE_MUTATIONS = [_move_tab, _double_space, _insert_text, _comment_mark, _insert_blank_line,
                  _blank_key_or_tail, _replace_symbol, _replace_number, _ragged_pair,
                  _fallback_last, _repeat_row, _no_context_rows, _crlf, _form_feed,
                  _byte_order_mark, _no_final_newline, _long_field, _padded_symbol]


def _written(lines) -> str:
    """A file's text from its lines, each ended by a newline unless marked."""
    return "".join(line + "\n" for line in lines).replace(_NO_NEWLINE + "\n", "")


def _check_load_matches_split_oracle(path):
    """``load_model`` reads the file to the split walk's model, bit for bit,
    or raises the walk's error."""
    try:
        expected = oracles.load_model_by_split(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            load_model(path)
        assert str(raised.value) == str(exc)
    else:
        loaded = load_model(path)
        assert (loaded.order, loaded.vocab) == (expected.order, expected.vocab)
        for name in ("contexts", "rows", "fallback"):
            got, want = getattr(loaded, name), getattr(expected, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), name


class TestLoadParse:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_load_matches_split_oracle_on_mutated_files(self, tmp_path_factory, data):
        vocab = Vocabulary(data.draw(st.integers(1, 4), label="vocab_size"))
        order = data.draw(st.integers(1, 3), label="order")
        fallback = np.full(vocab.size, 1.0 / vocab.size)
        model = oracles.model_from_table(order, vocab, _random_table(data, vocab, order), fallback)
        path = tmp_path_factory.mktemp("mutated") / "m.ngm"
        save_model(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        for mutate in data.draw(st.lists(st.sampled_from(FILE_MUTATIONS), min_size=1, max_size=2),
                                label="mutations"):
            mutate(lines, data.draw)
        path.write_text(_written(lines), encoding="utf-8", newline="")
        _check_load_matches_split_oracle(path)

    @pytest.mark.parametrize("rows", [
        "\t0.5 0.5\n", "0\t0.5 \n", "0\t0.5  0.5\n", "0\t0.5 0.5\n1", "0\t0.5 0.5\n1\t0.5 0.5",
        "0 \t0.5 0.5\n", "0\t 0.5 0.5\n", "0\t0.5 0.5 \n", "0\t0.5\t0.5\n", "0\t0.5 0.5\n\n",
        "0\t0.5 0.5\r\n", "00000000000000001\t0.5 0.5\n", "+0\t0.5 0.5\n"])
    def test_layout_faults_match_the_split_oracle(self, tmp_path, rows):
        path = tmp_path / "m.ngm"
        path.write_text("ngram v=2 d=1\n*\t0.5 0.5\n" + rows, newline="")
        _check_load_matches_split_oracle(path)

    def test_non_ascii_file_is_walked_to_the_arrays_of_its_ascii_twin(self, tmp_path):
        # int() and float() read some non-ASCII digits (Arabic-Indic,
        # fullwidth), which the array parse does not: the row walk reads them.
        body = "ngram v=2 d=2\n*\t0.5 0.5\n{}\t0.25 0.75\n1 {}\t{} 0.5\n"
        ascii_path, text_path = tmp_path / "ascii.ngm", tmp_path / "text.ngm"
        ascii_path.write_text(body.format("0 1", "6", "0.5"), encoding="utf-8")
        text_path.write_text(body.format("\u0660 \u0661", "\uff16", "\u0660.\u0665"),
                             encoding="utf-8")
        with mock.patch.object(models, "_split_rows", wraps=models._split_rows) as split:
            walked = load_model(text_path)
        split.assert_called_once()
        expected = load_model(ascii_path)
        for name in ("contexts", "rows"):
            got, want = getattr(walked, name), getattr(expected, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), name


def _formatted(values) -> list[str]:
    """Each value through ``save_model``'s array formatter, one per line."""
    fields = models._probability_fields(np.asarray(values, dtype=np.float64).reshape(-1, 1))
    return fields.tobytes().translate(None, b"\0").decode().splitlines()


def _percent_g(values) -> list[str]:
    return [format(float(v), ".17g") for v in values]


_POWERS = np.array([float(f"1e-{k}") for k in range(13)])

#: Values at the edges of the formatter's exact range: powers of ten and
#: their neighbours, the range's lower end, zeros, the least subnormal, an
#: exact tie (2**-25 has 18 significant digits, the last a 5), and a
#: probability just above one.
_EDGE_VALUES = [*_POWERS, *np.nextafter(_POWERS, 0), *np.nextafter(_POWERS, 1),
                np.nextafter(1e-11, 0), 0.0, -0.0, 5e-324, 2.0**-25, 1 + 1e-10]


class TestSaveFormat:
    def test_seeded_floats_take_the_exact_path(self):
        values = 10.0 ** np.random.default_rng(29).uniform(-12, 1, 200_000)
        with mock.patch.object(models, "_percent_fields", wraps=models._percent_fields) as slow:
            assert _formatted(values) == _percent_g(values)
        by_percent = sum(len(call.args[0]) for call in slow.call_args_list)
        outside = np.count_nonzero(values < 1e-11)
        # Only a truncated D off by a power of ten, or a carry to 10**17, joins them.
        assert outside <= by_percent <= outside + len(values) // 1000

    def test_exact_ties_round_half_to_even(self):
        candidates = (j * 2.0**-q for q in range(1, 40) for j in range(1, 64, 2))
        ties = [v for v in candidates
                if 1e-11 <= v < 10 and len(Decimal(v).as_tuple().digits) == 18]
        odd = [v for v in ties if Decimal(v).as_tuple().digits[16] % 2]
        assert 2.0**-25 in ties and 0 < len(odd) < len(ties)  # ties round both ways
        assert _formatted(ties) == _percent_g(ties)

    def test_edge_values(self):
        assert _formatted(_EDGE_VALUES) == _percent_g(_EDGE_VALUES)
        assert _formatted([0.0, -0.0, 5e-324, 1.0, 1 + 1e-10, 2.0**-25, 1e-7]) == [
            "0", "-0", "4.9406564584124654e-324", "1", "1.0000000001", "2.9802322387695312e-08",
            "9.9999999999999995e-08"]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_save_bytes_equal_the_percent_writer(self, tmp_path_factory, data, seed):
        vocab = Vocabulary(data.draw(st.sampled_from([1, 2, 3, 4, 60]), label="vocab_size"))
        block = models._SAVE_VALUES // vocab.size  # rows per written block
        count = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1]), label="rows")
        least = next(d for d in range(1, 9) if vocab.num_symbols**d >= count)
        order = data.draw(st.integers(least, least + 1), label="order")
        rng = np.random.default_rng(seed)
        codes = rng.choice(vocab.num_symbols**order, size=count, replace=False)
        contexts = np.stack(np.unravel_index(codes, (vocab.num_symbols,) * order), axis=1)
        # Entries from the edge values or log-uniform from 1e-12 up to a top
        # that keeps a row's sum below 1/2; one entry per row completes it to
        # a distribution. A tenth of the rows are one-hot instead: 1 or
        # 1 + 1e-10 (within the sum tolerance) beside 0, -0 and 5e-324.
        shape, top = (count + 1, vocab.size), 0.5 / vocab.size
        small = np.array([v for v in _EDGE_VALUES if v < top])
        rows = np.where(rng.random(shape) < 0.5, rng.choice(small, shape),
                        10.0 ** rng.uniform(-12, np.log10(top), shape))
        one_hot = rng.random(count + 1) < 0.1
        rows[one_hot] = rng.choice([0.0, -0.0, 5e-324], (np.count_nonzero(one_hot), vocab.size))
        ids, last = np.arange(count + 1), rng.integers(vocab.size, size=count + 1)
        rows[ids, last] = 0.0
        rows[ids, last] = np.where(one_hot, rng.choice([1.0, 1 + 1e-10], count + 1),
                                   1.0 - rows.sum(axis=1))
        model = TabularModel(order, vocab, contexts, rows[1:], rows[0])
        root = tmp_path_factory.mktemp("percent")
        save_model(model, root / "array.ngm")
        oracles.save_model_by_percent(model, root / "percent.ngm")
        assert (root / "array.ngm").read_bytes() == (root / "percent.ngm").read_bytes()


def _parsed(fields: list[str]):
    """``models._parsed_values`` of fields laid out as one row of a file."""
    text = (" ".join(fields) + "\n").encode()
    ends = np.flatnonzero(np.frombuffer(text, np.uint8) <= 32)
    return models._parsed_values(text + bytes(16), np.r_[0, ends[:-1] + 1], ends)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _by_float(slow) -> int:
    """Fields that calls of a wrapped ``models._float_values`` read."""
    return sum(len(call.args[1]) for call in slow.call_args_list)


#: Whether long double carries 64 bits: then the parse's candidate for a
#: ``%.17g`` field is right (a 53-bit one misses often, and the field goes
#: through float() instead).
_WIDE_LONG_DOUBLE = np.finfo(np.longdouble).nmant >= 63


class TestLoadValues:
    def test_seeded_fields_take_the_proven_path(self):
        values = 10.0 ** np.random.default_rng(30).uniform(-12, 0, 200_000)
        fields = _formatted(values)
        with mock.patch.object(models, "_float_values", wraps=models._float_values) as slow:
            parsed = _parsed(fields)
        assert _bits(parsed) == _bits([float(f) for f in fields]) == _bits(values)
        outside = np.count_nonzero(values < 1e-11)
        assert outside <= _by_float(slow)
        if _WIDE_LONG_DOUBLE:
            assert _by_float(slow) <= outside + len(values) // 1000

    def test_edge_values(self):
        fields = _formatted(_EDGE_VALUES)
        assert _bits(_parsed(fields)) == _bits([float(f) for f in fields]) == _bits(_EDGE_VALUES)
        assert _bits(_parsed(["0", "-0", "4.9406564584124654e-324", "1"])) == _bits(
            [0.0, -0.0, 5e-324, 1.0])

    @pytest.mark.parametrize("field", [
        "0.5", "0.10", ".5", "5.", "5e-1", "5E-01", "+0.5", "00.5", "0.50000000000000000000001",
        "0.1", "5e-05", "5.e-05", "0.5e-05", "0.0005", "0.00005", "1.5e-12", "9.99999999999999999",
        "1e-99", "1e400", "-0.5", "0.0", "0.000", "05.5",
        # Past 17 digits: read whole, this is not 0.12310473361077989.
        "0.1231047336107798999999"])
    def test_hand_written_fields_read_as_float_reads_them(self, field):
        assert _bits(_parsed(["0.5", field])) == _bits([0.5, float(field)])

    @settings(max_examples=200, deadline=None)
    @given(fields=st.lists(st.one_of(
        st.text("0123456789.eE+-", min_size=1, max_size=24),
        st.builds("{}{}{}{}".format, st.sampled_from(["", "0.", "0.0", "0.000", "0.0000", "00."]),
                  st.sampled_from(["", "5", "5."]), st.text("0123456789", max_size=20),
                  st.sampled_from(["", "e-05", "e-5", "e-123", "e-", "E-05", "e+05"])),
    ).filter(bool), min_size=1, max_size=6))
    def test_number_bytes_read_as_float_reads_them(self, fields):
        try:
            expected = [float(field) for field in fields]
        except ValueError:
            assert _parsed(fields) is None
        else:
            assert _bits(_parsed(fields)) == _bits(expected)

    @pytest.mark.parametrize("field", ["1_0", "0x1", "inf", "nan", "\u0665", ".", "e5", "1e",
                                       "--1", "1.5.5", "3e-0:", "1.5e-0;", "1.:"])
    def test_other_fields_are_left_to_the_walk(self, field):
        # float("1_0") is 10.0 and float("\u0665") 5.0: a file's walk reads them.
        assert _parsed(["0.5", field]) is None

    def test_digits_at_a_wrong_exponent_are_not_exact(self):
        # 4.77 * 10**19 overflows 64 bits: only the overflow check rejects it.
        _, _, exact = models._digits(np.array([4.7667291890649786, 0.5, 1e-11]),
                                     np.array([3, 0, 0]))
        assert not exact.any()

    def test_saved_file_reads_only_values_outside_the_digit_range_by_float(self, tmp_path):
        model = make_synthetic_target(5, vocab_size=24, order=2, concentration=0.05)
        path = tmp_path / "m.ngm"
        save_model(model, path)
        with _one_pass_parse_only(), mock.patch.object(
                models, "_float_values", wraps=models._float_values) as slow:
            loaded = load_model(path)
        assert loaded.rows.tobytes() == model.rows.tobytes()
        rows = model.rows[:-1]  # the fallback row is split, as the walk splits it
        outside = np.count_nonzero((rows < 1e-11) | (rows >= 10))
        assert 0 < outside <= _by_float(slow)
        if _WIDE_LONG_DOUBLE:
            assert _by_float(slow) <= outside + rows.size // 1000


class TestPaddedSuffix:
    def test_pads_short_histories(self):
        assert padded_suffix([7], 3, 99) == (99, 99, 7)

    def test_takes_suffix_of_long_histories(self):
        assert padded_suffix([1, 2, 3, 4], 2, 99) == (3, 4)


def _check_against_dict_oracle(model, table, fallback, queries, bad, tmp):
    """``lookup_rows`` and ``next_distribution`` read what a dict lookup
    reads, raise the same error on an out-of-range symbol, and the model
    saves the same bytes after a load."""
    expected = [table.get(tuple(q), fallback) for q in queries]
    rows = lookup_rows(model, np.array(queries, dtype=np.int64).reshape(-1, model.order))
    assert rows.shape == (len(queries), model.vocab.size)
    for q, row, want in zip(queries, rows, expected):
        np.testing.assert_array_equal(row, want)
        np.testing.assert_array_equal(next_distribution(model, q), want)
        # A pad-filled key read from its unpadded suffix is the same key.
        pads = 0
        while pads < len(q) and q[pads] == model.vocab.pad_id:
            pads += 1
        np.testing.assert_array_equal(next_distribution(model, q[pads:]), want)
    with pytest.raises(ValueError, match="out of range") as batch_error:
        lookup_rows(model, np.array([bad]))
    with pytest.raises(ValueError, match="out of range") as scalar_error:
        next_distribution(model, bad)
    assert str(batch_error.value) == str(scalar_error.value)
    save_model(model, tmp / "a.ngm")
    save_model(load_model(tmp / "a.ngm"), tmp / "b.ngm")
    assert (tmp / "a.ngm").read_bytes() == (tmp / "b.ngm").read_bytes()


def _dict_table(rng, vocab, keys):
    """Random rows, about 30% of their entries zero, for the given keys."""
    return {tuple(k): oracles.sparse_row(vocab.size, rng) for k in keys}


class TestPackedLookup:
    @pytest.mark.parametrize("cap", [models.DENSE_INDEX_MAX, 0], ids=["dense", "search"])
    def test_row_ids_are_intp(self, cap):
        # Row ids index ``rows`` without a conversion, from either index.
        with mock.patch.object(models, "DENSE_INDEX_MAX", cap):
            model = make_synthetic_target(1, vocab_size=3, order=2, concentration=0.5)
        contexts = np.array([[0, 1], [model.vocab.mask_id, 0]])
        assert models.row_ids(model, contexts).dtype == np.intp

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_lookups_match_a_dict_oracle(self, tmp_path_factory, data, seed):
        rng = np.random.default_rng(seed)
        vocab = Vocabulary(data.draw(st.integers(1, 4), label="vocab_size"))
        order = data.draw(st.integers(1, 3), label="order")
        dense = data.draw(st.booleans(), label="dense")
        # Any symbol: real, mask, feature, no-feature and pad. A sparse table
        # stores few of the contexts, a full one most of them.
        context = st.lists(st.integers(0, vocab.num_symbols - 1), min_size=order,
                           max_size=order)
        keys = data.draw(st.lists(context, unique_by=tuple, max_size=12), label="keys")
        table = _dict_table(rng, vocab, keys)
        fallback = oracles.sparse_row(vocab.size, rng)
        with mock.patch.object(models, "DENSE_INDEX_MAX", models.DENSE_INDEX_MAX if dense else 0):
            model = oracles.model_from_table(order, vocab, table, fallback)
        assert isinstance(model.code_rows, partial) != dense
        queries = keys + data.draw(st.lists(context, max_size=6), label="misses")
        bad = data.draw(context, label="bad")
        bad[data.draw(st.integers(0, order - 1), label="at")] = data.draw(
            st.sampled_from([-1, vocab.num_symbols, vocab.num_symbols + 7]), label="symbol")
        _check_against_dict_oracle(model, table, fallback, queries, bad,
                                   tmp_path_factory.mktemp("packed"))

    @pytest.mark.parametrize("order, code_dtype", [(8, np.int64), (23, object)])
    def test_code_spaces_above_the_dense_cap(self, tmp_path, order, code_dtype):
        # V=2 has 7 symbols: 7**8 is above the dense cap, 7**23 above 2**63.
        vocab = Vocabulary(2)
        assert vocab.num_symbols**order > models.DENSE_INDEX_MAX
        assert (vocab.num_symbols**order > 2**63) == (code_dtype is object)
        rng = np.random.default_rng(order)
        keys = rng.integers(0, vocab.num_symbols, size=(10, order))
        keys[0] = vocab.pad_id
        keys[1] = vocab.num_symbols - 1 - np.arange(order) % 2
        assert models.context_codes(keys, vocab.num_symbols).dtype == code_dtype
        table = _dict_table(rng, vocab, keys.tolist())
        fallback = oracles.sparse_row(vocab.size, rng)
        model = oracles.model_from_table(order, vocab, table, fallback)
        assert isinstance(model.code_rows, partial)
        misses = rng.integers(0, vocab.num_symbols, size=(5, order)).tolist()
        queries = keys.tolist() + misses + [[vocab.pad_id] * (order - 1) + [0]]
        bad = [0] * (order - 1) + [vocab.num_symbols]
        _check_against_dict_oracle(model, table, fallback, queries, bad, tmp_path)

    @pytest.mark.parametrize("order", [1, 8, 23])
    def test_duplicate_contexts_rejected(self, tmp_path, order):
        vocab = Vocabulary(2)
        keys = [(0,) * order, (1,) * order, (vocab.pad_id,) * order, (1,) * order]
        rows = [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [0.25, 0.75]]
        name = re.escape(str((1,) * order))
        with pytest.raises(ValueError, match=rf"^duplicate row for context {name}$"):
            TabularModel(order, vocab, keys, rows, [0.5, 0.5])
        path = tmp_path / "dup.ngm"
        lines = [f"ngram v=2 d={order}", _row_text(("*",), [0.5, 0.5])]
        path.write_text("\n".join(lines + [_row_text(k, p) for k, p in zip(keys, rows)]) + "\n")
        with pytest.raises(ValueError, match=rf"^duplicate row for context {name} in model file"):
            load_model(path)

    def test_table_is_a_view_whose_len_builds_nothing(self):
        model = make_synthetic_target(2, vocab_size=3, order=2, concentration=0.5)
        assert len(model.table) == len(model.contexts) == 16
        assert list(model.table) == [tuple(c) for c in model.contexts.tolist()]
        with pytest.raises(KeyError):
            model.table[(model.vocab.mask_id, 0)]
        with pytest.raises(KeyError):
            model.table[(0,)]


class TestSampleSequences:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_lockstep_matches_one_token_at_a_time(self, data, seed):
        vocab_size = data.draw(st.integers(2, 5), label="vocab_size")
        order = data.draw(st.integers(1, 4), label="order")
        length = data.draw(st.sampled_from([1, 2, 64]), label="length")
        count = data.draw(st.integers(1, 5), label="count")
        if data.draw(st.booleans(), label="sparse"):
            rng = np.random.default_rng(seed)
            vocab = Vocabulary(vocab_size)
            symbols = [*range(vocab_size), vocab.pad_id]
            keys = rng.choice(symbols, size=(8, order)).tolist()
            table = _dict_table(rng, vocab, dict.fromkeys(map(tuple, keys)))
            model = oracles.model_from_table(order, vocab, table,
                                             oracles.sparse_row(vocab_size, rng))
        else:
            model = make_synthetic_target(seed, vocab_size, order, 0.5)
        # One generator shared by all sequences, as sample_corpus draws.
        shared, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        tokens = sample_corpus(model, count, length, shared)
        assert tokens == [generate_autoregressive(model, (), length, "sample", reference)
                          for _ in range(count)]
        assert shared.bit_generator.state == reference.bit_generator.state
        # One generator per sequence, as gen --corpus and bench prompts draw.
        own = [np.random.default_rng([seed, i]) for i in range(count)]
        tokens = sample_sequences(model, np.array([g.random(length) for g in own]))
        for i, g in enumerate(own):
            reference = np.random.default_rng([seed, i])
            assert tokens[i].tolist() == generate_autoregressive(
                model, (), length, "sample", reference)
            assert g.bit_generator.state == reference.bit_generator.state

    def test_empirical_frequency_within_bound(self):
        # Stated bound 0.002 is looser than the binomial 3-sigma 0.0015.
        model = TabularModel(1, Vocabulary(2), [], [], [0.5, 0.5])
        tokens = sample_sequences(model, np.random.default_rng(123).random((10**6, 1)))
        assert tokens.shape == (10**6, 1)
        assert abs(np.mean(tokens == 0) - 0.5) <= 0.002

    @pytest.mark.parametrize("u", [0.0, 0.9999999999999])
    def test_draws_at_the_cdf_ends_match_sample_token(self, u):
        # A zero-probability first token and a CDF that tops out below 1:
        # neither end of the uniform range may land on a zero-probability token.
        vocab = Vocabulary(3)
        table = {(0,): [0.0, 0.4, 0.6], (1,): [0.3, 0.7 - 1e-12, 0.0]}
        model = oracles.model_from_table(1, vocab, table, [0.0, 1.0, 0.0])
        expected = generate_autoregressive(model, (), 6, "sample", oracles.FixedUniform(u))
        assert sample_sequences(model, np.full((2, 6), u)).tolist() == [expected] * 2

    @pytest.mark.parametrize("uniforms", [[0.1, 0.2], 0.5])
    def test_uniforms_that_are_not_2d_rejected(self, uniforms):
        model = make_synthetic_target(0, vocab_size=4, order=1, concentration=0.5)
        with pytest.raises(ValueError, match="uniforms must be 2-D"):
            sample_sequences(model, uniforms)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0)])
    def test_empty_uniforms_give_empty_sequences(self, shape):
        model = make_synthetic_target(0, vocab_size=4, order=2, concentration=0.5)
        tokens = sample_sequences(model, np.zeros(shape))
        assert tokens.shape == shape and tokens.dtype == np.int64

    @pytest.mark.parametrize("uniforms", [[[-0.5, 1.5]], [[0.5, 1.0]], [[0.5, np.nan]]])
    def test_uniforms_outside_the_unit_interval_rejected(self, uniforms):
        # Above the CDF's total a draw would invert to V, the mask symbol.
        model = make_synthetic_target(0, vocab_size=4, order=1, concentration=0.5)
        with pytest.raises(ValueError, match=r"uniform out of \[0, 1\)"):
            sample_sequences(model, uniforms)
