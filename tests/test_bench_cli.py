"""Tests for the benchmark runner, report files, and the CLI."""

import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from speclab.bench import (
    analyze_reports,
    format_analysis,
    run_bench,
    spearman_correlation,
    write_confidence_csv,
    write_position_csv,
)
from speclab import cli, models
from speclab.cli import main
from speclab.models import MAX_ORDER, load_model, make_synthetic_target
from speclab.verification import NUM_CONFIDENCE_BINS


@pytest.fixture(scope="module")
def small_bench():
    target = make_synthetic_target(1, vocab_size=6, order=1, concentration=0.4)
    drafter = oracles.random_order1_model(6, np.random.default_rng(2))
    return run_bench(
        target, drafter, draft_len=4, mode="independent", verify="stochastic",
        num_prompts=6, prompt_len=3, max_tokens=40, seed=5,
    )


class TestBenchReport:
    def test_speedup_identity(self, small_bench):
        r = small_bench
        assert abs(r.speedup_estimate * (1 + r.draft_cost) - r.committed_per_step) <= 1e-12

    def test_tau_matches_recomputation(self, small_bench):
        r = small_bench
        hist = r.trace.accept_hist
        recomputed = float(np.mean(np.repeat(np.arange(len(hist)), hist)))
        assert abs(r.tau - recomputed) <= 1e-12

    def test_zero_draft_cost_identity(self):
        target = make_synthetic_target(1, vocab_size=4, order=1, concentration=0.5)
        r = run_bench(
            target, target, draft_len=2, mode="independent", verify="stochastic",
            num_prompts=2, prompt_len=2, max_tokens=10, seed=0, draft_cost=0.0,
        )
        assert r.speedup_estimate == r.committed_per_step

    def test_rates_in_unit_interval(self, small_bench):
        for _, _, _, rate in small_bench.position_rows:
            assert 0.0 <= rate <= 1.0
        for _, _, _, _, rate in small_bench.confidence_rows:
            assert 0.0 <= rate <= 1.0

    def test_json_includes_trace_and_bench_fields(self, small_bench):
        data = small_bench.to_json_dict()
        for key in (
            "steps", "tau", "committed_per_step", "position_stats", "confidence_bins",
            "total_tokens", "speedup_estimate", "draft_cost", "correlation",
            "position_curve", "confidence_curve", "config",
        ):
            assert key in data
        assert data["config"]["vocab"] == 6

    def test_json_schema(self, small_bench):
        data = small_bench.to_json_dict()
        assert list(data) == [
            "steps", "tau", "committed_per_step", "position_stats", "confidence_bins",
            "total_tokens", "speedup_estimate", "draft_cost", "correlation",
            "position_curve", "confidence_curve", "config",
        ]
        assert len(data["position_stats"]) == 4
        assert len(data["confidence_bins"]) == 10
        assert set(data["position_stats"][0]) == {"k", "attempts", "accepts"}
        assert set(data["confidence_bins"][0]) == {"lo", "hi", "attempts", "accepts"}

    def test_csv_schemas(self, small_bench, tmp_path):
        ppath, cpath = tmp_path / "p.csv", tmp_path / "c.csv"
        write_position_csv(small_bench, ppath)
        write_confidence_csv(small_bench, cpath)
        plines = ppath.read_text().splitlines()
        clines = cpath.read_text().splitlines()
        assert plines[0] == "k,attempts,accepts,rate"
        assert clines[0] == "bin_lo,bin_hi,attempts,accepts,rate"
        assert len(plines) == 1 + 4
        assert len(clines) == 1 + 10

    def test_empty_prompt_list_rejected_before_decoding(self):
        # The drafter's vocabulary does not match, which decode_loop would
        # report first if any prompt were decoded.
        target = make_synthetic_target(1, vocab_size=4, order=1, concentration=0.5)
        drafter = make_synthetic_target(1, vocab_size=5, order=1, concentration=0.5)
        with pytest.raises(ValueError, match="prompts must be nonempty"):
            run_bench(target, drafter, draft_len=2, mode="independent", verify="greedy",
                      prompts=[])

    @pytest.mark.parametrize("max_tokens, draft_len", [(0, 2), (-3, 2), (8, 0)])
    def test_nonpositive_lengths_rejected_before_a_report(self, max_tokens, draft_len):
        # Before, max_tokens = 0 gave a zero-step report with tau 0.0.
        target = make_synthetic_target(1, vocab_size=4, order=1, concentration=0.5)
        name, value = ("max_tokens", max_tokens) if max_tokens < 1 else ("draft_len", draft_len)
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got {value}$"):
            run_bench(target, target, draft_len=draft_len, mode="independent",
                      verify="stochastic", num_prompts=2, prompt_len=2, max_tokens=max_tokens)

    def test_invalid_cost_rejected(self):
        # Unchecked, NaN and Infinity would be written into the report.
        target = make_synthetic_target(1, vocab_size=4, order=1, concentration=0.5)
        for draft_cost in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="draft_cost must be finite and >= 0"):
                run_bench(target, target, draft_len=2, mode="independent", verify="greedy",
                          draft_cost=draft_cost)


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman_correlation([1, 2, 3, 4], [0.1, 0.2, 0.5, 0.9]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert spearman_correlation([1, 2, 3], [0.9, 0.5, 0.1]) == pytest.approx(-1.0)

    def test_constant_is_undefined(self):
        assert spearman_correlation([1, 2, 3], [0.5, 0.5, 0.5]) is None

    def test_too_few_points_is_undefined(self):
        assert spearman_correlation([1.0], [0.5]) is None

    @staticmethod
    def _scipy(xs, ys):
        """The reference: scipy's statistic, None where it is NaN or n < 2."""
        if len(xs) < 2:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rho = stats.spearmanr(xs, ys).statistic
        return None if math.isnan(rho) else float(rho)

    @settings(max_examples=400, deadline=None)
    @given(st.sets(st.integers(0, NUM_CONFIDENCE_BINS - 1)),
           st.lists(st.integers(1, 6).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))),
                    min_size=NUM_CONFIDENCE_BINS, max_size=NUM_CONFIDENCE_BINS))
    def test_bench_shaped_input_equals_scipy(self, bins, counts):
        # Distinct increasing bin centers, as BenchReport.correlation passes
        # them, and rates a/n that tie often.
        bins = sorted(bins)
        xs = [(b / NUM_CONFIDENCE_BINS + (b + 1) / NUM_CONFIDENCE_BINS) / 2.0 for b in bins]
        ys = [counts[b][0] / counts[b][1] for b in bins]
        assert spearman_correlation(xs, ys) == self._scipy(xs, ys)

    _VALUES = st.one_of(st.integers(-3, 3),
                        st.sampled_from([0.5, -0.0, math.inf, -math.inf, math.nan]),
                        st.floats(allow_nan=True))

    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.tuples(_VALUES, _VALUES), max_size=12), st.sampled_from([None, 0, 1]))
    def test_general_input_equals_scipy(self, pairs, constant):
        # Integer ties, infinities, NaN, and (when `constant` names a column)
        # a constant column.
        columns = [[pair[j] for pair in pairs] for j in (0, 1)]
        if constant is not None and pairs:
            columns[constant] = [columns[constant][0]] * len(pairs)
        assert spearman_correlation(*columns) == self._scipy(*columns)


class TestAnalyze:
    def _report(self, tau, vocab=8, order=2):
        committed = tau + 1
        return {
            "tau": tau,
            "committed_per_step": committed,
            "speedup_estimate": committed / 1.1,
            "config": {"vocab": vocab, "target_order": order},
        }

    def test_identical_reports_have_zero_deltas(self):
        rows = analyze_reports(
            [("a", self._report(4.0)), ("b", self._report(4.0))], baseline="a"
        )
        assert all(r["delta_tau"] == 0.0 for r in rows)

    def test_delta_arithmetic(self):
        rows = analyze_reports(
            [("a", self._report(4.0)), ("b", self._report(5.0))], baseline="a"
        )
        by_name = {r["run"]: r for r in rows}
        assert by_name["b"]["delta_tau"] == pytest.approx(1.0)

    def test_row_count_matches_inputs(self):
        reports = [(f"r{i}", self._report(2.0 + i)) for i in range(4)]
        assert len(analyze_reports(reports, baseline="r0")) == 4

    def test_vocab_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            analyze_reports(
                [("a", self._report(4.0, vocab=8)), ("b", self._report(4.0, vocab=16))],
                baseline="a",
            )

    @pytest.mark.parametrize("names, baseline, message", [
        (["a"], "a", "need at least two reports to compare"),
        (["a", "b"], "c", "baseline 'c' is not among the reports: ['a', 'b']"),
    ])
    def test_too_few_reports_or_an_unknown_baseline_rejected(self, names, baseline, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            analyze_reports([(name, self._report(4.0)) for name in names], baseline=baseline)

    def test_unknown_format_rejected(self):
        rows = analyze_reports(
            [("a", self._report(4.0)), ("b", self._report(5.0))], baseline="a"
        )
        with pytest.raises(ValueError, match=r"^format must be 'markdown' or 'csv', got 'html'$"):
            format_analysis(rows, "html")

    def test_formats(self):
        rows = analyze_reports(
            [("a", self._report(4.0)), ("b", self._report(5.0))], baseline="a"
        )
        md = format_analysis(rows, "markdown")
        csv = format_analysis(rows, "csv")
        assert md.startswith("| run |")
        assert csv.splitlines()[0] == "run,tau,committed_per_step,speedup_estimate,delta_tau,delta_speedup"


class TestCLI:
    def _gen(self, tmp_path, name="target.ngm", extra=()):
        out = tmp_path / name
        code = main([
            "gen", "--vocab", "8", "--order", "2", "--alpha", "0.3",
            "--seed", "7", "--out", str(out), *extra,
        ])
        assert code == 0
        return out

    def test_gen_is_byte_reproducible(self, tmp_path):
        a = self._gen(tmp_path, "a.ngm")
        b = self._gen(tmp_path, "b.ngm")
        assert a.read_bytes() == b.read_bytes()

    def test_gen_corpus_shape_and_range(self, tmp_path):
        corpus_path = tmp_path / "c.txt"
        self._gen(tmp_path, extra=["--corpus", "12x9", "--corpus-out", str(corpus_path)])
        lines = corpus_path.read_text().splitlines()
        assert len(lines) == 12
        for line in lines:
            toks = [int(t) for t in line.split()]
            assert len(toks) == 9
            assert all(0 <= t < 8 for t in toks)

    def test_gen_prints_stage_times_to_stderr_only(self, tmp_path, capsys):
        self._gen(tmp_path, "a.ngm")
        plain = capsys.readouterr()
        corpus_path = tmp_path / "c.txt"
        self._gen(tmp_path, "b.ngm", extra=["--corpus", "12x9", "--corpus-out", str(corpus_path)])
        with_corpus = capsys.readouterr()
        assert re.search(r"^time: generate \d+\.\d{3} s, save \d+\.\d{3} s$", plain.err, re.M)
        assert re.search(r"^time: generate \d+\.\d{3} s, save \d+\.\d{3} s, "
                         r"corpus \d+\.\d{3} s$", with_corpus.err, re.M)
        assert plain.out == f"wrote target model: {tmp_path / 'a.ngm'}\n"
        assert with_corpus.out == (f"wrote target model: {tmp_path / 'b.ngm'}\n"
                                   f"wrote corpus (12x9): {corpus_path}\n")

    def _train(self, tmp_path, target, name, *flags):
        out = tmp_path / name
        code = main([
            "train", "--target", str(target), "--out", str(out),
            "--K", "4", "--data-seqs", "24", "--data-len", "16", "--seed", "3", *flags,
        ])
        assert code == 0
        return out

    def test_decay_gamma_one_equals_uniform(self, tmp_path):
        target = self._gen(tmp_path)
        a = self._train(tmp_path, target, "u.ngm", "--weighting", "uniform")
        b = self._train(tmp_path, target, "d.ngm", "--weighting", "decay", "--gamma", "1.0")
        assert a.read_bytes() == b.read_bytes()

    def test_train_is_deterministic(self, tmp_path):
        target = self._gen(tmp_path)
        a = self._train(tmp_path, target, "d1.ngm", "--weighting", "cat")
        b = self._train(tmp_path, target, "d2.ngm", "--weighting", "cat")
        assert a.read_bytes() == b.read_bytes()

    def test_train_reports_window_count(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        self._train(tmp_path, target, "d.ngm")
        out = capsys.readouterr().out
        assert "windows: " in out
        assert "mean window loss: " in out

    def test_train_prints_stage_times_to_stderr_only(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        self._train(tmp_path, target, "d.ngm")
        captured = capsys.readouterr()
        assert re.search(r"^time: load \d+\.\d{3} s, corpus \d+\.\d{3} s, "
                         r"windows \d+\.\d{3} s, solve \d+\.\d{3} s, "
                         r"loss \d+\.\d{3} s, save \d+\.\d{3} s$", captured.err, re.M)
        assert "time:" not in captured.out

    def test_train_config_file_warns_on_gradient_keys(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        sheet = tmp_path / "hparams.cfg"
        sheet.write_text("learning_rate = 1e-5\nK = 4\n")
        out = tmp_path / "d.ngm"
        code = main([
            "train", "--target", str(target), "--out", str(out),
            "--data-seqs", "16", "--data-len", "12", "--train-config", str(sheet),
        ])
        assert code == 0
        assert "learning_rate" in capsys.readouterr().err

    def test_train_on_corpus_file(self, tmp_path):
        target = self._gen(tmp_path)
        corpus = tmp_path / "c.txt"
        main(["gen", "--vocab", "8", "--order", "2", "--seed", "7",
              "--out", str(tmp_path / "t2.ngm"), "--corpus", "30x12",
              "--corpus-out", str(corpus)])
        out = tmp_path / "d.ngm"
        code = main([
            "train", "--target", str(target), "--out", str(out),
            "--K", "4", "--corpus", str(corpus),
        ])
        assert code == 0
        assert load_model(out).order == 2

    def test_train_corpus_token_out_of_range_exit_3(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        out = tmp_path / "d.ngm"
        for bad in ("-1", "8"):  # neither is a token when V = 8
            corpus = tmp_path / "c.txt"
            corpus.write_text(f"0 1 2 3 4 5 {bad}\n")
            code = main(["train", "--target", str(target), "--out", str(out),
                         "--K", "4", "--corpus", str(corpus)])
            assert code == 3
            assert f"{corpus} line 1: token out of range [0, 8): {bad}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("text", ["", "0 1 2 3\n\n7 6\n"], ids=["empty", "short-lines"])
    def test_train_corpus_without_a_window_names_the_rule_exit_3(self, tmp_path, capsys, text):
        target = self._gen(tmp_path)
        corpus = tmp_path / "c.txt"
        corpus.write_text(text)
        out = tmp_path / "d.ngm"
        capsys.readouterr()
        code = main(["train", "--target", str(target), "--out", str(out),
                     "--K", "4", "--corpus", str(corpus)])
        assert code == 3
        assert capsys.readouterr().err == (f"error: {corpus}: no line has a training window: "
                                           "a line needs at least K + 1 = 5 tokens\n")
        assert not out.exists()

    def test_train_corpus_token_out_of_range_names_the_line_exit_3(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        corpus = tmp_path / "c.txt"
        corpus.write_text("0 1 2 3 4 5\n\n7 6 5 9 4 3\n")
        out = tmp_path / "d.ngm"
        code = main(["train", "--target", str(target), "--out", str(out),
                     "--K", "4", "--corpus", str(corpus)])
        assert code == 3
        assert f"{corpus} line 3: token out of range [0, 8): 9" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_model_row_exit_3(self, tmp_path, capsys):
        target = tmp_path / "dup.ngm"
        target.write_text("ngram v=2 d=1\n*\t0.5 0.5\n0\t0.25 0.75\n0\t0.75 0.25\n")
        code = main(["train", "--target", str(target), "--out", str(tmp_path / "d.ngm")])
        assert code == 3
        assert "duplicate row for context (0,)" in capsys.readouterr().err

    def _bench(self, tmp_path, target, drafter, name="rep.json", *flags):
        out = tmp_path / name
        code = main([
            "bench", "--target", str(target), "--drafter", str(drafter),
            "--out", str(out), "--K", "4", "--prompts", "4",
            "--prompt-len", "4", "--max-tokens", "24", "--seed", "2", *flags,
        ])
        assert code == 0
        return out

    def test_bench_writes_report_and_csvs(self, tmp_path):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        rep = self._bench(tmp_path, target, drafter)
        data = json.loads(rep.read_text())
        assert data["config"]["draft_len"] == 4
        assert (tmp_path / "rep.positions.csv").exists()
        assert (tmp_path / "rep.confidence.csv").exists()

    def test_report_rows_match_the_csvs(self, tmp_path):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        data = json.loads(self._bench(tmp_path, target, drafter, "rep.json",
                                      "--verify", "stochastic").read_text())
        positions = [line.split(",") for line in
                     (tmp_path / "rep.positions.csv").read_text().splitlines()[1:]]
        assert len(positions) == len(data["position_stats"]) == len(data["position_curve"]) == 4
        for (k, attempts, accepts, rate), stats, curve in zip(
                positions, data["position_stats"], data["position_curve"]):
            assert stats == {"k": int(k), "attempts": int(attempts), "accepts": int(accepts)}
            assert curve == {"k": int(k), "rate": float(rate)}
        bins = [line.split(",") for line in
                (tmp_path / "rep.confidence.csv").read_text().splitlines()[1:]]
        assert len(bins) == len(data["confidence_bins"]) == len(data["confidence_curve"]) == 10
        for (lo, hi, attempts, accepts, rate), stats, curve in zip(
                bins, data["confidence_bins"], data["confidence_curve"]):
            assert stats == {"lo": float(lo), "hi": float(hi), "attempts": int(attempts),
                             "accepts": int(accepts)}
            assert curve == {"center": (float(lo) + float(hi)) / 2.0, "rate": float(rate)}
        assert sum(int(row[2]) for row in positions) > 0

    @pytest.mark.parametrize("flag, written", [
        ("--positions-csv", ["rep.json"]),
        ("--confidence-csv", ["rep.json", "rep.positions.csv"]),
    ])
    def test_bench_failed_write_leaves_no_partial_result(self, tmp_path, capsys, flag,
                                                         written):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        before = set(tmp_path.iterdir())
        code = main(["bench", "--target", str(target), "--drafter", str(drafter),
                     "--out", str(tmp_path / "rep.json"), "--K", "4", "--prompts", "4",
                     "--max-tokens", "24", flag, str(tmp_path / "nodir" / "x.csv")])
        assert code == 2
        assert "i/o error:" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before
        # The same run without the bad path writes the files the failed one removed.
        self._bench(tmp_path, target, drafter)
        assert all((tmp_path / name).exists() for name in written)

    def test_bench_prints_stage_times_to_stderr_only(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        capsys.readouterr()
        self._bench(tmp_path, target, drafter)
        captured = capsys.readouterr()
        assert re.search(r"^time: load \d+\.\d{3} s, prompts \d+\.\d{3} s, "
                         r"decode \d+\.\d{3} s, \d+ tok/s$",
                         captured.err, re.M)
        assert "time:" not in captured.out

    def test_bench_warns_for_featureless_drafter_in_dependent_mode(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm", "--rho", "1.0")
        self._bench(tmp_path, target, drafter, "rep.json", "--mode", "dependent")
        assert "feature" in capsys.readouterr().err

    def test_bench_prompt_file(self, tmp_path):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("0 1 2\n3 4 5\n")
        rep = self._bench(tmp_path, target, drafter, "rep.json", "--prompt-file", str(prompts))
        assert json.loads(rep.read_text())["config"]["num_prompts"] == 2

    def test_bench_names_a_model_file_that_is_not_utf8_exit_3(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        drafter.write_bytes(drafter.read_bytes().replace(b"\t", b"\t\xff", 1))
        out = tmp_path / "rep.json"
        capsys.readouterr()
        code = main(["bench", "--target", str(target), "--drafter", str(drafter),
                     "--out", str(out), "--K", "4"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert err.endswith(f" in model file: {drafter}\n")
        assert not out.exists()

    def test_bench_names_a_prompt_file_that_is_not_utf8_exit_3(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        prompts = tmp_path / "prompts.txt"
        prompts.write_bytes(b"0 1 2 3\n4 \xff 5\n")
        out = tmp_path / "rep.json"
        capsys.readouterr()
        code = main(["bench", "--target", str(target), "--drafter", str(drafter),
                     "--out", str(out), "--K", "4", "--prompt-file", str(prompts)])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            f"error: {prompts}: 'utf-8' codec can't decode byte 0xff in position 10")
        assert not out.exists()

    def test_train_names_a_corpus_that_is_not_utf8_exit_3(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"0 1 2 3 4 5\n\xff\n")
        out = tmp_path / "d.ngm"
        capsys.readouterr()
        code = main(["train", "--target", str(target), "--out", str(out),
                     "--K", "4", "--corpus", str(corpus)])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            f"error: {corpus}: 'utf-8' codec can't decode byte 0xff in position 12")
        assert not out.exists()

    def test_gen_names_a_config_file_that_is_not_utf8_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"vocab = 8\norder = \xff\n")
        out = tmp_path / "t.ngm"
        code = main(["gen", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: 'utf-8' codec can't decode byte 0xff in position 18")
        assert not out.exists()

    def test_bench_prompt_file_token_out_of_range_exit_3(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("8 1 2 3 4 5 6 7 0 1 2 3\n")  # 8 is not a token when V = 8
        out = tmp_path / "rep.json"
        code = main(["bench", "--target", str(target), "--drafter", str(drafter),
                     "--out", str(out), "--K", "4", "--prompt-file", str(prompts)])
        assert code == 3
        assert f"{prompts} line 1: token out of range [0, 8): 8" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_prompt_file_token_out_of_range_names_the_line_exit_3(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("0 1 2\n1 -1 3\n")
        out = tmp_path / "rep.json"
        code = main(["bench", "--target", str(target), "--drafter", str(drafter),
                     "--out", str(out), "--K", "4", "--prompt-file", str(prompts)])
        assert code == 3
        assert f"{prompts} line 2: token out of range [0, 8): -1" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_prompt_file_bad_token_names_the_line_exit_3(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("0 1 2\n\n1 2 x\n")
        out = tmp_path / "rep.json"
        code = main(["bench", "--target", str(target), "--drafter", str(drafter),
                     "--out", str(out), "--K", "4", "--prompt-file", str(prompts)])
        assert code == 3
        assert f"{prompts} line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_train_corpus_bad_token_names_the_line_exit_3(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        corpus = tmp_path / "c.txt"
        corpus.write_text("0 1 2 3 4 5\n1 2 3.5 4 5 6\n")
        out = tmp_path / "d.ngm"
        code = main(["train", "--target", str(target), "--out", str(out),
                     "--K", "4", "--corpus", str(corpus)])
        assert code == 3
        assert f"{corpus} line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_empty_prompt_file_exit_3(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("\n")
        out = tmp_path / "rep.json"
        code = main(["bench", "--target", str(target), "--drafter", str(drafter),
                     "--out", str(out), "--K", "4", "--prompt-file", str(prompts)])
        assert code == 3
        assert str(prompts) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--prompts", "--prompt-len"])
    def test_bench_zero_prompt_count_or_length_exit_1(self, tmp_path, capsys, flag):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        out = tmp_path / "rep.json"
        code = main(["bench", "--target", str(target), "--drafter", str(drafter),
                     "--out", str(out), "--K", "4", flag, "0"])
        assert code == 1
        assert "--prompts and --prompt-len must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gen_non_finite_alpha_exit_1(self, tmp_path, capsys, value):
        out = tmp_path / "t.ngm"
        assert main(["gen", "--alpha", value, "--out", str(out)]) == 1
        assert "--alpha" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--beta", "nan"), ("--beta", "inf"),
                                             ("--smoothing", "nan"), ("--smoothing", "inf")])
    def test_train_non_finite_coefficient_exit_1(self, tmp_path, capsys, flag, value):
        # NaN passes a plain ">= 0" test and turns its term off; the others
        # would fail only later, as "distribution sums to nan" (exit 3).
        target = self._gen(tmp_path)
        out = tmp_path / "d.ngm"
        code = main(["train", "--target", str(target), "--out", str(out), flag, value])
        assert code == 1
        assert f"{flag[2:]} must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_train_config_non_finite_kd_weight_exit_1(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        sheet = tmp_path / "hparams.cfg"
        sheet.write_text("kd_weight = nan\n")
        out = tmp_path / "d.ngm"
        code = main(["train", "--target", str(target), "--out", str(out),
                     "--train-config", str(sheet)])
        assert code == 1
        assert "kd_weight must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bench_bad_draft_cost_exit_1(self, tmp_path, capsys, value):
        target = self._gen(tmp_path)
        out = tmp_path / "rep.json"
        code = main(["bench", "--target", str(target), "--drafter", str(target),
                     "--out", str(out), "--draft-cost", value])
        assert code == 1
        assert "--draft-cost must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_unknown_baseline_exit_1(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        r1 = self._bench(tmp_path, target, drafter, "r1.json")
        r2 = self._bench(tmp_path, target, drafter, "r2.json")
        capsys.readouterr()
        assert main(["analyze", str(r1), str(r2), "--baseline", "nope"]) == 1
        assert "'nope'" in capsys.readouterr().err

    def test_analyze_rejects_reports_with_the_same_name(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        r1 = self._bench(tmp_path, target, drafter, "a/report.json")
        r2 = self._bench(tmp_path, target, drafter, "b/report.json")
        capsys.readouterr()
        assert main(["analyze", str(r1), str(r2)]) == 1
        assert "'report'" in capsys.readouterr().err

    def test_analyze_deltas_and_output(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        r1 = self._bench(tmp_path, target, drafter, "r1.json")
        r2 = self._bench(tmp_path, target, drafter, "r2.json")
        capsys.readouterr()  # drop pipeline chatter
        code = main(["analyze", str(r1), str(r2), "--baseline", str(r1), "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        rows = out.strip().splitlines()
        assert len(rows) == 3
        assert rows[1].split(",")[4] == "0.0"  # delta_tau of the baseline run

    def test_analyze_mismatched_reports_exit_3(self, tmp_path):
        target8 = self._gen(tmp_path, "t8.ngm")
        drafter8 = self._train(tmp_path, target8, "d8.ngm")
        r1 = self._bench(tmp_path, target8, drafter8, "r1.json")
        out16 = tmp_path / "t16.ngm"
        main(["gen", "--vocab", "16", "--order", "2", "--seed", "1", "--out", str(out16)])
        d16 = tmp_path / "d16.ngm"
        main(["train", "--target", str(out16), "--out", str(d16), "--K", "4",
              "--data-seqs", "16", "--data-len", "12"])
        r2 = tmp_path / "r2.json"
        main(["bench", "--target", str(out16), "--drafter", str(d16), "--out", str(r2),
              "--K", "4", "--prompts", "2", "--max-tokens", "12"])
        assert main(["analyze", str(r1), str(r2), "--baseline", str(r1)]) == 3

    def test_usage_error_exit_1(self, tmp_path):
        assert main(["gen", "--vocab", "8", "--order", "2"]) == 1  # missing --out
        assert main(["train", "--target", "x", "--out", "y", "--rho", "2.0"]) == 1
        assert main(["bench"]) == 1
        assert main(["gen", "--no-such-flag"]) == 1

    def test_missing_file_exit_2(self, tmp_path):
        assert main([
            "train", "--target", str(tmp_path / "absent.ngm"),
            "--out", str(tmp_path / "d.ngm"),
        ]) == 2

    def test_corrupt_model_exit_3(self, tmp_path):
        bad = tmp_path / "bad.ngm"
        bad.write_text("ngram v=2 d=1\n*\t0.9 0.3\n")
        assert main([
            "train", "--target", str(bad), "--out", str(tmp_path / "d.ngm"),
        ]) == 3

    def test_config_file_supplies_flags_cli_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out_model = tmp_path / "cfg_target.ngm"
        cfg.write_text(f"vocab = 8\norder = 1\nalpha = 0.4\nseed = 9\nout = {out_model}\n")
        assert main(["gen", "--config", str(cfg)]) == 0
        assert load_model(out_model).order == 1
        # command line overrides the file
        out2 = tmp_path / "cfg_target2.ngm"
        assert main(["gen", "--config", str(cfg), "--order", "2", "--out", str(out2)]) == 0
        assert load_model(out2).order == 2

    def test_malformed_config_line_exit_codes(self, tmp_path):
        # One key=value reader; --config errors are usage errors, while a bad
        # --train-config sheet is a validation error.
        bad = tmp_path / "bad.cfg"
        bad.write_text("vocab 8\n")
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "t.ngm")]) == 1
        target = self._gen(tmp_path)
        assert main(["train", "--target", str(target), "--out", str(tmp_path / "d.ngm"),
                     "--train-config", str(bad)]) == 3

    def test_unknown_config_key_exit_1(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 3\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "t.ngm")]) == 1

    def test_train_config_file_matches_the_flags(self, tmp_path):
        target = self._gen(tmp_path)
        flags = self._train(tmp_path, target, "flags.ngm", "--weighting", "decay",
                            "--gamma", "0.8", "--rho", "0.3", "--beta", "0.2",
                            "--smoothing", "0.05", "--drafter-order", "1")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"target = {target}\nout = {tmp_path / 'cfg.ngm'}\nweighting = decay\n"
                       "gamma = 0.8\ndraft_len = 4\nrho = 0.3\nbeta = 0.2\nsmoothing = 0.05\n"
                       "drafter-order = 1\nseed = 3\ndata-seqs = 24\ndata_len = 16\n")
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "cfg.ngm").read_bytes() == flags.read_bytes()

    def test_bench_config_file_matches_the_flags(self, tmp_path):
        target = self._gen(tmp_path)
        drafter = self._train(tmp_path, target, "d.ngm")
        self._bench(tmp_path, target, drafter, "flags.json", "--mode", "independent",
                    "--verify", "stochastic", "--draft-cost", "0.3",
                    "--positions-csv", str(tmp_path / "flags.pos.csv"),
                    "--confidence-csv", str(tmp_path / "flags.conf.csv"))
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"target = {target}\ndrafter = {drafter}\nout = {tmp_path / 'cfg.json'}\n"
                       "mode = independent\nverify = stochastic\ndraft_len = 4\nprompts = 4\n"
                       "prompt-len = 4\nmax_tokens = 24\nseed = 2\ndraft-cost = 0.3\n"
                       f"positions_csv = {tmp_path / 'cfg.pos.csv'}\n"
                       f"confidence-csv = {tmp_path / 'cfg.conf.csv'}\n")
        assert main(["bench", "--config", str(cfg)]) == 0
        for flags_name, cfg_name in [("flags.json", "cfg.json"), ("flags.pos.csv", "cfg.pos.csv"),
                                     ("flags.conf.csv", "cfg.conf.csv")]:
            assert (tmp_path / cfg_name).read_bytes() == (tmp_path / flags_name).read_bytes()

    @pytest.mark.parametrize("command, key, value", [
        *[("gen", key, value) for key, value in [
            ("vocab", "4"), ("order", "1"), ("alpha", "0.5"), ("seed", "1"), ("out", "PATH"),
            ("corpus", "2x3"), ("corpus_out", "PATH"), ("corpus_seed", "1")]],
        *[("train", key, value) for key, value in [
            ("target", "PATH"), ("out", "PATH"), ("weighting", "cat"), ("gamma", "0.5"),
            ("draft_len", "2"), ("rho", "0.5"), ("beta", "0.5"), ("smoothing", "0.5"),
            ("drafter_order", "1"), ("seed", "1"), ("data_seqs", "2"), ("data_len", "3"),
            ("corpus", "PATH")]],
        *[("bench", key, value) for key, value in [
            ("target", "PATH"), ("drafter", "PATH"), ("out", "PATH"), ("mode", "independent"),
            ("verify", "stochastic"), ("draft_len", "2"), ("prompts", "2"), ("prompt_len", "2"),
            ("max_tokens", "2"), ("seed", "1"), ("draft_cost", "0.5"), ("prompt_file", "PATH"),
            ("positions_csv", "PATH"), ("confidence_csv", "PATH")]],
    ])
    def test_every_option_is_a_config_key(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key.replace('_', '-')} = {value.replace('PATH', str(tmp_path / 'f'))}\n")
        main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert "config key" not in err and "invalid" not in err

    @pytest.mark.parametrize("command, key", [("gen", "config"), ("train", "config"),
                                              ("train", "train_config"), ("bench", "config"),
                                              ("bench", "train-config")])
    def test_config_file_options_are_not_config_keys(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {tmp_path / 'other.cfg'}\n")
        assert main([command, "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_train_draft_len_precedence(self, tmp_path):
        # command line > --config > --train-config > TrainConfig default (16)
        target = self._gen(tmp_path)
        (tmp_path / "run.cfg").write_text("draft_len = 5\n")
        (tmp_path / "sheet.cfg").write_text("K = 6\n")
        config = ["--config", str(tmp_path / "run.cfg")]
        sheet = ["--train-config", str(tmp_path / "sheet.cfg")]

        def train(name, *flags):
            out = tmp_path / name
            assert main(["train", "--target", str(target), "--out", str(out), "--seed", "3",
                         "--data-seqs", "8", "--data-len", "20", *flags]) == 0
            return out.read_bytes()

        expected = {k: train(f"k{k}.ngm", "--K", str(k)) for k in (3, 5, 6, 16)}
        assert len(set(expected.values())) == 4
        assert train("cli.ngm", "--K", "3", *config, *sheet) == expected[3]
        assert train("config.ngm", *config, *sheet) == expected[5]
        assert train("sheet.ngm", *sheet) == expected[6]
        assert train("default.ngm") == expected[16]

    def test_bench_draft_len_precedence(self, tmp_path):
        # command line > --config > default (16)
        target = self._gen(tmp_path)
        (tmp_path / "run.cfg").write_text("draft_len = 5\n")

        def draft_len(*flags):
            out = tmp_path / "rep.json"
            assert main(["bench", "--target", str(target), "--drafter", str(target),
                         "--out", str(out), "--mode", "independent", "--prompts", "2",
                         "--max-tokens", "8", *flags]) == 0
            return json.loads(out.read_text())["config"]["draft_len"]

        assert draft_len("--K", "3", "--config", str(tmp_path / "run.cfg")) == 3
        assert draft_len("--config", str(tmp_path / "run.cfg")) == 5
        assert draft_len() == 16

    @pytest.mark.parametrize("command, key", [("gen", "vocab"), ("train", "rho"),
                                              ("bench", "max_tokens"), ("bench", "draft_len")])
    def test_bad_config_value_exit_1(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = x\n")
        assert main([command, "--config", str(cfg)]) == 1
        assert "'x'" in capsys.readouterr().err

    def test_corpus_seed_changes_the_corpus_not_the_target(self, tmp_path):
        def gen(name, *flags):
            self._gen(tmp_path, f"{name}.ngm",
                      ["--corpus", "5x6", "--corpus-out", str(tmp_path / f"{name}.txt"), *flags])
            return (tmp_path / f"{name}.ngm").read_bytes(), (tmp_path / f"{name}.txt").read_text()

        default = gen("default")
        other = gen("other", "--corpus-seed", "3")
        same = gen("same", "--corpus-seed", "7")  # _gen passes --seed 7
        assert other[0] == default[0] and other[1] != default[1]
        assert same == default

    @pytest.mark.parametrize("flags, message", [
        (["--corpus-out", "c.txt"], "require --corpus"),
        (["--corpus-seed", "3"], "require --corpus"),
        (["--corpus", "2x3"], "--corpus requires --corpus-out"),
    ], ids=["corpus-out", "corpus-seed", "corpus"])
    def test_gen_corpus_flags_without_their_partner_exit_1(self, tmp_path, capsys, flags,
                                                           message):
        out = tmp_path / "t.ngm"
        flags = [str(tmp_path / flag) if flag.endswith(".txt") else flag for flag in flags]
        assert main(["gen", "--out", str(out), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "c.txt").exists()

    def test_gen_failed_corpus_write_leaves_no_target(self, tmp_path, capsys):
        out, corpus = tmp_path / "t.ngm", tmp_path / "c.txt"
        assert main(["gen", "--out", str(out), "--corpus", "2x3",
                     "--corpus-out", str(tmp_path / "nodir" / "c.txt")]) == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""
        assert main(["gen", "--out", str(out), "--corpus", "2x3", "--corpus-out", str(corpus)]) == 0
        assert capsys.readouterr().out == (f"wrote target model: {out}\n"
                                           f"wrote corpus (2x3): {corpus}\n")

    @pytest.mark.parametrize("failing, order", [("make_synthetic_target", "25"),
                                                ("sample_sequences", "2")])
    def test_gen_out_of_memory_exit_3_and_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                                         failing, order):
        # The failing step raises at once, so the test allocates nothing.
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 6.26 TiB for an array")

        monkeypatch.setattr(cli, failing, out_of_memory)
        out, corpus = tmp_path / "t.ngm", tmp_path / "c.txt"
        assert main(["gen", "--vocab", "2", "--order", order, "--out", str(out),
                     "--corpus", "2x3", "--corpus-out", str(corpus)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 6.26 TiB for an array\n"
        assert not out.exists() and not corpus.exists()

    @staticmethod
    def _save_out_of_memory_at(monkeypatch, call):
        """Make ``save_model``'s ``call``-th probability formatting raise MemoryError."""
        fields, calls = models._probability_fields, []

        def formatted(probs):
            calls.append(len(probs))
            if len(calls) == call:
                raise MemoryError("Unable to allocate 1.00 MiB for an array")
            return fields(probs)

        monkeypatch.setattr(models, "_probability_fields", formatted)

    def test_gen_save_out_of_memory_on_a_later_block_leaves_no_file(self, tmp_path, capsys,
                                                                    monkeypatch):
        self._save_out_of_memory_at(monkeypatch, 3)  # 6,561 rows: block 3 of 7
        out = tmp_path / "t.ngm"
        assert main(["gen", "--vocab", "8", "--order", "4", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 1.00 MiB for an array\n"
        assert list(tmp_path.iterdir()) == []

    def test_train_save_out_of_memory_on_a_later_block_leaves_no_file(self, tmp_path, capsys,
                                                                      monkeypatch):
        target = self._gen(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(models, "_SAVE_VALUES", 4 * 8)  # 4 rows a block
        self._save_out_of_memory_at(monkeypatch, 2)
        out = tmp_path / "d.ngm"
        assert main(["train", "--target", str(target), "--out", str(out), "--K", "4",
                     "--data-seqs", "24", "--data-len", "16"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 1.00 MiB for an array\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_save_out_of_memory_through_a_link_removes_its_target(self, tmp_path, capsys,
                                                                  monkeypatch):
        target = self._gen(tmp_path, "real.ngm", ("--vocab", "8", "--order", "4"))
        link = tmp_path / "link.ngm"
        link.symlink_to(target)
        self._save_out_of_memory_at(monkeypatch, 3)
        assert main(["gen", "--vocab", "8", "--order", "4", "--out", str(link)]) == 3
        assert "error: out of memory" in capsys.readouterr().err
        assert not target.exists() and link.is_symlink()

    def test_gen_to_a_fifo(self, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        out = tmp_path / "t.ngm"
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the file fits the pipe's buffer
        try:
            for path in (fifo, out):
                assert main(["gen", "--vocab", "3", "--order", "1", "--out", str(path)]) == 0
            assert os.read(reader, 1 << 16) == out.read_bytes()
        finally:
            os.close(reader)

    def test_save_that_cannot_open_its_file_leaves_it(self, tmp_path, capsys, monkeypatch):
        target = self._gen(tmp_path)
        out = self._train(tmp_path, target, "d.ngm")
        kept = out.read_bytes()

        def refused(path, *args):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(models.os, "open", refused)
        assert main(["gen", "--out", str(out)]) == 2
        assert "i/o error: [Errno 13] Permission denied" in capsys.readouterr().err
        assert out.read_bytes() == kept

    def test_removing_an_output_leaves_what_is_not_a_regular_file(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        cli._remove_output(str(fifo))
        cli._remove_output(str(tmp_path))
        assert fifo.exists() and tmp_path.is_dir()

    def test_gen_order_above_the_bound_exit_1(self, tmp_path, capsys):
        out = tmp_path / "t.ngm"
        assert main(["gen", "--order", str(MAX_ORDER + 1), "--out", str(out)]) == 1
        assert f"--order in 1..{MAX_ORDER}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--corpus", "2x4", "--corpus-out", "c.txt", "--corpus-seed", "-2"],
         "--corpus-seed must be >= 0, got -2"),
    ], ids=["seed", "corpus-seed"])
    def test_gen_negative_seed_exit_1_before_any_file(self, tmp_path, capsys, flags, message):
        out = tmp_path / "t.ngm"
        flags = [str(tmp_path / flag) if flag.endswith(".txt") else flag for flag in flags]
        assert main(["gen", "--out", str(out), *flags]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source", ["flag", "sheet"])
    def test_train_negative_seed_exit_1(self, tmp_path, capsys, source):
        target = self._gen(tmp_path)
        sheet = tmp_path / "hparams.cfg"
        sheet.write_text("seed = -4\n")
        flags = ["--seed", "-3"] if source == "flag" else ["--train-config", str(sheet)]
        out = tmp_path / "d.ngm"
        assert main(["train", "--target", str(target), "--out", str(out), *flags]) == 1
        named = "--seed: seed must be >= 0, got -3" if source == "flag" else (
            f"{sheet}: seed must be >= 0, got -4")
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, key, value, message", [
        ("--K", "K", "0", "draft_len must be >= 1, got 0"),
        ("--rho", "rho", "2", "rho must be in [0, 1], got 2.0"),
        ("--drafter-order", "drafter_order", "0", "drafter_order must be in 1..64, got 0"),
    ])
    def test_train_range_error_names_flag_or_sheet(self, tmp_path, capsys, flag, key, value,
                                                   message):
        target = self._gen(tmp_path)
        sheet = tmp_path / "hparams.cfg"
        sheet.write_text(f"{key} = {value}\n")
        out = tmp_path / "d.ngm"
        for flags, source in [([flag, value], flag), (["--train-config", str(sheet)], sheet)]:
            assert main(["train", "--target", str(target), "--out", str(out), *flags]) == 1
            assert f"usage error: {source}: {message}" in capsys.readouterr().err
        # A flag overrides the sheet's value before either is checked.
        assert main(["train", "--target", str(target), "--out", str(out),
                     "--train-config", str(sheet), flag, "1", "--data-seqs", "4"]) == 0

    def test_bench_negative_seed_exit_1(self, tmp_path, capsys):
        target = self._gen(tmp_path)
        out = tmp_path / "rep.json"
        code = main(["bench", "--target", str(target), "--drafter", str(target),
                     "--out", str(out), "--seed", "-1"])
        assert code == 1
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["bench", "--target", "t.ngm", "--drafter", "t.ngm", "--out", "t.ngm"],
         "--out t.ngm is the same file as --target"),
        (["bench", "--target", "t.ngm", "--drafter", "t.ngm", "--out", "r.json",
          "--positions-csv", "r.json"], "--positions-csv r.json is the same file as --out"),
        (["bench", "--target", "t.ngm", "--drafter", "t.ngm", "--out", "r.json",
          "--confidence-csv", "r.positions.csv"],
         "--confidence-csv r.positions.csv is the same file as --positions-csv"),
        (["bench", "--target", "t.ngm", "--drafter", "t.ngm", "--out", "r.json",
          "--prompt-file", "p.txt", "--positions-csv", "p.txt"],
         "--positions-csv p.txt is the same file as --prompt-file"),
        (["bench", "--config", "b.cfg", "--out", "b.cfg"],
         "--out b.cfg is the same file as --config"),
        (["train", "--target", "t.ngm", "--out", "sub/../t.ngm"],
         "--out sub/../t.ngm is the same file as --target"),
        (["train", "--target", "t.ngm", "--corpus", "c.txt", "--out", "c.txt"],
         "--out c.txt is the same file as --corpus"),
        (["train", "--target", "t.ngm", "--train-config", "h.cfg", "--out", "h.cfg"],
         "--out h.cfg is the same file as --train-config"),
        (["gen", "--out", "t.ngm", "--corpus", "2x4", "--corpus-out", "t.ngm"],
         "--corpus-out t.ngm is the same file as --out"),
        (["gen", "--config", "g.cfg", "--out", "g.cfg"],
         "--out g.cfg is the same file as --config"),
        (["analyze", "a.json", "b.json", "--out", "b.json"],
         "--out b.json is the same file as a report"),
    ], ids=["bench-out-target", "bench-out-csv", "bench-default-csv", "bench-csv-prompts",
            "bench-out-config", "train-out-target", "train-out-corpus", "train-out-sheet",
            "gen-corpus-out", "gen-out-config", "analyze-out-report"])
    def test_colliding_paths_exit_1_and_leave_every_file_unchanged(self, tmp_path, capsys,
                                                                 monkeypatch, argv, message):
        self._gen(tmp_path, "t.ngm")
        (tmp_path / "sub").mkdir()
        report = {"tau": 1.0, "committed_per_step": 2.0, "speedup_estimate": 1.5,
                  "config": {"vocab": 8, "target_order": 2}}
        for name, text in [("a.json", json.dumps(report)), ("b.json", json.dumps(report)),
                           ("c.txt", "1 2 3 4 5 6\n"), ("p.txt", "1 2\n"),
                           ("h.cfg", "rho = 0.5\n"), ("g.cfg", "vocab = 4\n"),
                           ("b.cfg", "target = t.ngm\ndrafter = t.ngm\n")]:
            (tmp_path / name).write_text(text)
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert f"usage error: {message}\n" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} \
            == before

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--out", "g.ngm", "--corpus", "2by3", "--corpus-out", "c.txt"],
         "--corpus must look like NxL, got '2by3'"),
        (["gen", "--out", "g.ngm", "--corpus", "0x4", "--corpus-out", "c.txt"],
         "--corpus dimensions must be >= 1"),
        (["train", "--target", "t.ngm", "--out", "d.ngm", "--data-seqs", "0"],
         "--data-seqs must be >= 1 and --data-len >= draft length + 1"),
        (["bench", "--target", "t.ngm", "--drafter", "t.ngm", "--out", "r.json", "--mode", "x"],
         "--mode must be one of ('dependent', 'independent')"),
        (["bench", "--target", "t.ngm", "--drafter", "t.ngm", "--out", "r.json", "--verify", "x"],
         "--verify must be one of ('stochastic', 'greedy')"),
        (["bench", "--target", "t.ngm", "--drafter", "t.ngm", "--out", "r.json", "--K", "0"],
         "--K and --max-tokens must be >= 1"),
        # argparse checks choices only on the command line, not on --config
        # defaults, so bench checks --mode itself.
        (["bench", "--target", "t.ngm", "--drafter", "t.ngm", "--out", "r.json",
          "--config", "m.cfg"], "--mode must be one of ('dependent', 'independent')"),
        (["analyze", "a.json"], "analyze needs at least two report files"),
    ], ids=["gen-corpus-shape", "gen-corpus-zero", "train-data-seqs", "bench-mode",
            "bench-verify", "bench-K", "bench-config-mode", "analyze-one-report"])
    def test_bad_flag_exit_1_and_no_output(self, tmp_path, capsys, monkeypatch, argv,
                                           message):
        self._gen(tmp_path, "t.ngm")
        (tmp_path / "m.cfg").write_text("mode = x\n")
        (tmp_path / "a.json").write_text(json.dumps(
            {"tau": 1.0, "committed_per_step": 2.0, "speedup_estimate": 1.5,
             "config": {"vocab": 8, "target_order": 2}}))
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_analyze_out_writes_the_table(self, tmp_path, capsys):
        reports = []
        for name, tau in [("a", 1.0), ("b", 1.5)]:
            reports.append(tmp_path / f"{name}.json")
            reports[-1].write_text(json.dumps(
                {"tau": tau, "committed_per_step": tau + 1, "speedup_estimate": (tau + 1) / 1.1,
                 "config": {"vocab": 8, "target_order": 2}}))
        assert main(["analyze", *map(str, reports)]) == 0
        table = capsys.readouterr().out
        out = tmp_path / "cmp.md"
        assert main(["analyze", *map(str, reports), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote comparison: {out}\n"
        assert out.read_text() == table
        assert table.splitlines()[0] == ("| run | tau | committed_per_step | speedup_estimate "
                                         "| delta_tau | delta_speedup |")

    @pytest.mark.parametrize("line, key, value", [
        ("K = x", "'K'", "'x'"), ("rho = high", "'rho'", "'high'"),
    ])
    def test_bad_train_config_value_names_key_value_and_sheet(self, tmp_path, capsys, line,
                                                               key, value):
        target = self._gen(tmp_path)
        sheet = tmp_path / "sheet.cfg"
        sheet.write_text(line + "\n")
        assert main(["train", "--target", str(target), "--out", str(tmp_path / "d.ngm"),
                     "--train-config", str(sheet)]) == 3
        err = capsys.readouterr().err
        assert str(sheet) in err and key in err and value in err

    @pytest.mark.parametrize("payload, key", [
        ({"tau": 1.0, "config": {"vocab": 8, "target_order": 2}}, "committed_per_step"),
        (["tau", "config"], "object"),
        ({"tau": 1.0, "committed_per_step": 2.0, "speedup_estimate": 1.5, "config": None},
         "config"),
        ({"tau": "1.0", "committed_per_step": 2.0, "speedup_estimate": 1.5,
          "config": {"vocab": 8, "target_order": 2}}, "tau"),
        # JSON true loads as True, a Python int; json reads and writes NaN.
        ({"tau": True, "committed_per_step": 2.0, "speedup_estimate": 1.5,
          "config": {"vocab": 8, "target_order": 2}}, "tau"),
        ({"tau": 1.0, "committed_per_step": 2.0, "speedup_estimate": math.nan,
          "config": {"vocab": 8, "target_order": 2}}, "speedup_estimate"),
        ({"tau": 1.0, "committed_per_step": -math.inf, "speedup_estimate": 1.5,
          "config": {"vocab": 8, "target_order": 2}}, "committed_per_step"),
        ({"tau": 10**400, "committed_per_step": 2.0, "speedup_estimate": 1.5,
          "config": {"vocab": 8, "target_order": 2}}, "tau"),
    ], ids=["missing-field", "list", "null-config", "string-tau", "bool-tau", "nan-speedup",
            "infinite-committed", "int-beyond-float-tau"])
    def test_analyze_malformed_report_exit_3(self, tmp_path, capsys, payload, key):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"tau": 1.0, "committed_per_step": 2.0,
                                    "speedup_estimate": 1.5,
                                    "config": {"vocab": 8, "target_order": 2}}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["analyze", str(good), str(bad)]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and key in err

    @pytest.mark.parametrize("raw, reason", [
        (b"not json", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0"),
    ], ids=["not-json", "not-utf8"])
    def test_analyze_report_not_utf8_json_names_it_exit_3(self, tmp_path, capsys, raw, reason):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"tau": 1.0, "committed_per_step": 2.0,
                                    "speedup_estimate": 1.5,
                                    "config": {"vocab": 8, "target_order": 2}}))
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert main(["analyze", str(good), str(bad)]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: not a benchmark report: {bad} is not UTF-8 JSON ({reason}")
