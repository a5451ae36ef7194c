"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported per-seed tables. Expected values come from the
independent oracles in ``oracles.py`` (exhaustive enumeration, brute-force
counting, Monte Carlo, numeric optimization), never from the code under test.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

import oracles
from oracles import (
    accept_prob,
    decay_weights,
    expected_accept_length,
    prefix_reach_probs,
    residual_distribution,
)
from speclab.bench import run_bench, write_confidence_csv, write_position_csv
from speclab.cli import main as cli_main
from speclab.drafting import GateConfig, apply_gate
from speclab.models import (
    Vocabulary,
    make_synthetic_target,
    next_distribution,
    save_model,
)
from speclab.training import (
    CAT,
    UNIFORM,
    TrainConfig,
    build_training_windows,
    cat_weights,
    sample_corpus,
    train_tabular_drafter,
    window_losses,
)
from speclab.verification import decode_loop


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {name}", flush=True)
        raise
    print(f"[PASS] criterion {num:02d}: {name}", flush=True)


# ---------------------------------------------------------------------------
# Shared synthetic pipeline for the directional criteria (9, 10, 11, 12):
# V=16, d=2, alpha=0.3 targets over five seeds; drafters trained on identical
# self-sampled data under confidence-adaptive vs uniform weighting, plus a
# weak (order-1) drafter for the dual-mode comparison.
# ---------------------------------------------------------------------------

N_SEEDS = 5
SYNTH_KWARGS = dict(vocab_size=16, order=2, concentration=0.3)


@pytest.fixture(scope="module")
def synthetic_runs():
    runs = []
    for seed in range(N_SEEDS):
        target = make_synthetic_target(100 + seed, **SYNTH_KWARGS)
        corpus = sample_corpus(target, 384, 64, np.random.default_rng([seed, 10]))
        cfg_cat = TrainConfig(
            draft_len=16, rho=0.1, beta=0.1, weighting=CAT, smoothing=0.1, seed=seed
        )
        cfg_uni = replace(cfg_cat, weighting=UNIFORM)
        cfg_weak = replace(cfg_cat, drafter_order=1)
        drafters = {}
        for key, cfg in (("cat", cfg_cat), ("uniform", cfg_uni), ("weak", cfg_weak)):
            windows = build_training_windows(
                target, corpus, cfg, np.random.default_rng([seed, 11])
            )
            drafters[key] = train_tabular_drafter(windows, cfg)
        runs.append(SimpleNamespace(seed=seed, target=target, **drafters))
    return runs


def test_c01_losslessness_oracle():
    with criterion(1, "exact committed-sequence distribution equals the target's"):
        start = time.perf_counter()
        vocab_sizes = [3, 4, 5, 3, 4]
        for i, v in enumerate(vocab_sizes):
            rng = np.random.default_rng(1000 + i)
            target = oracles.random_order1_model(v, rng)
            drafter = oracles.random_order1_model(v, rng)
            prefix = (i % v,)
            for draft_len in (1, 2, 3):
                horizon = draft_len + 1
                actual = oracles.decode_sequence_distribution(
                    target, drafter, prefix, draft_len, horizon
                )
                expected = oracles.ar_sequence_distribution(target, prefix, horizon)
                assert abs(sum(actual.values()) - 1.0) <= 1e-10
                for seq, prob in expected.items():
                    assert abs(actual.get(seq, 0.0) - prob) <= 1e-10
                for seq in actual:
                    assert seq in expected or actual[seq] <= 1e-10
        elapsed = time.perf_counter() - start
        print(f"  15 (pair, K) combinations enumerated in {elapsed:.2f}s")
        assert elapsed < 10.0


def test_c02_single_step_marginal_identity():
    with criterion(2, "acceptance/residual marginal reproduces p for 1000 (p, q) pairs"):
        rng = np.random.default_rng(7)
        for trial in range(1000):
            v = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(v))
            q = rng.dirichlet(np.ones(v))
            a = np.array([accept_prob(p, q, y) for y in range(v)])
            reject_mass = float(np.sum(q * (1.0 - a)))
            if reject_mass > 0.0:
                r = residual_distribution(p, q)
            else:
                r = np.zeros(v)
            marginal = q * a + reject_mass * r
            assert np.all(np.abs(marginal - p) <= 1e-12)


def test_c03_expected_length_monte_carlo():
    with criterion(3, "expected acceptance length matches simulation within 3 sigma"):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        trials = 100_000
        for case in range(20):
            a = rng.random(16)
            lengths = oracles.simulate_accept_lengths(
                a, trials, np.random.default_rng([13, case])
            )
            se = lengths.std(ddof=1) / math.sqrt(trials)
            assert abs(lengths.mean() - expected_accept_length(a)) <= 3 * se + 1e-12
        elapsed = time.perf_counter() - start
        print(f"  20 vectors x {trials} trials in {elapsed:.2f}s")
        assert elapsed < 30.0


def test_c04_reach_probability_identity():
    with criterion(4, "sum of reach_k * a_k equals the expected acceptance length"):
        rng = np.random.default_rng(17)
        for _ in range(100):
            k = int(rng.integers(1, 24))
            a = rng.random(k)
            reach = prefix_reach_probs(a)
            total = sum(s * x for s, x in zip(reach, a))
            assert abs(total - expected_accept_length(a)) <= 1e-12


def test_c05_confidence_weight_algebra():
    with criterion(5, "weight recursion, uniform reduction, and decay special case"):
        rng = np.random.default_rng(19)
        # (a) recursion exact to 1e-15 (construction makes it exact)
        for _ in range(200):
            conf = rng.random(16)
            clamped, weights = cat_weights(conf)
            for k in range(15):
                assert abs(weights[k + 1] - weights[k] * clamped[k]) <= 1e-15

        # (b) all-ones confidences, beta=1, distillation off: the window loss
        # equals the plain masked cross-entropy objective times the window
        # length (i.e. draft_len times the mean per-position CE).
        target = make_synthetic_target(3, vocab_size=5, order=2, concentration=0.5)
        corpus = sample_corpus(target, 4, 14, np.random.default_rng(21))
        config = TrainConfig(
            draft_len=4, rho=1.0, beta=1.0, weighting=UNIFORM, kd_weight=0.0,
            smoothing=0.1, seed=1,
        )
        windows = build_training_windows(target, corpus, config, np.random.default_rng(23))
        drafter = train_tabular_drafter(windows, config)
        mask = target.vocab.mask_id
        losses = window_losses(drafter, windows, config)
        for i in range(len(windows)):
            assert windows.weights[i].tolist() == [1.0] * 4
            ce_sum = 0.0
            for k, y in enumerate(windows.future_tokens[i].tolist()):
                ctx = (tuple(windows.prefix_contexts[i].tolist()) + (mask,) * k)[-2:]
                ce_sum += -math.log(next_distribution(drafter, ctx)[y])
            assert abs(losses[i] - ce_sum) <= 1e-12

        # (c) constant confidence equals the fixed geometric decay exactly
        for c in (0.25, 0.5, 0.8, 1.0):
            assert cat_weights([c] * 16)[1].tolist() == decay_weights(c, 16)


def _lbfgs_minimize_context(terms, vocab_size, beta, kd_weight):
    """Numeric minimizer on logits; independent route to the same objective."""
    weight_vec = np.zeros(vocab_size)
    for s, y, p in terms:
        if beta > 0.0:
            weight_vec[y] += s * beta
        if kd_weight > 0.0:
            weight_vec += s * kd_weight * p

    def objective(z):
        z = z - z.max()
        logq = z - math.log(np.sum(np.exp(z)))
        val = -float(np.dot(weight_vec, logq))
        grad = np.exp(logq) * weight_vec.sum() - weight_vec
        return val, grad

    res = optimize.minimize(
        objective, np.zeros(vocab_size), jac=True, method="L-BFGS-B",
        options={"maxiter": 1000, "gtol": 1e-13, "ftol": 1e-16},
    )
    z = res.x - res.x.max()
    q = np.exp(z) / np.sum(np.exp(z))
    return q


def test_c06_closed_form_trainer_optimality():
    with criterion(6, "closed form matches the numeric minimizer on 50 instances"):
        rng = np.random.default_rng(29)
        for case in range(50):
            v = int(rng.integers(2, 5))
            target = make_synthetic_target(int(rng.integers(1 << 30)), v, 1, 1.0)
            seq_len = int(rng.integers(6, 12))  # 2 sequences, at most 20 windows
            corpus = sample_corpus(target, 2, seq_len, np.random.default_rng([31, case]))
            config = TrainConfig(
                draft_len=int(rng.integers(2, 4)),
                rho=float(rng.choice([0.0, 0.5, 1.0])),
                beta=float(rng.choice([0.1, 1.0])),
                weighting=CAT,
                smoothing=0.0,
                seed=case,
            )
            windows = build_training_windows(
                target, corpus, config, np.random.default_rng([37, case])
            )
            if not windows:
                continue
            assert len(windows) <= 20
            drafter = train_tabular_drafter(windows, config)
            terms_by_ctx = oracles.group_loss_terms(windows, target.vocab, 1)
            closed_loss, numeric_loss = 0.0, 0.0
            for ctx, terms in terms_by_ctx.items():
                q_closed = drafter.table[ctx]
                q_numeric = _lbfgs_minimize_context(terms, v, config.beta, config.kd_weight)
                closed_loss += oracles.direct_context_loss(
                    q_closed, terms, config.beta, config.kd_weight
                )
                numeric_loss += oracles.direct_context_loss(
                    q_numeric, terms, config.beta, config.kd_weight
                )
                assert np.max(np.abs(np.asarray(q_closed) - q_numeric)) <= 1e-6
            assert closed_loss <= numeric_loss + 1e-6


def test_c07_reduction_to_masked_event_estimation():
    with criterion(7, "uniform/KD-off training equals add-k masked-event estimation"):
        target = make_synthetic_target(41, vocab_size=5, order=2, concentration=0.4)
        corpus = sample_corpus(target, 24, 24, np.random.default_rng(43))
        config = TrainConfig(
            draft_len=4, rho=1.0, beta=1.0, weighting=UNIFORM, kd_weight=0.0,
            smoothing=0.1, seed=2,
        )
        windows = build_training_windows(target, corpus, config, np.random.default_rng(47))
        drafter = train_tabular_drafter(windows, config)
        table, fallback = oracles.addk_masked_event_model(
            corpus, target.vocab, order=2, draft_len=4, smoothing=0.1
        )
        assert set(drafter.table) == set(table)
        for ctx in table:
            np.testing.assert_array_equal(drafter.table[ctx], table[ctx])
        np.testing.assert_array_equal(drafter.fallback, fallback)
        print(f"  exact table match over {len(table)} masked contexts")


def test_c08_perfect_drafter_bound(tmp_path):
    with criterion(8, "self-drafting yields tau = K exactly for K in {4, 8, 16}"):
        # Mask-closed self-drafter: one model serves as target and drafter and
        # reproduces its own greedy continuation at every draft position.
        for draft_len, vocab_size in ((4, 3), (8, 3), (16, 2)):
            base = make_synthetic_target(53 + draft_len, vocab_size, 1, 0.5)
            model = oracles.mask_closed_self_drafter(base, draft_len)
            rng = np.random.default_rng(59)
            prompt = list(rng.integers(0, vocab_size, size=model.order))
            _, trace = decode_loop(
                model, model, [prompt], 3 * (draft_len + 1), draft_len,
                mode="independent", verify="greedy",
            )
            hist = trace.accept_hist
            assert hist[:draft_len].sum() == 0 and hist[draft_len] == trace.steps
            assert trace.tau == float(draft_len)

        # Constant target run literally as its own drafter through the CLI.
        const = oracles.constant_model(6, 2, token=4)
        model_path = tmp_path / "const.ngm"
        report_path = tmp_path / "const.json"
        save_model(const, model_path)
        code = cli_main([
            "bench", "--target", str(model_path), "--drafter", str(model_path),
            "--out", str(report_path), "--K", "16", "--mode", "independent",
            "--verify", "greedy", "--prompts", "4", "--prompt-len", "4",
            "--max-tokens", "68", "--seed", "0",
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["tau"] == 16.0
        assert report["committed_per_step"] == 17.0


def test_c09_confidence_weighting_beats_uniform(synthetic_runs):
    with criterion(9, "confidence-adaptive weighting attains mean tau >= uniform"):
        start = time.perf_counter()
        taus_cat, taus_uni, failures = [], [], []
        for run in synthetic_runs:
            kwargs = dict(
                draft_len=16, mode="independent", verify="greedy",
                num_prompts=64, prompt_len=8, max_tokens=256, seed=run.seed,
            )
            t_cat = run_bench(run.target, run.cat, **kwargs).tau
            t_uni = run_bench(run.target, run.uniform, **kwargs).tau
            taus_cat.append(t_cat)
            taus_uni.append(t_uni)
            if t_cat < t_uni:
                failures.append(run.seed)
            print(
                f"  seed {run.seed}: tau(cat)={t_cat:.4f} tau(uniform)={t_uni:.4f} "
                f"gap={t_cat - t_uni:+.4f}"
            )
        mean_cat, mean_uni = np.mean(taus_cat), np.mean(taus_uni)
        print(f"  mean tau: cat={mean_cat:.4f} uniform={mean_uni:.4f}")
        if failures:
            print(f"  flagged seeds where uniform won: {failures} (tolerance: at most 1)")
        elapsed = time.perf_counter() - start
        print(f"  benches finished in {elapsed:.1f}s")
        assert mean_cat >= mean_uni
        assert len(failures) <= 1
        assert elapsed < 300.0


def test_c10_dual_mode_gap(synthetic_runs):
    with criterion(10, "target-dependent mode attains mean tau >= independent"):
        taus_dep, taus_ind, failures = [], [], []
        for run in synthetic_runs:
            kwargs = dict(
                draft_len=16, verify="greedy",
                num_prompts=32, prompt_len=8, max_tokens=160, seed=run.seed,
            )
            t_dep = run_bench(run.target, run.weak, mode="dependent", **kwargs).tau
            t_ind = run_bench(run.target, run.weak, mode="independent", **kwargs).tau
            taus_dep.append(t_dep)
            taus_ind.append(t_ind)
            if t_dep < t_ind:
                failures.append(run.seed)
            print(
                f"  seed {run.seed}: tau(dependent)={t_dep:.4f} "
                f"tau(independent)={t_ind:.4f} gap={t_dep - t_ind:+.4f}"
            )
        print(f"  mean tau: dependent={np.mean(taus_dep):.4f} independent={np.mean(taus_ind):.4f}")
        if failures:
            print(f"  flagged seeds where independent won: {failures} (tolerance: at most 1)")
        assert np.mean(taus_dep) >= np.mean(taus_ind)
        assert len(failures) <= 1


def test_c11_position_curve(synthetic_runs, tmp_path):
    with criterion(11, "per-position acceptance CSV with nonincreasing attempts"):
        run = synthetic_runs[0]
        report = run_bench(
            run.target, run.cat, draft_len=16, mode="dependent", verify="greedy",
            num_prompts=24, prompt_len=8, max_tokens=128, seed=run.seed,
        )
        csv_path = tmp_path / "positions.csv"
        write_position_csv(report, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "k,attempts,accepts,rate"
        assert len(lines) == 17
        attempts = report.trace.position_attempts
        assert all(attempts[k] >= attempts[k + 1] for k in range(15))
        rates = [rate for _, _, _, rate in report.position_rows]
        print("  acceptance rate by position:", " ".join(f"{r:.2f}" for r in rates[:8]), "...")


def test_c12_confidence_correlation(synthetic_runs, tmp_path):
    with criterion(12, "Spearman(confidence bin, acceptance rate) >= 0.5"):
        run = synthetic_runs[0]
        report = run_bench(
            run.target, run.cat, draft_len=16, mode="dependent", verify="stochastic",
            num_prompts=48, prompt_len=8, max_tokens=192, seed=run.seed,
        )
        write_confidence_csv(report, tmp_path / "confidence.csv")
        populated = [row for row in report.confidence_rows if row[2] > 0]
        for lo, hi, attempts, accepts, rate in populated:
            print(f"  bin [{lo:.1f},{hi:.1f}): attempts={attempts} rate={rate:.3f}")
        print(f"  spearman correlation = {report.correlation:.4f}")
        assert report.correlation is not None
        assert report.correlation >= 0.5


def test_c13_gate_statistics():
    with criterion(13, "gate keep fractions match Bernoulli(1 - rho)"):
        vocab = Vocabulary(4)
        feature = vocab.feature_ids[2]
        draws = 100_000
        for rho in (0.0, 0.1, 0.5, 1.0):
            rng = np.random.default_rng(int(rho * 1000) + 61)
            gate = GateConfig(rho=rho)
            kept = sum(
                apply_gate(feature, gate, vocab, rng) == feature for _ in range(draws)
            )
            frac = kept / draws
            if rho in (0.0, 1.0):
                assert frac == 1.0 - rho
            else:
                sigma = math.sqrt(rho * (1.0 - rho) / draws)
                assert abs(frac - (1.0 - rho)) <= 3 * sigma
            print(f"  rho={rho}: keep fraction {frac:.4f}")


def test_c14_pipeline_reproducibility(tmp_path, monkeypatch):
    with criterion(14, "gen -> train -> bench is byte-identical across runs"):
        outputs = []
        for attempt in ("first", "second"):
            workdir = tmp_path / attempt
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert cli_main([
                "gen", "--vocab", "12", "--order", "2", "--alpha", "0.3",
                "--seed", "5", "--out", "target.ngm",
                "--corpus", "16x24", "--corpus-out", "corpus.txt",
            ]) == 0
            assert cli_main([
                "train", "--target", "target.ngm", "--out", "drafter.ngm",
                "--weighting", "cat", "--K", "8", "--rho", "0.1", "--beta", "0.1",
                "--seed", "9", "--data-seqs", "48", "--data-len", "32",
            ]) == 0
            assert cli_main([
                "bench", "--target", "target.ngm", "--drafter", "drafter.ngm",
                "--out", "report.json", "--K", "8", "--prompts", "8",
                "--prompt-len", "6", "--max-tokens", "48", "--seed", "3",
            ]) == 0
            outputs.append({
                name: (workdir / name).read_bytes()
                for name in (
                    "target.ngm", "corpus.txt", "drafter.ngm", "report.json",
                    "report.positions.csv", "report.confidence.csv",
                )
            })
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
        print(f"  {len(outputs[0])} files byte-identical across two runs")
