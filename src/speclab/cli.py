"""Command-line experiment runner: gen, train, bench, analyze.

A key=value config file can supply any flag (command line wins). Exit codes:
0 success, 1 usage error, 2 I/O error, 3 numeric or validation error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .drafting import has_feature_contexts
from .models import load_model, make_synthetic_target, sample_sequences, save_model
from .training import (
    TrainConfig,
    build_training_windows,
    parse_train_config_file,
    read_key_values,
    sample_corpus,
    train_tabular_drafter,
    window_losses,
)
from .verification import DEPENDENT, GREEDY, MODES, VERIFIERS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(message)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _merge_config(args: argparse.Namespace, parser_dests: dict[str, type]) -> None:
    """Fill None-valued args from the config file; the command line wins."""
    if not getattr(args, "config", None):
        return
    text = Path(args.config).read_text(encoding="utf-8")
    try:
        values = {norm: value for _key, norm, value in read_key_values(text)}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for key, raw in values.items():
        if key not in parser_dests:
            raise UsageError(f"unknown config key for this command: {key!r}")
        if getattr(args, key) is None:
            caster = parser_dests[key]
            try:
                setattr(args, key, caster(raw))
            except ValueError as exc:
                raise UsageError(f"bad config value for {key}: {raw!r}") from exc


def _default(args: argparse.Namespace, name: str, value) -> None:
    if getattr(args, name) is None:
        setattr(args, name, value)


def _write_corpus(path: str, sequences: list[list[int]]) -> None:
    lines = [" ".join(str(t) for t in seq) for seq in sequences]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_corpus(path: str) -> list[list[int]]:
    sequences = []
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        try:
            tokens = [int(t) for t in line.split()]
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from None
        if tokens:
            sequences.append(tokens)
    return sequences


# --- gen -------------------------------------------------------------------

_GEN_DESTS = {
    "vocab": int,
    "order": int,
    "alpha": float,
    "seed": int,
    "out": str,
    "corpus": str,
    "corpus_out": str,
    "corpus_seed": int,
}


def cmd_gen(args: argparse.Namespace) -> int:
    _merge_config(args, _GEN_DESTS)
    _default(args, "vocab", 16)
    _default(args, "order", 2)
    _default(args, "alpha", 0.3)
    _default(args, "seed", 0)
    if args.out is None:
        raise UsageError("gen requires --out")
    if args.vocab < 2 or args.order < 1 or not 0 < args.alpha < math.inf:
        raise UsageError("gen needs --vocab >= 2, --order >= 1, a finite --alpha > 0")
    model = make_synthetic_target(args.seed, args.vocab, args.order, args.alpha)
    save_model(model, args.out)
    print(f"wrote target model: {args.out}")

    if args.corpus is not None:
        if args.corpus_out is None:
            raise UsageError("--corpus requires --corpus-out")
        try:
            n_str, len_str = args.corpus.lower().split("x", 1)
            n_seqs, seq_len = int(n_str), int(len_str)
        except ValueError as exc:
            raise UsageError(f"--corpus must look like NxL, got {args.corpus!r}") from exc
        if n_seqs < 1 or seq_len < 1:
            raise UsageError("--corpus dimensions must be >= 1")
        corpus_seed = args.corpus_seed if args.corpus_seed is not None else args.seed
        uniforms = [np.random.default_rng([corpus_seed, i]).random(seq_len)
                    for i in range(n_seqs)]
        _write_corpus(args.corpus_out, sample_sequences(model, np.array(uniforms)).tolist())
        print(f"wrote corpus ({n_seqs}x{seq_len}): {args.corpus_out}")
    return EXIT_OK


# --- train -----------------------------------------------------------------

_TRAIN_DESTS = {
    "target": str,
    "out": str,
    "weighting": str,
    "gamma": float,
    "draft_len": int,
    "rho": float,
    "beta": float,
    "smoothing": float,
    "drafter_order": int,
    "seed": int,
    "data_seqs": int,
    "data_len": int,
    "corpus": str,
}


def cmd_train(args: argparse.Namespace) -> int:
    _merge_config(args, _TRAIN_DESTS)
    if args.target is None or args.out is None:
        raise UsageError("train requires --target and --out")
    file_kwargs: dict = {}
    if args.train_config is not None:
        file_kwargs, ignored = parse_train_config_file(
            Path(args.train_config).read_text(encoding="utf-8")
        )
        for key in ignored:
            _warn(f"ignoring gradient-trainer config key {key!r} (no gradient trainer exists)")
    overrides = {
        "draft_len": args.draft_len,
        "rho": args.rho,
        "beta": args.beta,
        "weighting": args.weighting,
        "gamma": args.gamma,
        "smoothing": args.smoothing,
        "drafter_order": args.drafter_order,
        "seed": args.seed,
    }
    for key, value in overrides.items():
        if value is not None:
            file_kwargs[key] = value
    try:
        config = TrainConfig(**file_kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    target = load_model(args.target)
    start = time.perf_counter()
    if args.corpus is not None:
        corpus = _read_corpus(args.corpus)
    else:
        n_seqs = args.data_seqs if args.data_seqs is not None else 256
        seq_len = args.data_len if args.data_len is not None else 64
        if n_seqs < 1 or seq_len < config.draft_len + 1:
            raise UsageError("--data-seqs must be >= 1 and --data-len >= draft length + 1")
        corpus = sample_corpus(target, n_seqs, seq_len, np.random.default_rng([config.seed, 0]))
    sampled = time.perf_counter()
    windows = build_training_windows(
        target, corpus, config, np.random.default_rng([config.seed, 1])
    )
    built = time.perf_counter()
    drafter = train_tabular_drafter(windows, config)
    solved = time.perf_counter()
    mean_loss = float(np.mean(window_losses(drafter, windows, config)))
    scored = time.perf_counter()
    print(f"time: corpus {sampled - start:.3f} s, windows {built - sampled:.3f} s, "
          f"solve {solved - built:.3f} s, loss {scored - solved:.3f} s", file=sys.stderr)
    save_model(drafter, args.out)
    print(f"windows: {len(windows)}")
    print(f"mean window loss: {mean_loss:.6f}")
    print(f"wrote drafter model: {args.out}")
    return EXIT_OK


# --- bench -----------------------------------------------------------------

_BENCH_DESTS = {
    "target": str,
    "drafter": str,
    "out": str,
    "mode": str,
    "verify": str,
    "draft_len": int,
    "prompts": int,
    "prompt_len": int,
    "max_tokens": int,
    "seed": int,
    "draft_cost": float,
    "prompt_file": str,
    "positions_csv": str,
    "confidence_csv": str,
}


def cmd_bench(args: argparse.Namespace) -> int:
    _merge_config(args, _BENCH_DESTS)
    if args.target is None or args.drafter is None or args.out is None:
        raise UsageError("bench requires --target, --drafter, and --out")
    _default(args, "mode", DEPENDENT)
    _default(args, "verify", GREEDY)
    _default(args, "draft_len", 16)
    _default(args, "prompts", 64)
    _default(args, "prompt_len", 8)
    _default(args, "max_tokens", 256)
    _default(args, "seed", 0)
    _default(args, "draft_cost", 0.1)
    if args.mode not in MODES:
        raise UsageError(f"--mode must be one of {MODES}")
    if args.verify not in VERIFIERS:
        raise UsageError(f"--verify must be one of {VERIFIERS}")
    if args.draft_len < 1 or args.max_tokens < 1:
        raise UsageError("--K and --max-tokens must be >= 1")
    if args.prompt_file is None and (args.prompts < 1 or args.prompt_len < 1):
        raise UsageError("--prompts and --prompt-len must be >= 1")
    if not 0.0 <= args.draft_cost < math.inf:
        raise UsageError(f"--draft-cost must be finite and >= 0, got {args.draft_cost}")

    target = load_model(args.target)
    drafter = load_model(args.drafter)
    if args.mode == DEPENDENT and not has_feature_contexts(drafter):
        _warn("drafter has no feature-bearing contexts (trained at rho=1?); "
              "dependent mode will hit the fallback on feature slots")

    start = time.perf_counter()
    if args.prompt_file is not None:
        prompts = _read_corpus(args.prompt_file)
        if prompts == []:
            raise ValueError(f"prompt file {args.prompt_file} holds no prompts")
    else:
        prompts = bench_mod.sample_prompts(target, args.prompts, args.prompt_len, args.seed)
    sampled = time.perf_counter()
    report = bench_mod.run_bench(
        target,
        drafter,
        draft_len=args.draft_len,
        mode=args.mode,
        verify=args.verify,
        max_tokens=args.max_tokens,
        seed=args.seed,
        draft_cost=args.draft_cost,
        prompts=prompts,
        config_extra={"target_path": args.target, "drafter_path": args.drafter},
    )
    decoded = time.perf_counter()
    decode_s = decoded - sampled
    print(f"time: prompts {sampled - start:.3f} s, decode {decode_s:.3f} s, "
          f"{report.trace.total_tokens / max(decode_s, 1e-9):.0f} tok/s", file=sys.stderr)
    out = Path(args.out)
    bench_mod.write_report_json(report, out)
    positions_csv = args.positions_csv or str(out.with_suffix("")) + ".positions.csv"
    confidence_csv = args.confidence_csv or str(out.with_suffix("")) + ".confidence.csv"
    bench_mod.write_position_csv(report, positions_csv)
    bench_mod.write_confidence_csv(report, confidence_csv)
    print(f"tau: {report.tau:.4f}")
    print(f"committed per step: {report.committed_per_step:.4f}")
    print(f"speedup estimate: {report.speedup_estimate:.4f}")
    print(f"wrote report: {args.out}")
    return EXIT_OK


# --- analyze ---------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    if len(args.reports) < 2:
        raise UsageError("analyze needs at least two report files")
    named = []
    for path in args.reports:
        stem = Path(path).stem
        if any(name == stem for name, _ in named):
            raise UsageError(f"two reports share the name {stem!r}; rename one of them")
        named.append((stem, bench_mod.load_report(path)))
    baseline = named[0][0] if args.baseline is None else Path(args.baseline).stem
    if all(name != baseline for name, _ in named):
        raise UsageError(f"--baseline {args.baseline!r} names none of the reports")
    rows = bench_mod.analyze_reports(named, baseline)
    text = bench_mod.format_analysis(rows, fmt=args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote comparison: {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


# --- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="speclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a synthetic target model")
    gen.add_argument("--vocab", type=int, default=None)
    gen.add_argument("--order", type=int, default=None)
    gen.add_argument("--alpha", type=float, default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", type=str, default=None)
    gen.add_argument("--corpus", type=str, default=None, metavar="NxL")
    gen.add_argument("--corpus-out", type=str, default=None)
    gen.add_argument("--corpus-seed", type=int, default=None)
    gen.add_argument("--config", type=str, default=None)
    gen.set_defaults(func=cmd_gen)

    train = sub.add_parser("train", help="train a drafter from a target")
    train.add_argument("--target", type=str, default=None)
    train.add_argument("--out", type=str, default=None)
    train.add_argument("--weighting", type=str, default=None,
                       choices=["uniform", "decay", "cat"])
    train.add_argument("--gamma", type=float, default=None)
    train.add_argument("--K", dest="draft_len", type=int, default=None)
    train.add_argument("--rho", type=float, default=None)
    train.add_argument("--beta", type=float, default=None)
    train.add_argument("--smoothing", type=float, default=None)
    train.add_argument("--drafter-order", type=int, default=None,
                       help="train the drafter at a lower order than the target")
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--data-seqs", type=int, default=None)
    train.add_argument("--data-len", type=int, default=None)
    train.add_argument("--corpus", type=str, default=None,
                       help="train on this corpus file instead of self-sampled data")
    train.add_argument("--train-config", type=str, default=None,
                       help="hyperparameter sheet (key=value lines)")
    train.add_argument("--config", type=str, default=None)
    train.set_defaults(func=cmd_train)

    bench = sub.add_parser("bench", help="benchmark a target/drafter pair")
    bench.add_argument("--target", type=str, default=None)
    bench.add_argument("--drafter", type=str, default=None)
    bench.add_argument("--out", type=str, default=None)
    bench.add_argument("--mode", type=str, default=None)
    bench.add_argument("--verify", type=str, default=None)
    bench.add_argument("--K", dest="draft_len", type=int, default=None)
    bench.add_argument("--prompts", type=int, default=None)
    bench.add_argument("--prompt-len", type=int, default=None)
    bench.add_argument("--max-tokens", type=int, default=None)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--draft-cost", type=float, default=None)
    bench.add_argument("--prompt-file", type=str, default=None)
    bench.add_argument("--positions-csv", type=str, default=None)
    bench.add_argument("--confidence-csv", type=str, default=None)
    bench.add_argument("--config", type=str, default=None)
    bench.set_defaults(func=cmd_bench)

    analyze = sub.add_parser("analyze", help="compare benchmark reports")
    analyze.add_argument("reports", nargs="*")
    analyze.add_argument("--baseline", type=str, default=None,
                         help="report (path or stem) the deltas are measured against")
    analyze.add_argument("--format", type=str, default="markdown", choices=["markdown", "csv"])
    analyze.add_argument("--out", type=str, default=None)
    analyze.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
