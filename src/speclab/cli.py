"""Command-line experiment runner: gen, train, bench, analyze.

Each flag's type and default are declared once, in :func:`build_parser`. A
key=value ``--config`` file can set any option of its subcommand except
``--config`` and ``--train-config``. Its keys are the option names, with
dashes or underscores (``--K`` is ``draft_len``), and its values become the
subcommand's defaults, so the command line wins. For ``train`` the order is
command line > ``--config`` > ``--train-config`` sheet > ``TrainConfig``
defaults. Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numeric or
validation error, an allocation failure included.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .drafting import has_feature_contexts
from .models import MAX_ORDER, load_model, make_synthetic_target, sample_sequences, save_model
from .training import (
    WEIGHTINGS,
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


def _read_text(path: str) -> str:
    """A UTF-8 input file's text; a file that is not UTF-8 is a ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_config(args: argparse.Namespace) -> dict[str, str]:
    """The ``--config`` file's raw values by option name, each an option of the command."""
    text = _read_text(args.config)
    try:
        values = {norm: value for _key, norm, value in read_key_values(text)}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    settable = vars(args).keys() - {"command", "func", "parser", "config", "train_config"}
    for key in values:
        if key not in settable:
            raise UsageError(f"unknown config key for this command: {key!r}")
    return values


def _check_outputs(outputs: list[tuple[str, str | None]],
                   inputs: list[tuple[str, str | None]]) -> None:
    """Usage error when two of a command's outputs are one file or an output
    is one of its inputs, compared by ``Path.resolve()``. Each entry pairs a
    flag with its path, None where the flag is unset; inputs may share a file."""
    seen: dict[Path, str] = {}
    for flag, path in inputs:
        if path is not None:
            seen.setdefault(Path(path).resolve(), flag)
    for flag, path in outputs:
        if path is not None:
            other = seen.setdefault(Path(path).resolve(), flag)
            if other != flag:
                raise UsageError(f"{flag} {path} is the same file as {other}")


def _write_corpus(path: str, sequences: list[list[int]]) -> None:
    lines = [" ".join(str(t) for t in seq) for seq in sequences]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_corpus(path: str, vocab_size: int) -> list[list[int]]:
    """The token lists of a corpus or prompt file's nonblank lines; a token
    that is not an integer in [0, ``vocab_size``) is reported with its line."""
    sequences = []
    for number, line in enumerate(_read_text(path).splitlines(), 1):
        try:
            tokens = [int(t) for t in line.split()]
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from None
        for t in tokens:
            if not 0 <= t < vocab_size:
                raise ValueError(f"{path} line {number}: token out of range "
                                 f"[0, {vocab_size}): {t}")
        if tokens:
            sequences.append(tokens)
    return sequences


# --- gen -------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    if args.out is None:
        raise UsageError("gen requires --out")
    if args.vocab < 2 or not 1 <= args.order <= MAX_ORDER or not 0 < args.alpha < math.inf:
        raise UsageError(f"gen needs --vocab >= 2, --order in 1..{MAX_ORDER}, "
                         "a finite --alpha > 0")
    for flag, seed in (("--seed", args.seed), ("--corpus-seed", args.corpus_seed)):
        if seed is not None and seed < 0:
            raise UsageError(f"{flag} must be >= 0, got {seed}")
    if args.corpus is None:
        if args.corpus_out is not None or args.corpus_seed is not None:
            raise UsageError("--corpus-out and --corpus-seed require --corpus")
    else:
        if args.corpus_out is None:
            raise UsageError("--corpus requires --corpus-out")
        try:
            n_str, len_str = args.corpus.lower().split("x", 1)
            n_seqs, seq_len = int(n_str), int(len_str)
        except ValueError as exc:
            raise UsageError(f"--corpus must look like NxL, got {args.corpus!r}") from exc
        if n_seqs < 1 or seq_len < 1:
            raise UsageError("--corpus dimensions must be >= 1")
    _check_outputs([("--out", args.out), ("--corpus-out", args.corpus_out)],
                   [("--config", args.config)])
    start = time.perf_counter()
    model = make_synthetic_target(args.seed, args.vocab, args.order, args.alpha)
    generated = time.perf_counter()
    save_model(model, args.out)
    saved = time.perf_counter()
    times = f"time: generate {generated - start:.3f} s, save {saved - generated:.3f} s"
    if args.corpus is not None:
        corpus_seed = args.corpus_seed if args.corpus_seed is not None else args.seed
        uniforms = [np.random.default_rng([corpus_seed, i]).random(seq_len)
                    for i in range(n_seqs)]
        try:
            _write_corpus(args.corpus_out, sample_sequences(model, np.array(uniforms)).tolist())
        except (OSError, MemoryError):
            Path(args.out).unlink()  # a failed gen leaves no output file behind
            raise
        times += f", corpus {time.perf_counter() - saved:.3f} s"
    print(times, file=sys.stderr)
    print(f"wrote target model: {args.out}")
    if args.corpus is not None:
        print(f"wrote corpus ({n_seqs}x{seq_len}): {args.corpus_out}")
    return EXIT_OK


# --- train -----------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    if args.target is None or args.out is None:
        raise UsageError("train requires --target and --out")
    _check_outputs([("--out", args.out)], [
        ("--target", args.target), ("--corpus", args.corpus),
        ("--train-config", args.train_config), ("--config", args.config)])
    kwargs: dict = {}
    if args.train_config is not None:
        try:
            kwargs, ignored = parse_train_config_file(
                Path(args.train_config).read_text(encoding="utf-8")
            )
        except ValueError as exc:
            raise ValueError(f"{args.train_config}: {exc}") from None
        for key in ignored:
            _warn(f"ignoring gradient-trainer config key {key!r} (no gradient trainer exists)")
    flags = {field.name: getattr(args, field.name) for field in fields(TrainConfig)
             if getattr(args, field.name, None) is not None}
    # Each value is checked alone first, so a range error names the flag or sheet that set it.
    for name, value in (kwargs | flags).items():
        try:
            TrainConfig(**{name: value})
        except ValueError as exc:
            flag = "--K" if name == "draft_len" else "--" + name.replace("_", "-")
            raise UsageError(f"{flag if name in flags else args.train_config}: {exc}") from exc
    config = TrainConfig(**kwargs | flags)

    start = time.perf_counter()
    target = load_model(args.target)
    loaded = time.perf_counter()
    if args.corpus is not None:
        corpus = _read_corpus(args.corpus, target.vocab.size)
        if all(len(tokens) <= config.draft_len for tokens in corpus):
            raise ValueError(f"{args.corpus}: no line has a training window: a line needs at "
                             f"least K + 1 = {config.draft_len + 1} tokens")
    else:
        if args.data_seqs < 1 or args.data_len < config.draft_len + 1:
            raise UsageError("--data-seqs must be >= 1 and --data-len >= draft length + 1")
        corpus = sample_corpus(target, args.data_seqs, args.data_len,
                               np.random.default_rng([config.seed, 0]))
    sampled = time.perf_counter()
    windows = build_training_windows(
        target, corpus, config, np.random.default_rng([config.seed, 1])
    )
    built = time.perf_counter()
    drafter = train_tabular_drafter(windows, config)
    solved = time.perf_counter()
    mean_loss = float(np.mean(window_losses(drafter, windows, config)))
    scored = time.perf_counter()
    save_model(drafter, args.out)
    print(f"time: load {loaded - start:.3f} s, corpus {sampled - loaded:.3f} s, "
          f"windows {built - sampled:.3f} s, solve {solved - built:.3f} s, "
          f"loss {scored - solved:.3f} s, save {time.perf_counter() - scored:.3f} s",
          file=sys.stderr)
    print(f"windows: {len(windows)}")
    print(f"mean window loss: {mean_loss:.6f}")
    print(f"wrote drafter model: {args.out}")
    return EXIT_OK


# --- bench -----------------------------------------------------------------


def cmd_bench(args: argparse.Namespace) -> int:
    if args.target is None or args.drafter is None or args.out is None:
        raise UsageError("bench requires --target, --drafter, and --out")
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
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    stem = str(Path(args.out).with_suffix(""))
    positions_csv = args.positions_csv or stem + ".positions.csv"
    confidence_csv = args.confidence_csv or stem + ".confidence.csv"
    _check_outputs(
        [("--out", args.out), ("--positions-csv", positions_csv),
         ("--confidence-csv", confidence_csv)],
        [("--target", args.target), ("--drafter", args.drafter),
         ("--prompt-file", args.prompt_file), ("--config", args.config)])

    start = time.perf_counter()
    target = load_model(args.target)
    drafter = load_model(args.drafter)
    load_s = time.perf_counter() - start
    if args.mode == DEPENDENT and not has_feature_contexts(drafter):
        _warn("drafter has no feature-bearing contexts (trained at rho=1?); "
              "dependent mode will hit the fallback on feature slots")

    start = time.perf_counter()
    if args.prompt_file is not None:
        prompts = _read_corpus(args.prompt_file, target.vocab.size)
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
    )
    decode_s = time.perf_counter() - sampled
    report.config.update(target_path=args.target, drafter_path=args.drafter)
    print(f"time: load {load_s:.3f} s, prompts {sampled - start:.3f} s, decode {decode_s:.3f} s, "
          f"{report.trace.total_tokens / max(decode_s, 1e-9):.0f} tok/s", file=sys.stderr)
    outputs = [(bench_mod.write_report_json, args.out),
               (bench_mod.write_position_csv, positions_csv),
               (bench_mod.write_confidence_csv, confidence_csv)]
    for i, (write, path) in enumerate(outputs):
        try:
            write(report, path)
        except (OSError, MemoryError):
            for _, written in outputs[:i]:
                Path(written).unlink()  # a failed bench leaves no partial result behind
            raise
    print(f"tau: {report.tau:.4f}")
    print(f"committed per step: {report.committed_per_step:.4f}")
    print(f"speedup estimate: {report.speedup_estimate:.4f}")
    print(f"wrote report: {args.out}")
    return EXIT_OK


# --- analyze ---------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    if len(args.reports) < 2:
        raise UsageError("analyze needs at least two report files")
    _check_outputs([("--out", args.out)], [("a report", path) for path in args.reports])
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
    gen.add_argument("--vocab", type=int, default=16)
    gen.add_argument("--order", type=int, default=2)
    gen.add_argument("--alpha", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out")
    gen.add_argument("--corpus", metavar="NxL")
    gen.add_argument("--corpus-out")
    gen.add_argument("--corpus-seed", type=int, help="corpus seed (default: --seed)")
    gen.add_argument("--config")
    gen.set_defaults(func=cmd_gen, parser=gen)

    # TrainConfig-bound flags default to None, so the sheet and the dataclass
    # defaults apply below them.
    train = sub.add_parser("train", help="train a drafter from a target")
    train.add_argument("--target")
    train.add_argument("--out")
    train.add_argument("--weighting", choices=WEIGHTINGS)
    train.add_argument("--gamma", type=float)
    train.add_argument("--K", dest="draft_len", type=int)
    train.add_argument("--rho", type=float)
    train.add_argument("--beta", type=float)
    train.add_argument("--smoothing", type=float)
    train.add_argument("--drafter-order", type=int,
                       help="train the drafter at a lower order than the target")
    train.add_argument("--seed", type=int)
    train.add_argument("--data-seqs", type=int, default=256)
    train.add_argument("--data-len", type=int, default=64)
    train.add_argument("--corpus", help="train on this corpus file instead of self-sampled data")
    train.add_argument("--train-config", help="hyperparameter sheet (key=value lines)")
    train.add_argument("--config")
    train.set_defaults(func=cmd_train, parser=train)

    bench = sub.add_parser("bench", help="benchmark a target/drafter pair")
    bench.add_argument("--target")
    bench.add_argument("--drafter")
    bench.add_argument("--out")
    bench.add_argument("--mode", default=DEPENDENT)
    bench.add_argument("--verify", default=GREEDY)
    bench.add_argument("--K", dest="draft_len", type=int, default=16)
    bench.add_argument("--prompts", type=int, default=64)
    bench.add_argument("--prompt-len", type=int, default=8)
    bench.add_argument("--max-tokens", type=int, default=256)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--draft-cost", type=float, default=0.1)
    bench.add_argument("--prompt-file")
    bench.add_argument("--positions-csv")
    bench.add_argument("--confidence-csv")
    bench.add_argument("--config")
    bench.set_defaults(func=cmd_bench, parser=bench)

    analyze = sub.add_parser("analyze", help="compare benchmark reports")
    analyze.add_argument("reports", nargs="*")
    analyze.add_argument("--baseline",
                         help="report (path or stem) the deltas are measured against")
    analyze.add_argument("--format", default="markdown", choices=["markdown", "csv"])
    analyze.add_argument("--out")
    analyze.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # The file's values become the subcommand's defaults: argparse
            # casts each with its flag's type, and the command line wins.
            args.parser.set_defaults(**_read_config(args))
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
    except MemoryError as exc:  # e.g. the table of a high-order model
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
