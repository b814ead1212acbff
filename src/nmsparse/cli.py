"""Command-line entry points.

Subcommands: train, fold, verify, compress, bench, schedule. ``verify``
exits 0 iff no eligible layer violates the pattern. Bad input exits 2 and a
diverging ``train`` exits 3, each with a one-line ``error:`` message.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import runner, sparse_format
from .archives import (
    FoldedModel,
    load_compressed_archive,
    load_folded_archive,
    save_compressed_archive,
    save_folded_archive,
)
from .checkpoint import atomic_write_bytes, load_checkpoint
from .config import RunConfig
from .errors import DivergenceError
from .masks import SparsePattern
from .schedule import Schedule, delta


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    return "\n".join(lines)


def _csv(headers: list[str], rows: list[list[str]]) -> str:
    return "\n".join(",".join(cells) for cells in [headers, *rows]) + "\n"


def _write_csv(path: str, headers: list[str], rows: list[list[str]]) -> None:
    atomic_write_bytes(path, _csv(headers, rows).encode())
    print(f"wrote {path}")


def cmd_train(args: argparse.Namespace) -> int:
    config = None if args.config is None else RunConfig.from_file(args.config)
    # a diverging run overflows before fit sees the non-finite loss and raises
    with np.errstate(over="ignore", invalid="ignore"):
        result, out_dir = runner.run_training(
            config,
            resume_from=args.resume,
            log=lambda row: print(
                f"epoch {row['epoch']:>4}  delta {row['delta']:.4f}  lr {row['lr']:.5f}  "
                f"loss {row['loss']:.5f}  acc {row['accuracy']:.4f}"
            ),
        )
    final = {"loss": math.nan, "accuracy": math.nan, **result.metrics[-1]}  # a resumed header may lack either
    print(f"\nfinal loss {final['loss']:.5f}, accuracy {final['accuracy']:.4f}")
    print(f"checkpoint: {out_dir / 'checkpoint.maxq'}")
    print(f"metrics:    {out_dir / 'metrics.csv'}")
    return 0


def cmd_fold(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.ckpt)
    folded = runner.fold_checkpoint(ckpt)
    save_folded_archive(args.out, folded)
    print(f"folded {len(folded.layers)} layers -> {args.out}")
    return 0


def _verify_rows(folded: FoldedModel, pattern: SparsePattern) -> tuple[list[list[str]], int]:
    rows = []
    total_violations = 0
    for layer in folded.layers:
        if layer.eligible:
            report = sparse_format.verify(layer.weight, pattern)
            total_violations += report.violating_blocks
            rows.append(
                [
                    layer.name,
                    str(report.blocks),
                    str(report.violating_blocks),
                    f"{report.sparsity:.4f}",
                ]
            )
        else:
            rows.append([layer.name, "-", "-", "dense"])
    return rows, total_violations


def cmd_verify(args: argparse.Namespace) -> int:
    folded = load_folded_archive(args.weights)
    pattern = SparsePattern.parse(args.pattern)
    rows, total_violations = _verify_rows(folded, pattern)
    headers = ["layer", "blocks", "violations", "sparsity"]
    print(_table(headers, rows))
    print(f"\ntotal violating blocks: {total_violations}")
    if args.csv:
        _write_csv(args.csv, headers, rows)
    return 0 if total_violations == 0 else 1


def cmd_compress(args: argparse.Namespace) -> int:
    folded = load_folded_archive(args.weights)
    pattern = SparsePattern.parse(args.pattern)
    save_compressed_archive(args.out, folded, pattern)
    eligible = sum(1 for l in folded.layers if l.eligible)
    print(f"compressed {eligible} eligible layers ({len(folded.layers)} total) -> {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps needs at least one repetition, got {args.reps}")
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--sizes needs one or more column counts >= 1, got {args.sizes!r}")
    rng = np.random.default_rng(args.seed)
    headers = ["layer", "shape", "cols", "csr_ms", "dense_ms", "speedup", "flop_reduction"]
    rows = []
    for entry, payload in load_compressed_archive(args.archive):
        if not isinstance(payload, sparse_format.CompressedNM):
            continue
        shape = payload.matrix_shape
        for cols in sizes:
            x = rng.uniform(-1.0, 1.0, size=(shape[1], cols))
            csr, dense = sparse_format.bench(payload, x, repetitions=args.reps)
            speedup = dense / csr if csr > 0 else math.inf
            flop_reduction = payload.pattern.m / payload.pattern.n  # the CSR product reads n of every m weights
            rows.append([entry["name"], f"{shape[0]}x{shape[1]}", str(cols), f"{csr * 1e3:.3f}",
                         f"{dense * 1e3:.3f}", f"{speedup:.3f}", f"{flop_reduction:.2f}"])
    if not rows:
        print("archive holds no compressed layers")
        return 1
    print(_table(headers, rows))
    if args.csv:
        _write_csv(args.csv, headers, rows)
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    kind = {"cos": "cosine"}.get(args.kind, args.kind)
    sched = Schedule(t_i=args.ti, t_f=args.tf, kind=kind)
    headers, rows = ["t", "delta"], [[str(t), repr(delta(t, sched))] for t in range(args.tf + 1)]
    if args.out:
        _write_csv(args.out, headers, rows)
    else:
        print(_csv(headers, rows), end="")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one ``error:`` line and exit 2, like any bad input
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nmsparse",
        description="N:M structured sparsity: train, fold, verify, compress, bench, schedule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON run config, or resume a checkpoint")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to the run-configuration JSON")
    source.add_argument("--resume", help="checkpoint to resume, under the config it stores")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("fold", help="fold soft masks into weights and archive them")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fold)

    p = sub.add_parser("verify", help="check a folded archive against an N:M pattern")
    p.add_argument("--weights", required=True)
    p.add_argument("--pattern", required=True, help="pattern as n:m, e.g. 2:4")
    p.add_argument("--csv", default=None, help="also write the report as CSV")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compress", help="pack folded weights into the compressed format")
    p.add_argument("--weights", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("bench", help="time a CSR product against the dense GEMM that spmm uses")
    p.add_argument("--archive", required=True)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--sizes", default="64,256", help="comma-separated input column counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="also write the table as CSV")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("schedule", help="tabulate the sparsification ramp")
    p.add_argument("--ti", type=int, required=True)
    p.add_argument("--tf", type=int, required=True)
    p.add_argument("--kind", choices=["cubic", "linear", "cos", "cosine"], default="cubic")
    p.add_argument("--out", default=None, help="CSV output path (stdout if omitted)")
    p.set_defaults(fn=cmd_schedule)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
