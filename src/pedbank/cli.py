"""Command-line pipeline around the bank.

Subcommands: ``gen-synthetic`` writes a labeled embedding file,
``build-bank`` clusters pedestrian embeddings and trains hints,
``inspect`` reports codeword assignments and exports composed features,
``complement`` runs cross-attention over a feature batch, and
``gradcheck`` verifies both backward passes with finite differences.

Exit codes: 0 success, 2 parse/format failure or usage error, 3 dimension
mismatch, 4 precondition violation, 5 gradient-check threshold failure,
6 I/O failure, 1 any other package error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import attention, bank, embeddings, gradcheck, hints, jsonio, quantizer
from .errors import DimensionError, ParseError, PedbankError, PreconditionError

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_PRECONDITION = 4
EXIT_THRESHOLD = 5
EXIT_IO = 6


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def seed_type(text: str) -> int:
    """The argparse type of every ``--seed``: NumPy seeds are nonnegative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return seed


def cmd_gen_synthetic(args) -> int:
    dataset = embeddings.generate_synthetic(
        seed=args.seed,
        pedestrians=args.pedestrians,
        backgrounds=args.backgrounds,
        dim=args.d,
        separation=args.separation,
    )
    embeddings.write_embedding_file(dataset, args.out)
    print(
        f"wrote {len(dataset)} records to {args.out} "
        f"({args.pedestrians} pedestrian, {args.backgrounds} background, "
        f"d={args.d}, separation={args.separation})"
    )
    return EXIT_OK


def cmd_build_bank(args) -> int:
    dataset = embeddings.parse_embedding_file(args.embeddings, normalize=args.normalize)
    pedestrians, backgrounds = embeddings.split_by_label(dataset)
    if len(pedestrians) == 0 or len(backgrounds) == 0:
        raise PreconditionError(
            "building a bank requires both pedestrian and background records"
        )
    codebook = quantizer.kmeans(
        pedestrians,
        quantizer.KMeansConfig(
            n=args.n, max_iters=args.max_iters, tol=args.tol, seed=args.seed
        ),
    )
    counts = np.bincount(quantizer.assignment_report(dataset, codebook), minlength=codebook.n)
    del dataset  # the splits hold a copy of every row; keep one copy through training
    hint_set, _, history = hints.train_hints(
        pedestrians,
        backgrounds,
        codebook,
        hints.TrainConfig(
            lr=args.lr,
            steps=args.steps,
            seed=args.seed,
            hidden=args.hidden,
            train_hints=(args.hints == "on"),
        ),
    )
    meta = {
        "source": str(args.embeddings),
        "n": str(args.n),
        "dim": str(codebook.dim),
        "seed": str(args.seed),
        "lr": str(args.lr),
        "steps": str(args.steps),
        "hidden": str(args.hidden),
        "hints": args.hints,
        "normalize": str(args.normalize).lower(),
    }
    built = bank.assemble_bank(codebook, hint_set, meta)
    bank.save_bank(built, args.out)
    if args.history is not None:
        hints.write_history(history, args.history)
    print(f"wrote bank to {args.out} (n={built.n}, dim={built.dim})")
    print(f"final loss: {history[-1].loss:.6f}")
    print(f"assignment entropy: {_entropy(counts):.6f} nats")
    return EXIT_OK


def cmd_inspect(args) -> int:
    loaded = bank.load_bank(args.bank)
    dataset = embeddings.parse_embedding_file(args.embeddings, normalize=args.normalize)
    codebook = quantizer.Codebook(n=loaded.n, dim=loaded.dim, centroids=loaded.f_q)
    assigned = quantizer.assignment_report(dataset, codebook).tolist()
    counts = np.bincount(assigned, minlength=loaded.n).tolist()
    groups: dict[str, list[str]] = {str(i): [] for i in range(loaded.n)}
    for rec_id, i in zip(dataset.ids, assigned):
        groups[str(i)].append(rec_id)
    print(f"bank {args.bank}: n={loaded.n}, dim={loaded.dim}")
    print(f"records: {len(dataset)}")
    for i, count in enumerate(counts):
        print(f"codeword {i}: {count}")
    groups_out = args.groups_out or f"{args.bank}.groups.json"
    doc = {
        "n": loaded.n,
        "records": len(dataset),
        "counts": counts,
        "groups": groups,
    }
    jsonio.write_documents(groups_out, [doc])
    csv_out = args.fk_csv_out or f"{args.bank}.fk.csv"
    with open(csv_out, "w", encoding="utf-8") as fh:
        for row in loaded.f_k:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")
    print(f"wrote groups report to {groups_out}")
    print(f"wrote composed-feature csv to {csv_out}")
    return EXIT_OK


def cmd_complement(args) -> int:
    loaded = bank.load_bank(args.bank)
    batch = attention.load_feature_batch(args.features)
    if args.params is not None:
        params = attention.load_attention_params(args.params)
    else:
        params = attention.init_attention(
            c=batch.c, d=loaded.dim, d_m=args.d_model, heads=args.heads, seed=args.seed
        )
    if args.zero_output_proj:
        params = dataclasses.replace(params, w_o=np.zeros_like(params.w_o))
    out, _ = attention.cross_attend(batch, loaded, params)
    attention.save_feature_batch(out, args.out)
    print(
        f"wrote complemented batch to {args.out} "
        f"(mode={out.mode}, m={out.m}, h={out.h}, w={out.w}, c={out.c})"
    )
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    clf_errors = gradcheck.classifier_check(
        seed=args.seed, negate="w1" if args.inject_sign_error else None
    )
    attn_errors = gradcheck.attention_check(
        seed=args.seed, negate="w_q" if args.inject_sign_error else None
    )
    worst = 0.0
    for group, err in clf_errors.items():
        print(f"classifier {group}: {err:.3e}")
        worst = max(worst, err)
    for group, err in attn_errors.items():
        print(f"attention {group}: {err:.3e}")
        worst = max(worst, err)
    print(f"max relative error: {worst:.3e} (tolerance {args.tolerance:g})")
    if worst < args.tolerance:
        print("gradcheck: OK")
        return EXIT_OK
    print("gradcheck: FAIL")
    return EXIT_THRESHOLD


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pedbank",
        description="Build, inspect, and apply a pedestrian knowledge bank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write a synthetic labeled embedding file")
    p.add_argument("out")
    p.add_argument("--seed", type=seed_type, default=0)
    p.add_argument("--pedestrians", type=int, default=600)
    p.add_argument("--backgrounds", type=int, default=400)
    p.add_argument("--d", type=int, default=512, help="embedding dimension")
    p.add_argument(
        "--separation", type=float, default=8.0,
        help="distance between the two cluster means (0 = indistinguishable)",
    )
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser(
        "build-bank", help="cluster pedestrian embeddings, train hints, save the bank"
    )
    p.add_argument("embeddings")
    p.add_argument("out")
    p.add_argument("--n", type=int, default=50, help="number of codewords")
    p.add_argument("--seed", type=seed_type, default=0)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument(
        "--normalize", action=argparse.BooleanOptionalAction, default=True,
        help="L2-normalize vectors at ingestion (default); --no-normalize keeps them raw",
    )
    p.add_argument("--hints", choices=("on", "off"), default="on")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument(
        "--history", default=None,
        help="also write the per-sample training history as JSON lines",
    )
    p.set_defaults(func=cmd_build_bank)

    p = sub.add_parser(
        "inspect", help="report codeword assignments and export composed features"
    )
    p.add_argument("bank")
    p.add_argument("embeddings")
    p.add_argument(
        "--normalize", action=argparse.BooleanOptionalAction, default=True,
        help="L2-normalize vectors at ingestion, as build-bank does (default)",
    )
    p.add_argument(
        "--groups-out", default=None,
        help="grouping report path (default: BANK.groups.json)",
    )
    p.add_argument(
        "--fk-csv-out", default=None,
        help="composed-feature csv path (default: BANK.fk.csv)",
    )
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("complement", help="run cross-attention over a feature batch")
    p.add_argument("bank")
    p.add_argument("features")
    p.add_argument("out")
    p.add_argument("--seed", type=seed_type, default=0)
    p.add_argument(
        "--params", default=None,
        help="load attention parameters from a file instead of seeding them",
    )
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument(
        "--zero-output-proj", action="store_true",
        help="zero the output projection; the result is layer_norm(input)",
    )
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser(
        "gradcheck", help="finite-difference check of both backward passes"
    )
    p.add_argument("--seed", type=seed_type, default=0)
    p.add_argument("--tolerance", type=float, default=gradcheck.DEFAULT_TOLERANCE)
    p.add_argument("--inject-sign-error", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PedbankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
