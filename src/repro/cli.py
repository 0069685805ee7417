"""Command-line interface.

``repro`` (alias ``repro-mf``, or ``python -m repro.cli``) exposes the
experiment harness so every table and figure of the paper can be
regenerated from a shell, plus training and serving entry points::

    repro list                      # show available experiments
    repro train --dataset movielens --algorithm hsgd_star
    repro recommend --dataset movielens --users 0 1 2   # train + top-K
    repro serve --synthetic --handle-out h.json         # HTTP front door
    repro recommend --attach h.json --users 0 1 2       # score via the segment
    repro serve-bench --items 17770                     # serving throughput
    repro ingest --dataset movielens --publish          # streaming replay
    repro gc-shm                    # reap shm segments orphaned by crashes
    repro tune --quick              # calibrate, write tuned_profile.json
    repro figure10                  # time-to-target vs GPU workers
    repro table2 --full             # Table II with the paper's sweep

Autotuning: ``repro tune`` fits the Section V cost models on this
machine and writes a reusable profile; ``--profile PATH`` on the
train/recommend/serve/serve-bench/ingest commands loads it, after which
every ``"auto"`` knob (``--workers auto``, ``--batch-size auto``,
``--chunk-items auto``, ``--backend auto``) resolves through it instead
of the hand-picked defaults.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .config import AUTO_BACKEND, AUTO_TUNABLE, DEFAULT_BATCH_SIZE, KERNEL_NAMES
from .core import ALGORITHMS, HeterogeneousTrainer
from .exec import Checkpoint, EarlyStopping, JsonlLogger, backend_names
from .serve import DEFAULT_CHUNK_ITEMS
from .serve.service import DEFAULT_SERVICE_BATCH
from .sgd.native import native_status
from .datasets import dataset_names, load_dataset
from .experiments import (
    ExperimentContext,
    ablation_alpha_sensitivity,
    ablation_column_rule,
    ablation_stream_overlap,
    example3_update_imbalance,
    figure3_block_throughput,
    figure6_transfer_speed,
    figure7_kernel_throughput,
    figure10_vary_gpu_workers,
    figure11_vary_cpu_threads,
    figure12_rmse_curves,
    figure13_division_ablation,
    observation_block_sensitivity,
    table1_datasets,
    table2_cost_models,
    table3_dynamic_scheduling,
)
from .experiments.tables import render_table1
from .metrics.reporting import format_mapping

EXPERIMENTS = (
    "figure3",
    "figure6",
    "figure7",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "table1",
    "table2",
    "table3",
    "observations",
    "ablations",
)


def _int_or_auto(text: str):
    """argparse type for knobs that accept an integer or ``"auto"``."""
    if text == AUTO_TUNABLE:
        return AUTO_TUNABLE
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or {AUTO_TUNABLE!r}, got {text!r}"
        ) from None


def _add_profile_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help=(
            "load a tuned profile written by 'repro tune'; every 'auto' "
            "knob then resolves through it instead of the built-in defaults"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient Matrix Factorization on "
            "Heterogeneous CPU-GPU Systems' (ICDE 2021)."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list experiments, datasets and algorithms")

    train = subparsers.add_parser("train", help="train one algorithm on one dataset")
    train.add_argument("--dataset", default="movielens", choices=dataset_names())
    train.add_argument("--algorithm", default="hsgd_star", choices=sorted(ALGORITHMS))
    train.add_argument("--iterations", type=int, default=10)
    train.add_argument("--cpu-threads", type=int, default=16)
    train.add_argument(
        "--workers",
        type=_int_or_auto,
        default=None,
        metavar="N",
        help=(
            "number of CPU workers (overrides --cpu-threads): one worker "
            "thread/process per scheduler worker on the real execution "
            "backends; 'auto' resolves through a loaded --profile"
        ),
    )
    train.add_argument("--gpu-workers", type=int, default=128)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--backend",
        default="simulate",
        # Resolved at parser-build time so backends added with
        # repro.exec.register_backend() are accepted without a CLI edit.
        choices=(AUTO_BACKEND,) + backend_names(),
        help=(
            "execution backend: 'simulate' replays the run on the modelled "
            "hardware, 'threads' trains with real concurrent worker threads, "
            "'processes' with worker processes over shared-memory factors "
            "(true multicore scaling), 'auto' picks processes for "
            "multi-worker runs when the platform supports them; any backend "
            "registered via repro.exec.register_backend() is accepted"
        ),
    )
    train.add_argument(
        "--target-rmse",
        type=float,
        default=None,
        help="stop as soon as the test RMSE reaches this value",
    )
    train.add_argument(
        "--max-time",
        type=float,
        default=None,
        help=(
            "hard time budget in engine seconds (simulated seconds for the "
            "'simulate' backend, wall-clock seconds for 'threads')"
        ),
    )
    train.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help=(
            "write a resumable checkpoint to PATH (.npz) every "
            "--checkpoint-every epochs; a '{epoch}' placeholder in PATH "
            "keeps one file per boundary"
        ),
    )
    train.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint frequency in epochs (default: every epoch)",
    )
    train.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help=(
            "resume from a checkpoint written by --checkpoint; the other "
            "flags must reproduce the checkpointed run (same dataset, "
            "algorithm, workers and seed), and --iterations counts the "
            "total epochs including the checkpointed ones"
        ),
    )
    train.add_argument(
        "--log-jsonl",
        metavar="PATH",
        default=None,
        help=(
            "write one JSON line per epoch (RMSE/time trajectory) to PATH; "
            "a fresh run truncates the file, a --resume run appends so the "
            "combined trajectory survives"
        ),
    )
    train.add_argument(
        "--early-stop-patience",
        type=int,
        default=None,
        metavar="N",
        help=(
            "stop after N consecutive epochs without test-RMSE improvement "
            "of at least --early-stop-min-delta"
        ),
    )
    train.add_argument(
        "--early-stop-min-delta",
        type=float,
        default=0.0,
        metavar="D",
        help="minimum RMSE decrease that counts as an improvement (default 0)",
    )
    train.add_argument(
        "--kernel",
        default="auto",
        choices=KERNEL_NAMES,
        help=(
            "SGD update kernel: 'auto' (default) uses the compiled 'native' "
            "kernel when a C compiler is available and the numpy "
            "'minibatch_local' kernel otherwise (both over pre-gathered band "
            "data), 'native' forces the compiled kernel (an error when it "
            "cannot be built; within 1e-12 of the numpy kernels), "
            "'minibatch_local' forces the numpy band-local kernel, "
            "'sequential' the exact per-rating reference loop (slow)"
        ),
    )
    train.add_argument(
        "--batch-size",
        type=_int_or_auto,
        default=None,
        metavar="B",
        help=(
            "mini-batch length of the vectorised kernels (default "
            f"{DEFAULT_BATCH_SIZE}, 'auto' resolves through a loaded "
            "--profile); the 'sequential' reference kernel ignores it"
        ),
    )
    _add_profile_flag(train)

    recommend = subparsers.add_parser(
        "recommend",
        help="train (or load) a model and print top-K recommendations",
    )
    recommend.add_argument("--dataset", default="movielens", choices=dataset_names())
    recommend.add_argument(
        "--model",
        metavar="PATH",
        default=None,
        help=(
            "serve from a model saved with FactorModel.save instead of "
            "training one first"
        ),
    )
    recommend.add_argument("--iterations", type=int, default=10)
    recommend.add_argument("--seed", type=int, default=0)
    recommend.add_argument(
        "--users",
        type=int,
        nargs="+",
        default=[0],
        help="user ids to recommend for",
    )
    recommend.add_argument("--top", type=int, default=10, metavar="K")
    recommend.add_argument(
        "--exclude-seen",
        action="store_true",
        help="never recommend items the user already rated in the training set",
    )
    recommend.add_argument(
        "--chunk-items",
        type=_int_or_auto,
        default=DEFAULT_CHUNK_ITEMS,
        metavar="C",
        help=(
            f"item-axis tile width of the scorer (default: "
            f"{DEFAULT_CHUNK_ITEMS}, 'auto' resolves through a loaded "
            "--profile)"
        ),
    )
    _add_profile_flag(recommend)
    recommend.add_argument(
        "--attach",
        metavar="HANDLE",
        default=None,
        help=(
            "score zero-copy against a published ModelStore segment, "
            "described by a handle JSON written with 'repro serve "
            "--handle-out' (no dataset load, no training)"
        ),
    )
    recommend.add_argument(
        "--ann",
        action="store_true",
        help=(
            "serve from the approximate IVF index tier (builds one over "
            "the model, or maps the published one with --attach)"
        ),
    )
    recommend.add_argument(
        "--nlist",
        type=int,
        default=64,
        metavar="L",
        help="inverted lists when building an ANN index (default: 64)",
    )
    recommend.add_argument(
        "--nprobe",
        type=int,
        default=8,
        metavar="P",
        help="inverted lists probed per user on the ANN tier (default: 8)",
    )

    serve = subparsers.add_parser(
        "serve",
        help=(
            "publish a model to shared memory and serve top-K over HTTP "
            "(admission control, deadlines, hot-swappable readers)"
        ),
    )
    serve.add_argument(
        "--model",
        metavar="PATH",
        default=None,
        help="serve a model saved with FactorModel.save",
    )
    serve.add_argument(
        "--synthetic",
        action="store_true",
        help="serve a random model of --users x --items x --factors",
    )
    serve.add_argument("--users", type=int, default=20_000, metavar="M")
    serve.add_argument("--items", type=int, default=17_770, metavar="N")
    serve.add_argument("--factors", type=int, default=128, metavar="K")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8377,
        help="TCP port (0 picks a free ephemeral port)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="R", help="reader processes"
    )
    serve.add_argument("--top", type=int, default=10, metavar="K")
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="Q",
        help="max in-flight requests per reader before 503s (admission bound)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=1000.0,
        metavar="D",
        help="default per-request deadline (clients may lower it per request)",
    )
    serve.add_argument(
        "--handle-out",
        metavar="PATH",
        default=None,
        help=(
            "write the published ModelHandle as JSON, so other processes "
            "can attach with 'repro recommend --attach'"
        ),
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="S",
        help="serve for S seconds then exit (default: until interrupted)",
    )
    serve.add_argument(
        "--ann",
        action="store_true",
        help=(
            "build an IVF index over the model, publish it in the same "
            "segment, and serve every request from the approximate tier"
        ),
    )
    serve.add_argument(
        "--nlist",
        type=int,
        default=64,
        metavar="L",
        help="inverted lists of the published ANN index (default: 64)",
    )
    serve.add_argument(
        "--nprobe",
        type=int,
        default=8,
        metavar="P",
        help="inverted lists probed per request (default: 8)",
    )
    serve.add_argument(
        "--batch-size",
        type=_int_or_auto,
        default=DEFAULT_SERVICE_BATCH,
        metavar="B",
        help=(
            "reader-side coalescing batch (default: "
            f"{DEFAULT_SERVICE_BATCH}, 'auto' resolves through a loaded "
            "--profile)"
        ),
    )
    serve.add_argument(
        "--chunk-items",
        type=_int_or_auto,
        default=DEFAULT_CHUNK_ITEMS,
        metavar="C",
        help=(
            "item-axis tile width of the readers' scorer (default: "
            f"{DEFAULT_CHUNK_ITEMS}, 'auto' resolves through a loaded "
            "--profile)"
        ),
    )
    _add_profile_flag(serve)

    serve_bench = subparsers.add_parser(
        "serve-bench",
        help="measure top-K serving throughput (chunked vs naive vs full matmul)",
    )
    serve_bench.add_argument("--users", type=int, default=20_000, metavar="M")
    serve_bench.add_argument(
        "--items",
        type=int,
        default=17_770,
        metavar="N",
        help="catalogue size (default: the paper's Netflix item count)",
    )
    serve_bench.add_argument(
        "--factors",
        type=int,
        default=128,
        metavar="K",
        help="latent dimensionality (default: the paper's k = 128)",
    )
    serve_bench.add_argument(
        "--pool", type=int, default=2_048, help="number of user requests to score"
    )
    serve_bench.add_argument("--top", type=int, default=10, metavar="K")
    serve_bench.add_argument(
        "--batch-sizes", type=int, nargs="+", default=[32, 256], metavar="B"
    )
    serve_bench.add_argument(
        "--chunk-sizes", type=int, nargs="+", default=[2_048, 8_192], metavar="C"
    )
    serve_bench.add_argument(
        "--readers",
        type=int,
        default=0,
        metavar="R",
        help=(
            "also measure R reader processes serving from one shared-memory "
            "model copy (0: skip)"
        ),
    )
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument(
        "--attach",
        metavar="HANDLE",
        default=None,
        help=(
            "measure against a published ModelStore segment (handle JSON "
            "from 'repro serve --handle-out') instead of a synthetic model"
        ),
    )
    serve_bench.add_argument(
        "--ann",
        action="store_true",
        help=(
            "also measure the approximate IVF tier (one row per --nprobe "
            "value, each with its recall@K against the exact scorer)"
        ),
    )
    serve_bench.add_argument(
        "--nlist",
        type=int,
        default=64,
        metavar="L",
        help="inverted lists when building the ANN index (default: 64)",
    )
    serve_bench.add_argument(
        "--nprobe",
        type=int,
        nargs="+",
        default=[4, 8, 16],
        metavar="P",
        help="nprobe values to sweep on the ANN tier (default: 4 8 16)",
    )
    serve_bench.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help=(
            "also write every measured sample (label, tier, users/s, "
            "recall@K) as JSON"
        ),
    )
    _add_profile_flag(serve_bench)

    ingest = subparsers.add_parser(
        "ingest",
        help=(
            "replay a dataset as a rating stream: train on a prefix, then "
            "fold in / warm-start retrain / publish as the rest arrives"
        ),
    )
    ingest.add_argument("--dataset", default="movielens", choices=dataset_names())
    ingest.add_argument("--algorithm", default="hsgd_star", choices=sorted(ALGORITHMS))
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument(
        "--backend",
        default="simulate",
        choices=(AUTO_BACKEND,) + backend_names(),
        help="execution backend for the base train and every retrain",
    )
    ingest.add_argument("--cpu-threads", type=int, default=4)
    ingest.add_argument("--gpu-workers", type=int, default=128)
    ingest.add_argument("--iterations", type=int, default=10, help="base-train epochs")
    ingest.add_argument(
        "--retrain-iterations",
        type=int,
        default=None,
        metavar="N",
        help="epochs per warm-start retrain (default: --iterations)",
    )
    ingest.add_argument(
        "--base-fraction",
        type=float,
        default=0.7,
        metavar="F",
        help=(
            "fraction of the dataset's ratings (in storage order) the base "
            "model trains on; the rest is replayed as the stream — ratings "
            "referencing users/items absent from the prefix arrive as "
            "genuine newcomers"
        ),
    )
    ingest.add_argument(
        "--batch",
        type=int,
        default=500,
        metavar="B",
        help="stream ratings ingested per batch",
    )
    ingest.add_argument(
        "--window",
        type=int,
        default=1000,
        metavar="W",
        help="held-out recent window size (the drift validation set)",
    )
    ingest.add_argument(
        "--rmse-increase",
        type=float,
        default=0.05,
        metavar="D",
        help="window-RMSE increase over the rebased baseline that retrains",
    )
    ingest.add_argument(
        "--min-coverage",
        type=float,
        default=0.8,
        metavar="C",
        help="minimum scorable fraction of the window before retraining",
    )
    ingest.add_argument(
        "--publish",
        action="store_true",
        help=(
            "publish every live-model change to an in-process ModelStore "
            "(exercises the shared-memory hot-swap path)"
        ),
    )
    _add_profile_flag(ingest)

    tune = subparsers.add_parser(
        "tune",
        help=(
            "calibrate the cost models on this machine and write a tuned "
            "profile that resolves every 'auto' knob"
        ),
    )
    tune.add_argument(
        "--quick",
        action="store_true",
        help="reduced probe set (seconds instead of tens of seconds)",
    )
    tune.add_argument(
        "--out",
        metavar="PATH",
        default="tuned_profile.json",
        help="where to write the profile (default: tuned_profile.json)",
    )
    tune.add_argument(
        "--bench-out",
        metavar="PATH",
        default=None,
        help=(
            "also write the predicted-vs-measured probe report "
            "(the BENCH_tune.json payload CI gates on)"
        ),
    )
    tune.add_argument("--seed", type=int, default=0)

    gc_shm = subparsers.add_parser(
        "gc-shm",
        help=(
            "reap shared-memory segments whose owning process is gone "
            "(crashed trainers/publishers leave named segments in /dev/shm; "
            "every run records its segments in a per-pid manifest)"
        ),
    )
    gc_shm.add_argument(
        "--runtime-dir",
        metavar="DIR",
        default=None,
        help=(
            "manifest directory to scan (default: $REPRO_RUNTIME_DIR or "
            "<tmpdir>/repro-runtime)"
        ),
    )
    gc_shm.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be reaped without unlinking anything",
    )

    for name in EXPERIMENTS:
        experiment = subparsers.add_parser(name, help=f"run the {name} experiment")
        experiment.add_argument(
            "--full", action="store_true", help="use the paper's full sweep"
        )
        experiment.add_argument(
            "--quick", action="store_true", help="use a reduced smoke-test sweep"
        )
        experiment.add_argument(
            "--datasets", nargs="*", default=None, choices=dataset_names()
        )
    return parser


def _context(args: argparse.Namespace) -> ExperimentContext:
    if getattr(args, "full", False):
        context = ExperimentContext.full()
    elif getattr(args, "quick", False):
        context = ExperimentContext.quick()
    else:
        context = ExperimentContext()
    if getattr(args, "datasets", None):
        context.datasets = list(args.datasets)
    return context


#: Human-readable labels for the run's ``stop_reason``.
_STOP_REASON_LABELS = {
    "iterations": "iteration cap reached",
    "target_rmse": "target RMSE reached",
    "time_budget": "time budget exhausted",
    "early_stopping": "early stopping (no RMSE improvement)",
    "wall_time_budget": "wall-clock budget exhausted",
    "callback": "stopped by callback",
    "aborted": "aborted",
}


def _train_callbacks(args: argparse.Namespace) -> List:
    callbacks: List = []
    if args.early_stop_patience is not None:
        callbacks.append(
            EarlyStopping(
                patience=args.early_stop_patience,
                min_delta=args.early_stop_min_delta,
            )
        )
    if args.checkpoint is not None:
        callbacks.append(Checkpoint(args.checkpoint, every_n=args.checkpoint_every))
    if args.log_jsonl is not None:
        # A resumed run appends so the checkpointed prefix's trajectory
        # is not wiped.
        callbacks.append(JsonlLogger(args.log_jsonl, append=args.resume is not None))
    return callbacks


def _run_train(args: argparse.Namespace) -> None:
    from .tune.profile import resolve_workers

    data = load_dataset(args.dataset, seed=args.seed)
    # None -> --cpu-threads, "auto" -> the loaded profile (or
    # --cpu-threads without one), an integer passes through.
    cpu_threads = resolve_workers(args.workers, args.cpu_threads)
    context = ExperimentContext(
        cpu_threads=cpu_threads, gpu_parallel_workers=args.gpu_workers
    )
    training = data.spec.recommended_training(
        iterations=args.iterations, seed=args.seed
    )
    trainer = HeterogeneousTrainer(
        algorithm=args.algorithm,
        hardware=context.hardware(),
        training=training,
        preset=context.preset,
        seed=args.seed,
    )
    result = trainer.fit(
        data.train, data.test, iterations=args.iterations, backend=args.backend,
        kernel=args.kernel,
        batch_size=args.batch_size,
        target_rmse=args.target_rmse,
        max_simulated_time=args.max_time,
        callbacks=_train_callbacks(args),
        resume_from=args.resume,
    )
    # result.backend is the *resolved* name ("auto" never reaches here).
    if result.backend == "simulate":
        time_label = "simulated time (s)"
    elif result.backend in ("threads", "processes"):
        time_label = "wall time (s)     "
    else:
        time_label = "engine time (s)   "
    stop_label = _STOP_REASON_LABELS.get(result.stop_reason, result.stop_reason)
    print(f"dataset            : {args.dataset} ({data.train.nnz} train ratings)")
    print(f"algorithm          : {args.algorithm}")
    print(f"backend            : {result.backend}")
    # Like the backend, the *resolved* kernel — and, when "auto" had to
    # settle for the numpy kernel, why (already computed by the run).
    print(f"kernel             : {result.kernel_name}")
    if args.kernel == "auto" and not native_status()[0]:
        print(f"native kernel      : unavailable ({native_status()[1]})")
    if args.resume is not None:
        print(f"resumed from       : {args.resume}")
    rmse_label = (
        f"{result.final_test_rmse:.4f}"
        if result.final_test_rmse is not None
        else "n/a (no completed epoch)"
    )
    print(f"iterations         : {len(result.trace.iterations)}")
    print(f"{time_label} : {result.engine_time:.6f}")
    print(f"final test RMSE    : {rmse_label}")
    print(f"stopped because    : {stop_label}")
    if result.alpha is not None:
        print(f"GPU workload share : {result.alpha:.3f}")
    share = result.trace.resource_share()
    print(f"processed on GPU   : {100 * share['gpu']:.1f}%")
    print(f"stolen tasks       : {result.trace.stolen_task_count()}")


def _run_recommend(args: argparse.Namespace) -> None:
    from .serve import PAD_ITEM, Scorer
    from .sgd import FactorModel

    segment = None
    index = None
    if args.attach is not None:
        from .serve.store import ModelHandle, attach_model

        if args.exclude_seen:
            raise SystemExit("--exclude-seen needs the dataset; drop --attach")
        # Both the handle load and the attach raise a clean ReproError
        # (missing file, missing segment, torn publish) that main()
        # turns into a one-line failure.
        handle = ModelHandle.load(args.attach)
        if args.ann:
            model, index, segment = attach_model(handle, with_index=True)
            if index is None:
                raise SystemExit(
                    "--ann but the published model carries no index; "
                    "republish with 'repro serve --ann'"
                )
        else:
            model, segment = attach_model(handle)
        print(
            f"model              : attached to segment {handle.segment!r} "
            f"(version {handle.version}, {handle.n_rows} users x "
            f"{handle.n_cols} items)"
        )
    elif args.model is not None:
        data = load_dataset(args.dataset, seed=args.seed)
        model = FactorModel.load(args.model)
        print(f"model              : loaded from {args.model} ({model!r})")
    else:
        data = load_dataset(args.dataset, seed=args.seed)
        from .core import factorize

        result = factorize(
            data.train,
            data.test,
            algorithm="hsgd_star",
            training=data.spec.recommended_training(
                iterations=args.iterations, seed=args.seed
            ),
            iterations=args.iterations,
            seed=args.seed,
        )
        model = result.model
        print(
            f"model              : trained {args.iterations} iterations, "
            f"test RMSE {result.final_test_rmse:.4f}"
        )
    exclude = data.train if args.exclude_seen else None
    if args.ann:
        from .serve import AnnScorer, IvfIndex

        if index is None:
            index = IvfIndex.build(model, nlist=args.nlist, seed=args.seed)
            print(
                f"ann index          : built nlist={args.nlist} "
                f"(seed {args.seed})"
            )
        scorer = AnnScorer(
            model,
            index,
            exclude=exclude,
            nprobe=args.nprobe,
            chunk_items=args.chunk_items,
        )
    else:
        scorer = Scorer(model, exclude=exclude, chunk_items=args.chunk_items)
    import numpy as np

    try:
        items, scores = scorer.top_k(np.asarray(args.users), args.top)
        print(f"scorer tier        : {scorer.tier}")
        print(f"excluding seen     : {args.exclude_seen}")
        for row, user in enumerate(args.users):
            ranked = ", ".join(
                f"{item}({score:.2f})"
                for item, score in zip(items[row], scores[row])
                if item != PAD_ITEM
            )
            print(f"top-{args.top} for user {user}: {ranked}")
    finally:
        if segment is not None:
            segment.close()


def _run_ingest(args: argparse.Namespace) -> None:
    import numpy as np

    from .serve import ModelStore
    from .sparse import SparseRatingMatrix
    from .stream import DriftPolicy, IngestSession

    data = load_dataset(args.dataset, seed=args.seed)
    full = data.train
    cut = max(1, int(full.nnz * args.base_fraction))
    if cut >= full.nnz:
        raise SystemExit("--base-fraction leaves no ratings to stream")
    # The base matrix's shape comes from the prefix alone, so stream
    # ratings referencing later users/items are genuine newcomers.
    matrix = SparseRatingMatrix(full.rows[:cut], full.cols[:cut], full.vals[:cut])
    context = ExperimentContext(
        cpu_threads=args.cpu_threads, gpu_parallel_workers=args.gpu_workers
    )
    trainer = HeterogeneousTrainer(
        algorithm=args.algorithm,
        hardware=context.hardware(),
        training=data.spec.recommended_training(
            iterations=args.iterations, seed=args.seed
        ),
        preset=context.preset,
        seed=args.seed,
    )
    store = ModelStore() if args.publish else None
    session = IngestSession(
        trainer,
        matrix,
        store=store,
        window_size=args.window,
        policy=DriftPolicy(
            rmse_increase=args.rmse_increase, min_coverage=args.min_coverage
        ),
        backend=args.backend,
        train_iterations=args.iterations,
        retrain_iterations=args.retrain_iterations,
    )
    try:
        result = session.start()
        print(
            f"base model         : {matrix.nnz} ratings "
            f"({full.nnz - cut} streamed), shape {matrix.shape}, "
            f"{len(result.trace.iterations)} epochs"
        )
        print(f"window             : {args.window} (batch {args.batch})")
        stream = np.arange(cut, full.nnz)
        for start in range(0, len(stream), args.batch):
            chunk = stream[start : start + args.batch]
            report = session.ingest(
                full.rows[chunk], full.cols[chunk], full.vals[chunk]
            )
            drift = report.drift
            drift_label = (
                "n/a"
                if drift is None or drift.rmse is None
                else f"{drift.rmse:.4f} ({drift.reason})"
            )
            line = (
                f"batch {start // args.batch:>4}: +{report.ingested} "
                f"graduated {report.graduated:>5}  window RMSE {drift_label}"
            )
            if report.folded_users or report.folded_items:
                line += (
                    f"  folded +{report.folded_users}u/+{report.folded_items}i"
                )
            if report.retrained:
                line += "  RETRAINED"
            if report.published_version is not None:
                line += f"  published v{report.published_version}"
            print(line)
        session.flush()
        stats = session.stats
        print(f"matrix             : {matrix.shape}, {matrix.nnz} ratings")
        print(f"model              : {session.model!r}")
        print(f"ingested           : {stats.ingested}")
        print(f"folded in          : {stats.folded_users} users, "
              f"{stats.folded_items} items")
        print(f"retrains           : {stats.retrains}")
        if store is not None:
            print(f"published versions : {stats.publishes}")
    finally:
        if store is not None:
            store.close()


def _run_serve_bench(args: argparse.Namespace) -> None:
    from .serve.bench import (
        measure_ann,
        measure_chunked,
        measure_full_matmul,
        measure_multi_reader,
        measure_naive,
        synthetic_model,
        user_pool,
    )

    segment = None
    attached_index = None
    if args.attach is not None:
        from .serve.store import ModelHandle, attach_model

        handle = ModelHandle.load(args.attach)
        model, attached_index, segment = attach_model(handle, with_index=True)
        n_users, n_items, factors = handle.n_rows, handle.n_cols, handle.latent_factors
        source = f"attached segment {handle.segment!r} (version {handle.version})"
    else:
        model = synthetic_model(args.users, args.items, args.factors, seed=args.seed)
        n_users, n_items, factors = args.users, args.items, args.factors
        source = "synthetic"
    pool = user_pool(n_users, args.pool, seed=args.seed)
    print(
        f"model: {n_users} users x {n_items} items, k={factors} [{source}]; "
        f"scoring {args.pool} requests, top-{args.top}"
    )
    samples = []

    def _row(sample, recall_note: str = "") -> None:
        samples.append(sample)
        recall = (
            ""
            if sample.recall_at_k is None
            else f"  recall@{args.top}={sample.recall_at_k:.4f}"
        )
        print(
            f"{sample.label:<32} {sample.tier:<8} {sample.users_per_s:>10.0f} "
            f"{sample.users_per_s / naive.users_per_s:>8.2f}x{recall}"
        )

    naive = measure_naive(model, pool, args.top)
    print(f"{'configuration':<32} {'tier':<8} {'users/s':>10} {'vs naive':>9}")
    _row(naive)
    _row(
        measure_full_matmul(
            model, pool, args.top, batch_size=max(args.batch_sizes)
        )
    )
    for batch_size in args.batch_sizes:
        for chunk_items in args.chunk_sizes:
            _row(measure_chunked(model, pool, args.top, batch_size, chunk_items))
    if args.ann:
        from .serve import IvfIndex, Scorer

        index = attached_index
        if index is None:
            index = IvfIndex.build(model, nlist=args.nlist, seed=args.seed)
        # Exact oracle slates once, reused across the nprobe sweep.
        exact_ids, _ = Scorer(model).top_k(pool, args.top)
        for nprobe in args.nprobe:
            _row(
                measure_ann(
                    model,
                    index,
                    pool,
                    args.top,
                    batch_size=max(args.batch_sizes),
                    nprobe=nprobe,
                    exact_ids=exact_ids,
                )
            )
    if args.readers > 0:
        _row(
            measure_multi_reader(
                model,
                pool,
                args.top,
                batch_size=max(args.batch_sizes),
                chunk_items=max(args.chunk_sizes),
                readers=args.readers,
            )
        )
    if args.json is not None:
        import json

        payload = {
            "model_shape": {
                "users": n_users,
                "items": n_items,
                "latent_factors": factors,
            },
            "top_k": args.top,
            "samples": [
                {
                    "label": sample.label,
                    "tier": sample.tier,
                    "users_per_s": round(sample.users_per_s, 1),
                    "recall_at_k": sample.recall_at_k,
                }
                for sample in samples
            ],
        }
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        print(f"json written       : {args.json}")
    if segment is not None:
        segment.close()


def _run_serve(args: argparse.Namespace) -> None:
    import asyncio

    from .serve import ModelStore
    from .serve.bench import synthetic_model
    from .service import RecommendServer, ServiceConfig
    from .sgd import FactorModel

    if args.model is not None:
        model = FactorModel.load(args.model)
        source = f"loaded from {args.model}"
    elif args.synthetic:
        model = synthetic_model(args.users, args.items, args.factors, seed=args.seed)
        source = "synthetic"
    else:
        raise SystemExit("repro serve needs --model PATH or --synthetic")
    index = None
    if args.ann:
        from .serve import IvfIndex

        index = IvfIndex.build(model, nlist=args.nlist, seed=args.seed)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        k=args.top,
        queue_depth=args.queue_depth,
        deadline=args.deadline_ms / 1000.0,
        batch_size=args.batch_size,
        chunk_items=args.chunk_items,
        ann=args.ann,
        nprobe=args.nprobe,
    )

    async def serve() -> None:
        server = RecommendServer(store, config)
        await server.start()
        try:
            print(f"listening          : http://{config.host}:{server.port}")
            print(
                f"readers            : {config.workers} "
                f"(k={config.k}, queue depth {config.queue_depth}/reader, "
                f"deadline {args.deadline_ms:g} ms)"
            )
            sys.stdout.flush()
            if args.duration is None:
                while True:
                    await asyncio.sleep(3600.0)
            else:
                await asyncio.sleep(args.duration)
        finally:
            await server.stop()

    with ModelStore() as store:
        handle = store.publish(model, index=index)
        tier_note = (
            f", ann index nlist={args.nlist} nprobe={args.nprobe}"
            if args.ann
            else ""
        )
        print(
            f"published          : version {handle.version} "
            f"({handle.n_rows} users x {handle.n_cols} items, "
            f"k={handle.latent_factors}, {source}{tier_note})"
        )
        if args.handle_out is not None:
            handle.save(args.handle_out)
            print(f"handle written     : {args.handle_out}")
        try:
            asyncio.run(serve())
        except KeyboardInterrupt:
            pass
    stats_note = "stopped cleanly"
    print(f"server             : {stats_note}")


def _run_tune(args: argparse.Namespace) -> None:
    import json
    import time

    from .tune import run_tune

    outcome = run_tune(quick=args.quick, seed=args.seed, created_unix=time.time())
    profile = outcome.profile
    fp = profile.fingerprint
    mode = "quick" if args.quick else "full"
    print(
        f"machine            : {fp.get('machine', '?')} "
        f"({fp.get('usable_cores', '?')} usable cores, "
        f"numpy {fp.get('numpy', '?')})"
    )
    print(f"probe set          : {mode}")
    sections = outcome.payload["tune"]["sections"]
    for name in sorted(sections):
        section = sections[name]
        budget = section["error_budget"]
        budget_label = f" (budget {budget:.0%})" if budget is not None else " (report-only)"
        print(
            f"  {name:<16} : predict error {section['predict_error']:.1%}"
            f"{budget_label}, {len(section['probes'])} probes"
        )
    t, s, st = profile.training, profile.serving, profile.stream
    print(
        f"training           : backend={t.backend} workers={t.workers} "
        f"batch_size={t.batch_size} kernel={t.kernel}"
    )
    print(f"serving            : chunk_items={s.chunk_items} batch_size={s.batch_size}")
    print(
        f"stream             : gram_chunk_elements={st.gram_chunk_elements} "
        f"foldin_batch_users={st.foldin_batch_users}"
    )
    if profile.alpha is not None:
        print(f"workload split     : alpha={profile.alpha:.3f}")
    acceptance = outcome.payload["tune"]["acceptance"]
    print(
        "acceptance         : "
        + ("met" if acceptance["met"] else "NOT MET")
        + " (resolved knobs measured no slower than defaults)"
    )
    profile.dump(args.out)
    print(f"profile written    : {args.out}")
    if args.bench_out is not None:
        with open(args.bench_out, "w", encoding="utf-8") as stream:
            json.dump(outcome.payload, stream, indent=2)
            stream.write("\n")
        print(f"bench written      : {args.bench_out}")


def _run_gc_shm(args: argparse.Namespace) -> None:
    from .shm import reap_orphaned_segments, runtime_dir

    runtime = args.runtime_dir or runtime_dir()
    report = reap_orphaned_segments(runtime=runtime, dry_run=args.dry_run)
    verb = "would reap" if args.dry_run else "reaped"
    print(f"runtime dir        : {runtime}")
    print(f"manifests scanned  : {report.scanned}")
    print(f"owners still alive : {report.skipped_live}")
    print(f"segments {verb:<9} : {report.total_reaped}")
    for name in report.reaped:
        print(f"  {verb} {name}")
    for name in report.missing:
        print(f"  already gone {name}")


def _run_experiment(name: str, args: argparse.Namespace) -> None:
    context = _context(args)
    if name == "figure3":
        for series in figure3_block_throughput():
            print(f"# {series.name}")
            print(series.render())
            print()
    elif name == "figure6":
        for series in figure6_transfer_speed():
            print(f"# {series.name}")
            print(series.render())
            print()
    elif name == "figure7":
        series = figure7_kernel_throughput()
        print(f"# {series.name}")
        print(series.render())
    elif name == "figure10":
        for sweep in figure10_vary_gpu_workers(context):
            print(f"# {sweep.dataset} (target RMSE {sweep.target_rmse})")
            print(sweep.render())
            print()
    elif name == "figure11":
        for sweep in figure11_vary_cpu_threads(context):
            print(f"# {sweep.dataset} (target RMSE {sweep.target_rmse})")
            print(sweep.render())
            print()
    elif name == "figure12":
        for outcome in figure12_rmse_curves(context):
            print(outcome.render())
            print()
    elif name == "figure13":
        for outcome in figure13_division_ablation(context):
            print(outcome.render())
            print()
    elif name == "table1":
        print(render_table1(table1_datasets(context)))
    elif name == "table2":
        for comparison in table2_cost_models(context):
            print(comparison.render())
            print()
    elif name == "table3":
        for comparison in table3_dynamic_scheduling(context):
            print(comparison.render())
            print()
    elif name == "observations":
        sensitivity = observation_block_sensitivity(context)
        print("Observation 1 (GPU speedup large/small blocks):",
              f"{sensitivity.gpu_speedup_large_over_small:.2f}x")
        print("Observation 2 (CPU speedup large/small blocks):",
              f"{sensitivity.cpu_speedup_large_over_small:.2f}x")
        imbalance = example3_update_imbalance(context)
        for algorithm, stats in imbalance.items():
            print(f"\nExample 3 update-count dispersion, {algorithm}:")
            print(format_mapping(stats))
    elif name == "ablations":
        alpha = ablation_alpha_sensitivity(context)
        print(f"# alpha sensitivity ({alpha.dataset})")
        print(format_mapping(alpha.times, "{:.6f}"))
        columns = ablation_column_rule(context)
        print(f"\n# column rule ({columns.dataset})")
        print(format_mapping(columns.times, "{:.6f}"))
        print("\n# stream overlap")
        for outcome in ablation_stream_overlap(context):
            print(f"{outcome.dataset}: " + format_mapping(outcome.times, "{:.6f}"))
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown experiment {name}")


def _run_list() -> None:
    print("experiments :", ", ".join(EXPERIMENTS))
    print("datasets    :", ", ".join(dataset_names()))
    print("algorithms  :", ", ".join(sorted(ALGORITHMS)))


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-mf`` console script.

    Operational failures (a handle file that does not exist, a segment
    whose publisher is gone, a torn publish) are reported as a one-line
    ``error: ...`` on stderr with a non-zero exit — never a traceback.
    """
    from .exceptions import ReproError

    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if getattr(args, "profile", None) is not None:
            from .tune.profile import TunedProfile, set_active_profile

            set_active_profile(TunedProfile.load(args.profile))
        if args.command == "list":
            _run_list()
        elif args.command == "train":
            _run_train(args)
        elif args.command == "recommend":
            _run_recommend(args)
        elif args.command == "serve":
            _run_serve(args)
        elif args.command == "serve-bench":
            _run_serve_bench(args)
        elif args.command == "ingest":
            _run_ingest(args)
        elif args.command == "tune":
            _run_tune(args)
        elif args.command == "gc-shm":
            _run_gc_shm(args)
        else:
            _run_experiment(args.command, args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
