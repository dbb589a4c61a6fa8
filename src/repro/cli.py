"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``
    Print Table I, published vs rheometer-simulated.
``pipeline``
    Run the full pipeline and print Table II(a)/(b).
``figures``
    Run the pipeline and print the Fig 3 / Fig 4 series.
``run``
    Run the staged pipeline and print its provenance (stage
    fingerprints, cache hits, timings); ``--cache-dir`` persists and
    reuses stage artifacts across runs.
``cache``
    Inspect (``ls``, ``info``) or garbage-collect (``gc``) an on-disk
    artifact store.
``serve``
    Start the texture inference HTTP service over a fitted model from
    an artifact store (``/v1/texture``, ``/v1/terms/{term}``,
    ``/healthz``, ``/metricz``; see ``docs/serving.md``).
``estimate``
    Estimate the texture of a recipe given as ``ingredient=quantity``
    pairs, e.g. ``python -m repro estimate gelatin=5g water=300ml``.
``trace``
    Inspect a JSONL trace file written by ``--trace`` / ``$REPRO_TRACE``
    (``summary`` aggregates spans, ``tree`` renders the span forest,
    ``flame`` renders a sampling-profiler artifact as a hot-frame
    table or folded stacks).
``bench``
    Bench trajectory tooling (``check`` fails on cross-run perf
    regressions: median-of-recent rows vs the committed floors).
``lint``
    Run the project static analyser (``repro.analysis``) over the tree.

Global flags: ``--log-level`` / ``-v`` configure the single ``repro``
logger; ``--trace`` on ``run`` (or ``$REPRO_TRACE`` for any command)
exports a span/event trace as JSON lines; ``--profile`` on ``run`` (or
``$REPRO_PROFILE`` for any command) writes a sampling-profiler
artifact.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError, ServeError
from repro.obs import log as obs_log
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.pipeline.experiment import ExperimentConfig, quick_config, run_experiment

#: Default store location for ``repro cache`` (and examples):
#: ``$REPRO_CACHE_DIR``, falling back to ``.repro-cache`` in the cwd.
DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Detecting Sensory Textures with Rheological "
            "Characteristics from Recipe Sharing Sites' (ICDE 2022)"
        ),
    )
    parser.add_argument(
        "--log-level",
        choices=sorted(obs_log.LEVELS),
        default=None,
        help="logging threshold for the repro logger (overrides -v)",
    )
    parser.add_argument(
        "-v", "--verbose",
        action="count",
        default=0,
        help="-v for INFO, -vv for DEBUG (default WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I: published vs simulated rheology")

    pipeline = sub.add_parser("pipeline", help="full pipeline + main tables")
    pipeline.add_argument("--recipes", type=int, action=_int_in(1), default=1500)
    pipeline.add_argument("--sweeps", type=int, default=300)
    pipeline.add_argument("--seed", type=int, default=11)
    pipeline.add_argument(
        "--method",
        choices=("gibbs", "collapsed", "vb"),
        default="gibbs",
        help="inference method (paper = gibbs)",
    )
    pipeline.add_argument("--restarts", type=int, action=_int_in(1), default=1,
                          help="independent Gibbs chains; best one wins")
    pipeline.add_argument(
        "--workers", type=int, default=1,
        help="processes sharing the --restarts chains (results do not "
             "depend on it; default: 1, a loop in this process)",
    )
    _add_kernel_flag(pipeline)
    _add_cache_flags(pipeline)

    figures = sub.add_parser("figures", help="Fig 3 and Fig 4 series")
    figures.add_argument("--recipes", type=int, action=_int_in(1), default=1500)
    figures.add_argument("--sweeps", type=int, default=300)
    figures.add_argument("--seed", type=int, default=11)
    _add_kernel_flag(figures)
    _add_cache_flags(figures)

    run = sub.add_parser(
        "run",
        help="run the staged pipeline and print stage provenance",
    )
    run.add_argument("--recipes", type=int, action=_int_in(1), default=1500)
    run.add_argument("--sweeps", type=int, default=300)
    run.add_argument("--seed", type=int, default=11)
    run.add_argument(
        "--method",
        choices=("gibbs", "collapsed", "vb"),
        default="gibbs",
        help="inference method (paper = gibbs)",
    )
    run.add_argument(
        "--no-w2v-filter",
        action="store_true",
        help="skip the Section III-A word2vec gel-relatedness filter",
    )
    run.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the run provenance manifest to PATH",
    )
    run.add_argument(
        "--require-cached",
        action="store_true",
        help="exit 3 unless every stage was served from the artifact "
             "store (CI cache smoke)",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="export a span/event trace of the run as JSON lines to PATH "
             f"(also enabled for any command via ${obs_trace.TRACE_ENV})",
    )
    run.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="write a wall-clock sampling-profiler artifact to PATH "
             f"(also enabled for any command via ${obs_profile.PROFILE_ENV}; "
             "render with `repro trace flame`)",
    )
    _add_kernel_flag(run)
    _add_cache_flags(run)

    cache = sub.add_parser(
        "cache", help="inspect or garbage-collect an artifact store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser("ls", help="list stored artifacts and runs")
    cache_info = cache_sub.add_parser(
        "info", help="print the provenance manifest of one artifact"
    )
    cache_info.add_argument(
        "fingerprint", help="artifact fingerprint (prefix accepted)"
    )
    cache_info.add_argument(
        "--full", action="store_true",
        help="include the RNG state blobs in the output",
    )
    cache_gc = cache_sub.add_parser(
        "gc", help="drop artifacts unreachable from recent runs"
    )
    cache_gc.add_argument(
        "--keep-runs", type=int, default=10,
        help="run manifests (and their artifacts) to keep, newest first",
    )
    cache_gc.add_argument(
        "--dry-run", action="store_true", help="report, do not delete"
    )
    for cache_parser in (cache_ls, cache_info, cache_gc):
        cache_parser.add_argument(
            "--cache-dir", default=DEFAULT_CACHE_DIR,
            help="artifact store root (default: $REPRO_CACHE_DIR or "
                 "./.repro-cache)",
        )

    serve = sub.add_parser(
        "serve", help="start the texture inference HTTP service"
    )
    serve.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help="artifact store holding the fitted model (default: "
             "$REPRO_CACHE_DIR or ./.repro-cache)",
    )
    serve.add_argument(
        "--fingerprint", default=None,
        help="experiment fingerprint (prefix) of the run to serve "
             "(default: the most recent run in the store)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, action=_int_in(0, 65535), default=8321,
        help="TCP port (default: 8321; 0 picks a free one)",
    )
    serve.add_argument(
        "--fold-in-sweeps", type=int, action=_int_in(3), default=48,
        help="Gibbs fold-in sweeps per request (burn-in is a third)",
    )

    trace_cmd = sub.add_parser(
        "trace", help="inspect trace and profile artifacts"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary",
        help="per-span-name time breakdown + sampler sweep digest",
    )
    trace_summary.add_argument("file", help="JSONL trace file")
    trace_tree = trace_sub.add_parser(
        "tree", help="render the span forest with durations"
    )
    trace_tree.add_argument("file", help="JSONL trace file")
    trace_flame = trace_sub.add_parser(
        "flame",
        help="render a sampling-profiler artifact (--profile / "
             f"${obs_profile.PROFILE_ENV})",
    )
    trace_flame.add_argument("file", help="profile JSON artifact")
    trace_flame.add_argument(
        "--folded", action="store_true",
        help="emit flamegraph folded-stack lines instead of the table",
    )
    trace_flame.add_argument(
        "--limit", type=int, action=_int_in(1), default=15,
        help="rows in the hot-frame table (default: 15)",
    )

    bench = sub.add_parser(
        "bench", help="bench trajectory tooling"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_check = bench_sub.add_parser(
        "check",
        help="fail on cross-run perf regressions (median of recent "
             "rows vs committed floors)",
    )
    bench_check.add_argument(
        "--sampler", default="BENCH_sampler.json",
        help="sampler bench trajectory (default: BENCH_sampler.json)",
    )
    bench_check.add_argument(
        "--sampler-floor", default="benchmarks/sampler_floor.json",
        help="sampler floor file (default: benchmarks/sampler_floor.json)",
    )
    bench_check.add_argument(
        "--serve", default="BENCH_serve.json",
        help="serve bench trajectory (default: BENCH_serve.json)",
    )
    bench_check.add_argument(
        "--serve-floor", default="benchmarks/serve_floor.json",
        help="serve floor file (default: benchmarks/serve_floor.json)",
    )
    bench_check.add_argument(
        "--recent", type=int, default=None,
        help="trajectory rows per cell fed into the median (default: 5)",
    )

    estimate = sub.add_parser("estimate", help="estimate a recipe's texture")
    estimate.add_argument(
        "ingredients",
        nargs="+",
        metavar="NAME=QUANTITY",
        help="e.g. gelatin=5g water=300ml sugar='oosaji 2'",
    )
    estimate.add_argument("--description", default="")
    estimate.add_argument("--recipes", type=int, action=_int_in(1), default=1500)
    estimate.add_argument("--seed", type=int, default=11)

    search = sub.add_parser("search", help="find recipes by texture terms")
    search.add_argument("terms", nargs="+", metavar="TERM")
    search.add_argument("--top", type=int, action=_int_in(1), default=10)
    search.add_argument("--recipes", type=int, action=_int_in(1), default=1500)
    search.add_argument("--seed", type=int, default=11)

    rules = sub.add_parser(
        "rules", help="mine concentration→texture rules from the corpus"
    )
    rules.add_argument("--limit", type=int, action=_int_in(1), default=15)
    rules.add_argument("--min-effect", type=float, default=1.0)
    rules.add_argument("--recipes", type=int, action=_int_in(1), default=1500)
    rules.add_argument("--seed", type=int, default=11)

    dictionary = sub.add_parser(
        "dictionary", help="print the 288-term texture dictionary"
    )
    dictionary.add_argument(
        "--category",
        choices=("hardness", "cohesiveness", "adhesiveness"),
        default=None,
        help="restrict to one annotation category",
    )
    dictionary.add_argument(
        "--gel-only", action="store_true", help="only gel-related terms"
    )

    report = sub.add_parser(
        "report", help="write the full table/figure bundle to a directory"
    )
    report.add_argument("directory")
    report.add_argument("--recipes", type=int, action=_int_in(1), default=1500)
    report.add_argument("--sweeps", type=int, default=300)
    report.add_argument("--seed", type=int, default=11)
    _add_kernel_flag(report)
    _add_cache_flags(report)

    from repro.analysis.cli import configure_parser as configure_lint_parser

    lint = sub.add_parser(
        "lint",
        help="project static analysis (RNG/unit/numerics/exception lints)",
    )
    configure_lint_parser(lint)
    return parser


def _int_in(low: int, high: int | None = None) -> type[argparse.Action]:
    """An argparse action for ``type=int`` options bounded to ``[low, high]``.

    A value out of range is a usage error: argparse prints it and exits 2.
    """

    class Bounded(argparse.Action):
        def __call__(self, parser, namespace, value, option_string=None):
            if value < low or (high is not None and value > high):
                bound = f">= {low}" if high is None else f"in {low}..{high}"
                parser.error(
                    f"argument {option_string}: must be {bound}, got {value}"
                )
            setattr(namespace, self.dest, value)

    return Bounded


def _check_writable(path: str, directory: bool = False) -> None:
    """Raise before any work is done when ``path`` cannot be written.

    A file needs an existing parent directory and must not itself be a
    directory. A directory is created on demand, so its nearest
    existing ancestor must be a directory.
    """
    target = Path(path)
    if directory:
        blocker = next(p for p in (target, *target.parents) if p.exists())
        if not blocker.is_dir():
            raise ReproError(f"cannot write to {path}: {blocker} is a file")
    elif target.is_dir():
        raise ReproError(f"cannot write {path}: it is a directory")
    elif not target.parent.is_dir():
        raise ReproError(f"cannot write {path}: no directory {target.parent}")


def _add_kernel_flag(parser: argparse.ArgumentParser) -> None:
    """The sampling-kernel flag shared by the model-fitting commands."""
    from repro.core.kernels import KERNEL_CHOICES

    parser.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default="dense",
        help=(
            "token-sampling kernel for the Gibbs z-sweep: dense "
            "(default; bit-identical fast path), alias (LightLDA "
            "Metropolis-Hastings, O(1) per token) or auto (pick from K)"
        ),
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """The on-disk artifact-store flag shared by pipeline commands."""
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed artifact store; stage outputs are "
             "persisted there and reused (bit-identically) by later runs",
    )


def _apply_parallel_options(
    config: ExperimentConfig, args: argparse.Namespace
) -> ExperimentConfig:
    """Fold --restarts/--workers/--kernel into an ExperimentConfig."""
    import dataclasses

    workers = getattr(args, "workers", 1)
    restarts = getattr(args, "restarts", 1)
    kernel = getattr(args, "kernel", "dense")
    model = config.model
    if workers != 1 or restarts > 1 or kernel != model.kernel:
        model = dataclasses.replace(
            model, n_workers=workers,
            n_restarts=max(restarts, model.n_restarts),
            kernel=kernel,
        )
        config = dataclasses.replace(config, model=model)
    return config


def _cmd_table1() -> int:
    from repro.pipeline.reporting import render_table1
    from repro.pipeline.tables import table1_rows

    print(render_table1(table1_rows()))
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.pipeline.reporting import render_table2a, render_table2b
    from repro.pipeline.tables import table2a_rows, table2b_rows

    config = quick_config(args.recipes, args.sweeps, args.seed)
    if getattr(args, "method", "gibbs") != "gibbs":
        config = dataclasses.replace(config, inference=args.method)
    config = _apply_parallel_options(config, args)
    result = run_experiment(config, cache_dir=args.cache_dir)
    print(render_table2a(table2a_rows(result)))
    print()
    print(render_table2b(table2b_rows(result)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.artifacts.runner import describe_run

    if args.json:
        _check_writable(args.json)
    config = quick_config(args.recipes, args.sweeps, args.seed)
    if args.method != "gibbs":
        config = dataclasses.replace(config, inference=args.method)
    if args.no_w2v_filter:
        config = dataclasses.replace(config, use_w2v_filter=False)
    config = _apply_parallel_options(config, args)
    result = run_experiment(config, cache_dir=args.cache_dir)
    manifest = result.provenance
    assert manifest is not None
    print(describe_run(manifest))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(dict(manifest), handle, indent=2, sort_keys=True)
        print(f"wrote provenance manifest to {args.json}")
    if args.require_cached and manifest.get("misses"):
        missed = [
            name
            for name, record in manifest.get("stages", {}).items()
            if not record.get("hit")
        ]
        print(
            f"--require-cached: stages not served from the store: "
            f"{', '.join(missed)}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.artifacts.store import ArtifactStore
    from repro.serve import (
        FoldInConfig,
        InferenceEngine,
        MicroBatcher,
        ModelBundle,
        make_server,
    )

    bundle = ModelBundle.load(
        ArtifactStore(args.cache_dir), fingerprint=args.fingerprint
    )
    engine = InferenceEngine(
        bundle, config=FoldInConfig(n_sweeps=args.fold_in_sweeps)
    )
    batcher = MicroBatcher(engine)
    try:
        server = make_server(engine, args.host, args.port, batcher=batcher)
    except ServeError:
        batcher.close()
        raise
    host, port = server.server_address[0], server.server_address[1]
    print(
        f"serving model {bundle.fingerprint} on http://{host}:{port}",
        flush=True,
    )
    # SIGTERM must unwind like Ctrl-C so the trace file and batcher are
    # flushed/closed cleanly (CI kills the background server with TERM).
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        batcher.close()
        print("server stopped", file=sys.stderr)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.artifacts.store import ArtifactStore
    from repro.errors import ArtifactError

    root = Path(args.cache_dir)
    if (
        args.cache_command == "ls"
        and not (root / "objects").is_dir()
        and not (root / "runs").is_dir()
    ):
        # Friendly empty/absent-store path: `repro cache ls` on a fresh
        # checkout must inform, not raise (regression-tested).
        print(f"no store at {root}")
        return 0
    store = ArtifactStore(args.cache_dir)
    if args.cache_command == "ls":
        rows = list(store.iter_artifacts())
        if not rows:
            print(f"no artifacts under {store.root}")
            return 0
        print(f"{'stage':<16} {'fingerprint':<18} {'size':>10}  created")
        for stage_name, fingerprint, manifest in rows:
            size = store.size_of(store.artifact_dir(stage_name, fingerprint))
            created = manifest.get("created_unix")
            stamp = _format_unix(created)
            print(f"{stage_name:<16} {fingerprint:<18} {size:>10}  {stamp}")
        runs = store.iter_runs()
        print(f"{len(rows)} artifacts, {len(runs)} run manifests")
        return 0
    if args.cache_command == "info":
        matches = store.find(args.fingerprint)
        if not matches:
            raise ArtifactError(
                f"no artifact matches fingerprint {args.fingerprint!r}"
            )
        for _, _, manifest in matches:
            if not args.full:
                manifest = {
                    key: value
                    for key, value in manifest.items()
                    if key not in ("rng_state_in", "rng_state_out")
                }
            print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    removed, freed = store.gc(keep_runs=args.keep_runs, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"{verb} {len(removed)} entries, {freed} bytes")
    for path in removed:
        print(f"  {path}")
    return 0


def _format_unix(stamp: float | None) -> str:
    import datetime

    if stamp is None:
        return "-"
    return datetime.datetime.fromtimestamp(stamp).strftime("%Y-%m-%d %H:%M:%S")


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.pipeline.figures import fig3_data, fig4_data
    from repro.pipeline.reporting import render_fig3, render_fig4
    from repro.rheology.studies import BAVAROIS, MILK_JELLY

    config = _apply_parallel_options(
        quick_config(args.recipes, args.sweeps, args.seed), args
    )
    result = run_experiment(config, cache_dir=args.cache_dir)
    for dish in (BAVAROIS, MILK_JELLY):
        print(render_fig3(fig3_data(result, dish)))
        print()
        print(render_fig4(fig4_data(result, dish)))
        print()
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.estimator import TextureEstimator
    from repro.corpus.recipe import Ingredient, Recipe

    ingredients = []
    for pair in args.ingredients:
        name, _, quantity = pair.partition("=")
        if not name or not quantity:
            print(f"cannot parse ingredient {pair!r}; use NAME=QUANTITY",
                  file=sys.stderr)
            return 2
        ingredients.append(Ingredient(name.strip(), quantity.strip()))
    recipe = Recipe(
        recipe_id="cli",
        title="cli recipe",
        description=args.description,
        ingredients=tuple(ingredients),
    )
    result = run_experiment(quick_config(args.recipes, seed=args.seed))
    estimate = TextureEstimator(result).estimate(recipe)
    print(f"topic: {estimate.topic}")
    print("predicted texture terms:")
    for surface, probability in estimate.predicted_terms[:6]:
        print(f"  {surface:<16} {probability:.3f}")
    rheology = estimate.expected_rheology()
    if rheology is not None:
        rows = ", ".join(str(s.data_id) for s in estimate.linked_settings)
        print(f"linked Table I rows: {rows}")
        print(f"expected rheology: {rheology}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.core.search import TextureSearch
    from repro.errors import UnknownTermError

    result = run_experiment(quick_config(args.recipes, seed=args.seed))
    search = TextureSearch(result)
    try:
        hits = search.query(args.terms, top=args.top)
    except UnknownTermError as exc:
        print(f"term not in the dataset vocabulary: {exc.surface}",
              file=sys.stderr)
        return 2
    print(f"top {len(hits)} recipes for {' + '.join(args.terms)}:")
    for hit in hits:
        recipe = next(
            r for r in result.corpus if r.recipe_id == hit.recipe_id
        )
        said = "mentions it" if hit.mentions_query else "inferred"
        print(f"  {hit.recipe_id}  {recipe.title:<28} p={hit.score:.4f} ({said})")
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    from repro.eval.rules import RuleMiner

    result = run_experiment(quick_config(args.recipes, seed=args.seed))
    miner = RuleMiner(min_support=10, min_effect=args.min_effect)
    print(RuleMiner.render(miner.mine(result.dataset), limit=args.limit))
    return 0


def _cmd_dictionary(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.lexicon.categories import AXES, TextureCategory
    from repro.lexicon.dictionary import build_dictionary
    from repro.lexicon.kana import to_katakana

    dictionary = build_dictionary()
    terms = list(dictionary)
    if args.category:
        category = TextureCategory(args.category)
        terms = [t for t in terms if t.in_category(category)]
    if args.gel_only:
        terms = [t for t in terms if t.gel_related]
    print(f"{'surface':<16} {'katakana':<10} {'gel':<4} "
          f"{'H':>5} {'C':>5} {'A':>5}  gloss")
    for term in terms:
        try:
            kana = to_katakana(term.surface)
        except ReproError:
            kana = "-"
        h, c, a = (term.polarity_on(axis) for axis in AXES)
        print(
            f"{term.surface:<16} {kana:<10} "
            f"{'yes' if term.gel_related else 'no':<4} "
            f"{h:+5.2f} {c:+5.2f} {a:+5.2f}  {term.gloss}"
        )
    print(f"\n{len(terms)} terms")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.pipeline.bundle import write_report_bundle

    _check_writable(args.directory, directory=True)
    config = _apply_parallel_options(
        quick_config(args.recipes, args.sweeps, args.seed), args
    )
    result = run_experiment(config, cache_dir=args.cache_dir)
    written = write_report_bundle(result, args.directory)
    for name, path in sorted(written.items()):
        print(f"  {name:<14} {path}")
    print(f"wrote {len(written)} artefacts to {args.directory}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_from_args

    return run_from_args(args)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_trace, render_tree, summarise

    if args.trace_command == "flame":
        report = obs_profile.read_report(args.file)
        if args.folded:
            for line in report.folded():
                print(line)
        else:
            print(report.render(limit=args.limit))
        return 0
    records = read_trace(args.file)
    if args.trace_command == "summary":
        print(summarise(records))
    else:
        print(render_tree(records))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs import regress

    recent = args.recent if args.recent is not None else regress.DEFAULT_RECENT
    findings = regress.check_files(
        sampler_path=args.sampler,
        sampler_floor_path=args.sampler_floor,
        serve_path=args.serve,
        serve_floor_path=args.serve_floor,
        recent=recent,
    )
    if findings:
        print(f"{len(findings)} perf regression(s) detected:", file=sys.stderr)
        for finding in findings:
            print(f"  {finding.message()}", file=sys.stderr)
        return 1
    print(
        f"bench check ok: trajectories clear the committed floors "
        f"(median of last {recent} rows per cell)"
    )
    return 0


def _trace_target(args: argparse.Namespace) -> str | None:
    """The trace path for this invocation: --trace wins over the env."""
    explicit = getattr(args, "trace", None)
    if explicit:
        return str(explicit)
    return os.environ.get(obs_trace.TRACE_ENV) or None


def _profile_target(args: argparse.Namespace) -> str | None:
    """The profile path for this invocation: --profile wins over the env."""
    explicit = getattr(args, "profile", None)
    if explicit:
        return str(explicit)
    return os.environ.get(obs_profile.PROFILE_ENV) or None


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    obs_log.configure(level=args.log_level, verbosity=args.verbose)
    # The inspection commands never self-instrument: `repro trace` on a
    # trace file must not append to it, and `bench` is a reader.
    inspecting = args.command in ("trace", "bench")
    trace_path = None if inspecting else _trace_target(args)
    profile_path = None if inspecting else _profile_target(args)
    tracing = False
    try:
        for path in (trace_path, profile_path):
            if path is not None:
                _check_writable(path)
        if trace_path is not None:
            obs_trace.enable(trace_path)
            tracing = True
        if profile_path is not None:
            obs_profile.enable(profile_path)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "table1":
            return _cmd_table1()
        if args.command == "pipeline":
            return _cmd_pipeline(args)
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "rules":
            return _cmd_rules(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "dictionary":
            return _cmd_dictionary(args)
        return _cmd_estimate(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # disable() returns None when nothing was recording, e.g. when
        # enable() itself failed: then no file was written.
        if profile_path is not None and obs_profile.disable() is not None:
            print(f"wrote profile to {profile_path}", file=sys.stderr)
        if tracing:
            obs_trace.disable()
            print(f"wrote trace to {trace_path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
