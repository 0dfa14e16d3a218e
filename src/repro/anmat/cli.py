"""The ``anmat`` command-line interface.

A text stand-in for the demo's web GUI.  Sub-commands mirror the GUI
workflow:

* ``anmat datasets`` — list the built-in synthetic datasets.
* ``anmat profile`` — profile a dataset (Figure 3).
* ``anmat discover`` — discover PFDs and print their tableaux (Figure 4).
* ``anmat detect`` — discover, confirm everything, detect and print
  violations (Figure 5), optionally scoring against the injected ground
  truth.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.anmat.report import render_discovered_pfds, render_profile, render_violations
from repro.anmat.session import AnmatSession
from repro.datagen.registry import build_dataset, dataset_names
from repro.discovery.config import DiscoveryConfig
from repro.engine import DEFAULT_SHARD_ROWS
from repro.sharding import STORE_KINDS
from repro.metrics.evaluation import evaluate_report

#: ``detect`` exit codes, distinct so shell pipelines can gate on clean
#: data (argparse itself exits 2 on usage errors, and unexpected errors
#: surface as tracebacks with status 1).
EXIT_CLEAN = 0
EXIT_VIOLATIONS_FOUND = 3


def _open_session(args: argparse.Namespace):
    """Return (session, ground_truth_or_None) with the dataset loaded.

    A CSV upload streams through :meth:`AnmatSession.upload_csv`
    chunk-wise straight into shards — the whole document is never
    parsed in one piece.  Built-in datasets are generated in memory and
    cut into shards by :meth:`AnmatSession.load_table`.  Either way the
    shards hold ``--shard-rows`` rows (the engine default when unset)
    and live on the ``--store`` backend (in memory, spilled to disk, or
    in an object store).
    """
    config = DiscoveryConfig(
        min_coverage=args.min_coverage,
        allowed_violation_ratio=args.allowed_violations,
        shard_rows=args.shard_rows,
        store=args.store,
        spill_dir=args.spill_dir,
        object_url=args.object_url,
    )
    if args.csv:
        session = AnmatSession(dataset_name=Path(args.csv).stem, config=config)
        session.upload_csv(args.csv)
        return session, None
    dataset = build_dataset(args.dataset)
    session = AnmatSession(dataset_name=dataset.name, config=config)
    session.load_table(dataset.table)
    return session, dataset.error_cells


def _explain_plans(args: argparse.Namespace, *build_plans) -> None:
    """Print the chosen execution plan(s) when ``--explain-plan`` is set.

    Takes plan *builders* so nothing is planned when the flag is off.
    """
    if not getattr(args, "explain_plan", False):
        return
    for build in build_plans:
        print(build().describe())


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--dataset",
        default="zip_city_state",
        choices=dataset_names(),
        help="built-in synthetic dataset to use",
    )
    source.add_argument("--csv", help="path to a CSV file to analyse instead")
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=0.6,
        help="minimum coverage threshold (the paper's γ)",
    )
    parser.add_argument(
        "--allowed-violations",
        type=float,
        default=0.05,
        help="allowed violation ratio (the paper's dirty-data tolerance)",
    )
    parser.add_argument(
        "--shard-rows",
        type=_positive_int,
        default=0,
        metavar="N",
        help=(
            "cut the dataset into shards of N rows once at load (CSV "
            "uploads are streamed chunk-wise); results do not depend on "
            f"the shard size (0 = the default of {DEFAULT_SHARD_ROWS})"
        ),
    )
    parser.add_argument(
        "--store",
        default="memory",
        choices=list(STORE_KINDS),
        help=(
            "shard store backend for the upload: 'memory' keeps shards "
            "in process (the default), 'spill' spills sealed shards to "
            "disk and reloads them on demand, 'object' puts them in a "
            "local object store with checksummed reads; results are "
            "identical across stores"
        ),
    )
    parser.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory for the 'spill' and 'object' stores (default: a "
            "temporary directory cleaned up when the store closes)"
        ),
    )
    parser.add_argument(
        "--object-url",
        default=None,
        metavar="URL",
        help=(
            "base http(s):// URL of a remote object store for --store "
            "object: shard bytes move over S3-compatible-style "
            "PUT/GET/DELETE with sha256 checksums and bounded "
            "retry/backoff; the default (no URL) keeps objects on the "
            "local filesystem; the execution plan records which client "
            "serves the run"
        ),
    )


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--explain-plan`` flag shared by ``discover`` and ``detect``."""
    parser.add_argument(
        "--explain-plan",
        action="store_true",
        help="print the chosen execution plan (shard count, store) before running",
    )


def _positive_int(text: str) -> int:
    """argparse type for ``--shard-rows``: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cmd_datasets(_args: argparse.Namespace) -> int:
    for name in dataset_names():
        dataset = build_dataset(name)
        print(f"{name:20s} {dataset.table.n_rows:6d} rows  {dataset.description}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    session, _truth = _open_session(args)
    with session:
        profile = session.run_profiling()
    print(render_profile(profile))
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    session, _truth = _open_session(args)
    with session:
        _explain_plans(args, session.plan_discovery)
        result = session.run_discovery()
    print(render_discovered_pfds(result))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    session, truth = _open_session(args)
    with session:
        _explain_plans(args, session.plan_discovery, session.plan_detection)
        session.run_discovery()
        session.confirm_all()
        report = session.run_detection()
        print(render_violations(report, session.table))
    if args.score:
        if truth is None:
            print(
                "warning: --score ignored: the loaded dataset has no injected "
                "ground truth (scoring works on built-in synthetic datasets only)",
                file=sys.stderr,
            )
        else:
            evaluation = evaluate_report(report, truth)
            print(
                f"\nAgainst injected ground truth: precision={evaluation.precision:.3f} "
                f"recall={evaluation.recall:.3f} f1={evaluation.f1:.3f}"
            )
    return EXIT_CLEAN if report.is_empty() else EXIT_VIOLATIONS_FOUND


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anmat",
        description="ANMAT reproduction: PFD discovery and error detection",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets = subparsers.add_parser("datasets", help="list built-in datasets")
    datasets.set_defaults(handler=_cmd_datasets)

    profile = subparsers.add_parser("profile", help="profile a dataset (Figure 3)")
    _add_common_arguments(profile)
    profile.set_defaults(handler=_cmd_profile)

    discover = subparsers.add_parser("discover", help="discover PFDs (Figure 4)")
    _add_common_arguments(discover)
    _add_execution_arguments(discover)
    discover.set_defaults(handler=_cmd_discover)

    detect = subparsers.add_parser(
        "detect",
        help="detect errors (Figure 5)",
        description=(
            "Discover PFDs, confirm them all, run detection, and print the "
            "violations (Figure 5)."
        ),
        epilog=(
            f"exit codes: {EXIT_CLEAN} = clean data (no violations found), "
            f"{EXIT_VIOLATIONS_FOUND} = violations were found, "
            "2 = usage error"
        ),
    )
    _add_common_arguments(detect)
    _add_execution_arguments(detect)
    detect.add_argument(
        "--score",
        action="store_true",
        help="score against injected ground truth (built-in datasets only)",
    )
    detect.set_defaults(handler=_cmd_detect)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
