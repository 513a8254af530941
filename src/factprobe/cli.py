"""Command-line interface: build-dataset, evaluate, report."""

from __future__ import annotations

import argparse
import json
import sys

from .config import load_config
from .errors import BackendError, ProbeError
from .pipeline import cmd_build_dataset, cmd_evaluate, cmd_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factprobe",
        description="Multilingual factual-knowledge probing pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser(
        "build-dataset",
        help="verbalize facts, split prompts, assemble candidate sets",
    )
    build.add_argument("--config", required=True, help="path to the run config")
    build.add_argument(
        "--replay", action="store_true",
        help="force all clients into replay mode (fixtures/cache only)",
    )
    build.add_argument("--force", action="store_true", help="rebuild even if current")

    evaluate = sub.add_parser(
        "evaluate", help="score candidate sets and write the record store"
    )
    evaluate.add_argument("--config", required=True)
    evaluate.add_argument("--bundle", required=True, help="bundle directory")
    evaluate.add_argument("--force", action="store_true")

    report = sub.add_parser("report", help="render metric tables and CSV exports")
    report.add_argument("--config", required=True)
    report.add_argument("--records", required=True, help="record store directory")
    report.add_argument("--force", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "build-dataset":
            bundle = cmd_build_dataset(config, replay=args.replay, force=args.force)
            print(f"bundle: {bundle}")
        elif args.command == "evaluate":
            records = cmd_evaluate(config, args.bundle, force=args.force)
            manifest = json.loads((records / "manifest.json").read_text(encoding="utf-8"))
            if not manifest["complete"]:
                raise BackendError(
                    f"{manifest['counts']['backend_errors']} candidate sets failed to score; "
                    "a rerun of evaluate retries them", records=str(records),
                )
            print(f"records: {records}")
        elif args.command == "report":
            report_dir = cmd_report(config, args.records, force=args.force)
            print(f"report: {report_dir}")
    except ProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
