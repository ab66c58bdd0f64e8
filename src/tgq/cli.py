"""Command-line entry points: one-shot queries, a REPL, data validation,
and batch (golden-corpus) execution.

Exit codes: 0 success, 1 usage, 2 data error, 3 query error. Every failure
prints a single machine-parseable line ``error: <CODE>: <message>`` to
stderr before exiting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import Config, load_config
from .errors import DATA_CODES, TgqError, read_utf8
from .graph import TemporalGraph, load_path
from .dsl.planner import run_query

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_QUERY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tgq", description="Temporal graph query engine")
    parser.add_argument("--config", help="key=value config file (or $TGQ_CONFIG)")
    parser.add_argument("--format", choices=["json", "table"], default=None)
    parser.add_argument("--threshold", type=float, default=None,
                        help="similarity threshold override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_load = sub.add_parser("load", help="load a dataset and report stats")
    p_load.add_argument("data", help=".jsonl or .csv event file")

    p_query = sub.add_parser("query", help="run one query")
    p_query.add_argument("data")
    p_query.add_argument("text", help="query text")

    p_repl = sub.add_parser("repl", help="interactive query loop")
    p_repl.add_argument("data")

    p_corpus = sub.add_parser("corpus", help="run a query file (golden-test mode)")
    p_corpus.add_argument("data")
    p_corpus.add_argument("queries", help="one query per line; # starts a comment")
    return parser


def _load_cfg(args) -> Config:
    path = args.config or os.environ.get("TGQ_CONFIG")
    cfg = load_config(path) if path else Config()
    if args.threshold is not None:
        cfg = cfg.replace(similarity_threshold=args.threshold)
    if args.format is not None:
        cfg = cfg.replace(output_format=args.format)
    return cfg


def _emit(envelope: dict, cfg: Config, out) -> None:
    if cfg.output_format == "table":
        out.write(_as_table(envelope))
    else:
        out.write(json.dumps(envelope, allow_nan=False) + "\n")


def _as_table(envelope: dict) -> str:
    """Plain-text rendering derived from the JSON envelope (never computed
    separately, so the two formats cannot drift)."""
    lines = [f"query: {envelope['query']}"]
    rows = envelope["bindings"]
    if not rows:
        lines.append("(no results)")
    else:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        cells = [[_cell(row.get(c)) for c in columns] for row in rows]
        widths = [
            max(len(col), *(len(r[i]) for r in cells))
            for i, col in enumerate(columns)
        ]
        lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
        for r in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    for warning in envelope["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value, allow_nan=False)
    return str(value)


def _load_graph(path: str) -> TemporalGraph:
    try:
        return load_path(path)
    except OSError as err:
        raise TgqError("SCHEMA_ERROR", f"cannot read '{path}': {err.strerror}") from None


def cmd_load(args, cfg: Config, out) -> int:
    graph = _load_graph(args.data)
    out.write(json.dumps({"ok": True, "stats": graph.stats()}, allow_nan=False) + "\n")
    return EXIT_OK


def cmd_query(args, cfg: Config, out) -> int:
    graph = _load_graph(args.data)
    envelope = run_query(args.text, graph, cfg)
    _emit(envelope, cfg, out)
    return EXIT_OK


def cmd_corpus(args, cfg: Config, out) -> int:
    """Run every query in the file. Envelopes report elapsed_ms as 0 so the
    output is byte-identical across runs; failures become error envelopes
    and flip the exit code to 3 after the batch completes."""
    graph = _load_graph(args.data)
    try:
        lines = read_utf8(args.queries, "SCHEMA_ERROR", "query file line").splitlines()
    except OSError as err:
        raise TgqError("SCHEMA_ERROR",
                       f"cannot read '{args.queries}': {err.strerror}") from None
    failed = False
    for raw in lines:
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            envelope = run_query(text, graph, cfg)
            envelope["elapsed_ms"] = 0
        except TgqError as err:
            failed = True
            envelope = {
                "query": text,
                "error": {"code": err.code, "message": err.message},
            }
        out.write(json.dumps(envelope, allow_nan=False) + "\n")
    return EXIT_QUERY if failed else EXIT_OK


def cmd_repl(args, cfg: Config, out) -> int:
    try:
        import readline  # noqa: F401  (history/editing when available)
    except ImportError:
        pass
    graph = _load_graph(args.data)
    out.write(f"loaded {args.data}: {json.dumps(graph.stats(), allow_nan=False)}\n")
    out.write("enter queries; :quit leaves, :stats reprints the counts\n")
    while True:
        try:
            text = input("tgq> ").strip()
        except EOFError:
            out.write("\n")
            return EXIT_OK
        except KeyboardInterrupt:
            out.write("\n")
            return EXIT_OK
        if not text:
            continue
        if text in (":quit", ":q", ":exit"):
            return EXIT_OK
        if text == ":stats":
            out.write(json.dumps(graph.stats(), allow_nan=False) + "\n")
            continue
        try:
            _emit(run_query(text, graph, cfg), cfg, out)
        except TgqError as err:
            out.write(f"error: {err.code}: {err.message}\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: USAGE: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _load_cfg(args)
    except (TgqError, OSError) as err:
        message = err.message if isinstance(err, TgqError) else str(err)
        print(f"error: USAGE: {message}", file=sys.stderr)
        return EXIT_USAGE
    commands = {
        "load": cmd_load,
        "query": cmd_query,
        "repl": cmd_repl,
        "corpus": cmd_corpus,
    }
    try:
        return commands[args.command](args, cfg, sys.stdout)
    except TgqError as err:
        print(f"error: {err.code}: {err.message}", file=sys.stderr)
        return EXIT_DATA if err.code in DATA_CODES else EXIT_QUERY


if __name__ == "__main__":
    sys.exit(main())
