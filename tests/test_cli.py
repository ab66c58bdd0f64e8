"""Command-line behaviour: exit codes, output formats, corpus determinism."""

import contextlib
import json
from pathlib import Path

import pytest

from tgq.cli import main

DATA = Path(__file__).parent / "data"
GRAPH = str(DATA / "corpus_graph.jsonl")
QUERIES = str(DATA / "corpus_queries.txt")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_load_check_ok(self, capsys, tmp_path):
        code, out, _ = run_cli(["load", GRAPH], capsys)
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["nodes"] == 6

    def test_load_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out, _ = run_cli(["load", str(empty)], capsys)
        assert code == 0
        stats = json.loads(out)["stats"]
        assert all(v == 0 for v in stats.values())

    def test_malformed_line_cites_line_number(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        lines = ['{"type":"node","id":"a","start":0,"end":1}'] * 6 + ["{broken"]
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["load", str(bad)], capsys)
        assert code == 2
        assert err.startswith("error: SCHEMA_ERROR:")
        assert "line 7" in err

    def test_non_finite_value_rejected_at_load(self, capsys, tmp_path):
        data = tmp_path / "nan.jsonl"
        data.write_text('{"type":"node","id":"a","start":0,"end":1}\n'
                        '{"type":"attr","elem":"node:a","name":"w","t":0,"value":NaN}\n')
        code, out, err = run_cli(["query", str(data), "LOOKUP w OF node:a AT t=0"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: SCHEMA_ERROR: line 2: attribute value must be a finite number\n"

    def test_output_is_strict_json(self, capsys, monkeypatch):
        # A non-finite number that reaches the CLI is refused, never printed
        # as the invalid JSON token NaN.
        calls = []

        def nan_envelope(text, graph, cfg):
            calls.append(text)
            return {"query": text, "bindings": [{"value": float("nan")}]}

        monkeypatch.setattr("tgq.cli.run_query", nan_envelope)
        with contextlib.suppress(ValueError):
            main(["query", GRAPH, "LOOKUP w OF node:a AT t=0"])
        assert calls
        assert "NaN" not in capsys.readouterr().out

    def test_trend_over_finite_extremes(self, capsys, tmp_path):
        data = tmp_path / "extremes.jsonl"
        data.write_text(
            '{"type":"node","id":"a","start":0,"end":1}\n'
            '{"type":"attr","elem":"node:a","name":"w","t":0,"value":1e308}\n'
            '{"type":"attr","elem":"node:a","name":"w","t":1,"value":-1e308}\n')
        code, out, _ = run_cli(
            ["query", str(data), "CHARACTERIZE TREND ON w OF node:a DURING [0, 1]"], capsys)
        assert code == 0
        pattern = json.loads(out, parse_constant=pytest.fail)["bindings"][0]["pattern"]
        assert (pattern["class"], pattern["slope"]) == ("DECREASING", -1.0)

    def test_trend_with_overflowing_product(self, capsys, tmp_path):
        data = tmp_path / "extremes.jsonl"
        lines = ['{"type":"node","id":"a","start":0,"end":4}']
        lines += [f'{{"type":"attr","elem":"node:a","name":"w","t":{t},"value":{v}}}'
                  for t, v in enumerate(["1e308", "-5e307", "-1e308", "2e-300", "1e308"])]
        data.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            ["query", str(data), "CHARACTERIZE TREND ON w OF node:a DURING [0, 4]"], capsys)
        assert code == 0
        pattern = json.loads(out, parse_constant=pytest.fail)["bindings"][0]["pattern"]
        assert pattern["class"] == "CONSTANT"

    def test_correlation_over_finite_extremes(self, capsys, tmp_path):
        data = tmp_path / "extremes.jsonl"
        lines = ['{"type":"node","id":"a","start":0,"end":4}',
                 '{"type":"node","id":"b","start":0,"end":4}']
        for t, (a, b) in enumerate(zip(["1e308", "1e308", "-1e308", "5e307", "1e308"],
                                       ["1", "2", "0.5", "3", "1.5"])):
            lines.append(f'{{"type":"attr","elem":"node:a","name":"w","t":{t},"value":{a}}}')
            lines.append(f'{{"type":"attr","elem":"node:b","name":"w","t":{t},"value":{b}}}')
        data.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            ["query", str(data),
             "CORRELATE w OF node:a DURING [0, 4] WITH w OF node:b DURING [0, 4]"], capsys)
        assert code == 0
        report = json.loads(out, parse_constant=pytest.fail)["bindings"][0]
        assert report["coefficient"] == pytest.approx(0.4502251688907482)

    def test_distribution_over_finite_extremes(self, capsys, tmp_path):
        data = tmp_path / "extremes.jsonl"
        data.write_text(
            '{"type":"node","id":"a","start":0,"end":1}\n'
            '{"type":"node","id":"b","start":0,"end":1}\n'
            '{"type":"attr","elem":"node:a","name":"w","t":0,"value":1e308}\n'
            '{"type":"attr","elem":"node:b","name":"w","t":0,"value":1e308}\n')
        code, out, _ = run_cli(
            ["query", str(data), "CHARACTERIZE DIST ON w OF NODES AT t=0"], capsys)
        assert code == 0
        pattern = json.loads(out, parse_constant=pytest.fail)["bindings"][0]["pattern"]
        assert (pattern["mean"], pattern["stddev"], pattern["class_hint"]) == (
            1e308, 0.0, "CONCENTRATED")

    def test_distribution_over_a_tiny_range(self, capsys, tmp_path):
        # (hi - lo) / bins underflows to 0: the bins come from unit-scaled values.
        data = tmp_path / "tiny.jsonl"
        data.write_text(
            '{"type":"node","id":"a","start":0,"end":0}\n'
            '{"type":"node","id":"b","start":0,"end":0}\n'
            '{"type":"attr","elem":"node:a","name":"w","t":0,"value":0.0}\n'
            '{"type":"attr","elem":"node:b","name":"w","t":0,"value":5e-324}\n')
        code, out, _ = run_cli(
            ["query", str(data), "CHARACTERIZE DIST ON w OF NODES AT t=0"], capsys)
        assert code == 0
        pattern = json.loads(out, parse_constant=pytest.fail)["bindings"][0]["pattern"]
        assert pattern == {
            "kind": "distribution", "count": 2, "mean": 0.0, "stddev": 0.0,
            "min": 0.0, "max": 5e-324, "histogram": [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
            "class_hint": "BIMODAL"}

    @pytest.mark.parametrize("query, field, expected", [
        ("LOOKUP w OF object:o AT t=0", "value", 1e308),
        ("CHARACTERIZE TREND ON w OF object:o DURING [0, 2]", "pattern", "CONSTANT"),
    ], ids=["lookup", "trend"])
    def test_object_mean_over_finite_extremes(self, capsys, tmp_path, query, field, expected):
        # The members' sum overflows; their mean, carried to t=2, does not.
        data = tmp_path / "extremes.jsonl"
        data.write_text(
            '{"type":"node","id":"a","start":0,"end":2}\n'
            '{"type":"node","id":"b","start":0,"end":2}\n'
            '{"type":"object","id":"o","nodes":["a","b"]}\n'
            '{"type":"attr","elem":"node:a","name":"w","t":0,"value":1e308}\n'
            '{"type":"attr","elem":"node:b","name":"w","t":0,"value":1e308}\n')
        code, out, _ = run_cli(["query", str(data), query], capsys)
        assert code == 0
        got = json.loads(out, parse_constant=pytest.fail)["bindings"][0][field]
        assert (got["class"] if field == "pattern" else got) == expected

    def test_usage_error(self, capsys):
        code, _, err = run_cli(["bogus-command"], capsys)
        assert code == 1
        assert err.startswith("error: USAGE:")

    def test_query_error(self, capsys):
        code, _, err = run_cli(["query", GRAPH, "LOOKUP w OF node:zz AT t=0"], capsys)
        assert code == 3
        assert err.startswith("error: VALIDATION_ERROR:")

    def test_parse_error(self, capsys):
        code, _, err = run_cli(["query", GRAPH, "LOOKUP???"], capsys)
        assert code == 3
        assert err.startswith("error: PARSE_ERROR:")

    def test_missing_data_file(self, capsys):
        code, _, err = run_cli(["load", "/nonexistent.jsonl"], capsys)
        assert code == 2

    def test_query_over_an_empty_data_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out, err = run_cli(["query", str(empty), "STRUCT SEARCH ALWAYS OVER PAIRS"],
                                 capsys)
        assert (code, out) == (3, "")
        assert err == "error: VALIDATION_ERROR: graph has an empty time domain\n"

    def test_missing_query_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        code, out, err = run_cli(["corpus", GRAPH, str(missing)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: SCHEMA_ERROR: cannot read '{missing}': No such file or directory\n"

    @pytest.mark.parametrize("name, content, line, reason", [
        ("bad.jsonl", b'{"type":"node","id":"a","start":0,"end":1}\n{"type":"node","id":"\xff"}\n',
         2, "invalid start byte"),
        ("cut.jsonl", b'{"type":"node","id":"a","start":0,"end":1}\r\n\r\n{"id":"\xe2\x82', 3,
         "unexpected end of data"),
        ("bad.csv", b"type,id,start,end\nnode,a,0,1\nnode,\xe2\x82x,0,1\n", 3,
         "invalid continuation byte"),
    ], ids=["jsonl", "truncated", "csv"])
    def test_undecodable_data_file(self, capsys, tmp_path, name, content, line, reason):
        data = tmp_path / name
        data.write_bytes(content)
        for argv in (["load", str(data)], ["query", str(data), "LOOKUP w OF node:a AT t=0"]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert err == f"error: SCHEMA_ERROR: line {line}: invalid UTF-8 ({reason})\n"

    @pytest.mark.parametrize("name, line, message", [
        ("deep.jsonl", "[" * 100_000 + "]" * 100_000, "invalid JSON (nesting too deep)"),
        ("long.jsonl", '{"type":"node","id":"b","start":' + "1" * 5000 + "}",
         "invalid JSON (number too long)"),
        ("long.csv", "node,b," + "1" * 5000 + ",1", "invalid CSV (number too long)"),
    ], ids=["nesting", "long_integer", "csv"])
    def test_past_python_limits_is_a_schema_error(self, capsys, tmp_path, name, line, message):
        data = tmp_path / name
        head = ("type,id,start,end" if name.endswith(".csv")
                else '{"type":"node","id":"a","start":0}')
        data.write_text(f"{head}\n{line}\n")
        code, out, err = run_cli(["load", str(data)], capsys)
        assert (code, out, err) == (2, "", f"error: SCHEMA_ERROR: line 2: {message}\n")

    def test_oversized_csv_field(self, capsys, tmp_path):
        data = tmp_path / "big.csv"
        data.write_text("type,id,start,end\nnode,a,0,1\n" + f'node,"{"a" * 200_000}",0,1\n')
        code, out, err = run_cli(["load", str(data)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: SCHEMA_ERROR: line 3: invalid CSV (field larger than")

    def test_undecodable_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"slope_epsilon=0.1\n# caf\xc3\n")
        code, out, err = run_cli(["--config", str(cfg), "load", GRAPH], capsys)
        assert (code, out) == (1, "")
        assert err == "error: USAGE: config line 2: invalid UTF-8 (invalid continuation byte)\n"

    def test_undecodable_query_file(self, capsys, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_bytes(b"LOOKUP w OF node:a AT t=0\n\x00\xff\n")
        code, out, err = run_cli(["corpus", GRAPH, str(queries)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: SCHEMA_ERROR: query file line 2: invalid UTF-8 (invalid start byte)\n"


class TestQuery:
    def test_envelope_shape(self, capsys):
        code, out, _ = run_cli(["query", GRAPH, "LOOKUP w OF node:a AT t=2"], capsys)
        assert code == 0
        envelope = json.loads(out)
        assert list(envelope) == ["query", "bindings", "elapsed_ms", "warnings"]
        assert envelope["bindings"][0]["value"] == 3.0

    def test_lookup_matches_fixture_table(self, capsys):
        # Oracle: the raw ingest records of the corpus graph.
        for t, expect in ((0, 1.0), (3, 4.0), (7, 8.0)):
            code, out, _ = run_cli(
                ["query", GRAPH, f"LOOKUP w OF node:a AT t={t}"], capsys)
            assert code == 0
            assert json.loads(out)["bindings"][0]["value"] == expect

    def test_aggregation_warning(self, capsys):
        code, out, _ = run_cli(["query", GRAPH, "LOOKUP w OF object:O1 AT t=0"], capsys)
        envelope = json.loads(out)
        assert envelope["warnings"]
        assert envelope["bindings"][0]["aggregated"] is True

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            ["--format", "table", "query", GRAPH, "FIND g WHERE w = 8.0 AT t=0"],
            capsys)
        assert code == 0
        assert "query:" in out and "element" in out and "node:b" in out

    def test_table_format_empty(self, capsys):
        code, out, _ = run_cli(
            ["--format", "table", "query", GRAPH, "FIND t,g WHERE w > 50"], capsys)
        assert code == 0
        assert "(no results)" in out

    def test_threshold_flag(self, capsys):
        loose = run_cli(
            ["--threshold", "0.0", "query", GRAPH,
             "SEARCH INCREASING ON w OVER EACH_NODE DURING [0, 7]"], capsys)
        strict = run_cli(
            ["--threshold", "1.0", "query", GRAPH,
             "SEARCH INCREASING ON w OVER EACH_NODE DURING [0, 7]"], capsys)
        assert len(json.loads(loose[1])["bindings"]) > len(json.loads(strict[1])["bindings"])

    def test_config_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "tgq.conf"
        cfgfile.write_text("similarity_threshold=0.5\nhistogram_bins=4\n")
        code, out, _ = run_cli(
            ["--config", str(cfgfile), "query", GRAPH,
             "CHARACTERIZE DIST ON w OF subset:S1 AT t=2"], capsys)
        assert code == 0
        assert len(json.loads(out)["bindings"][0]["pattern"]["histogram"]) == 4

    def test_config_rejects_unknown_key(self, capsys, tmp_path):
        cfgfile = tmp_path / "tgq.conf"
        cfgfile.write_text("not_a_key=1\n")
        code, _, err = run_cli(["--config", str(cfgfile), "load", GRAPH], capsys)
        assert code == 1
        assert err.startswith("error: USAGE:")

    def test_env_config(self, capsys, tmp_path, monkeypatch):
        cfgfile = tmp_path / "tgq.conf"
        cfgfile.write_text("histogram_bins=3\n")
        monkeypatch.setenv("TGQ_CONFIG", str(cfgfile))
        code, out, _ = run_cli(
            ["query", GRAPH, "CHARACTERIZE DIST ON w OF subset:S1 AT t=2"], capsys)
        assert len(json.loads(out)["bindings"][0]["pattern"]["histogram"]) == 3


class TestCorpus:
    def test_corpus_runs_clean(self, capsys):
        code, out, err = run_cli(["corpus", GRAPH, QUERIES], capsys)
        assert code == 0, err
        lines = [l for l in out.splitlines() if l]
        for line in lines:
            envelope = json.loads(line)
            assert "error" not in envelope
            assert envelope["elapsed_ms"] == 0

    def test_corpus_byte_identical(self, capsys):
        _, first, _ = run_cli(["corpus", GRAPH, QUERIES], capsys)
        _, second, _ = run_cli(["corpus", GRAPH, QUERIES], capsys)
        assert first == second

    def test_corpus_stable_across_processes(self):
        # Different hash seeds shake out any set-iteration order leaking
        # into serialized output: the corpus, every pin and a batch of
        # random queries (tests/answer_batches.py), in one process per seed.
        import os
        import subprocess
        import sys

        outputs = []
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).parent / "answer_batches.py")],
                capture_output=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert len(outputs[0].splitlines()) == 176 + 239 + 1000
        assert outputs[0] == outputs[1]

    def test_corpus_reports_failures(self, capsys, tmp_path):
        qfile = tmp_path / "queries.txt"
        qfile.write_text("LOOKUP w OF node:a AT t=0\nLOOKUP w OF node:zz AT t=0\n")
        code, out, _ = run_cli(["corpus", GRAPH, str(qfile)], capsys)
        assert code == 3
        lines = out.splitlines()
        assert "error" not in json.loads(lines[0])
        assert json.loads(lines[1])["error"]["code"] == "VALIDATION_ERROR"


class TestRepl:
    def test_repl_session(self, capsys, monkeypatch):
        inputs = iter(["LOOKUP w OF node:a AT t=2", ":stats", "LOOKUP???", ":quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(inputs))
        code = main(["repl", GRAPH])
        out = capsys.readouterr().out
        assert code == 0
        assert '"value": 3.0' in out or '"value":3.0' in out.replace(" ", "")
        assert "error: PARSE_ERROR" in out

    def test_repl_eof(self, capsys, monkeypatch):
        def raise_eof(prompt=""):
            raise EOFError
        monkeypatch.setattr("builtins.input", raise_eof)
        assert main(["repl", GRAPH]) == 0
