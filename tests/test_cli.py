"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.xmltree.parser import parse_xml_file

CATALOG = """
<shop>
  <department>
    <name>fiction</name>
    <book><title>Dune</title><price>9</price></book>
    <book><title>Hyperion</title><price>12</price></book>
  </department>
  <department>
    <name>science</name>
    <book><title>Cosmos</title><price>15</price></book>
  </department>
</shop>
"""


@pytest.fixture
def catalog_path(tmp_path):
    path = tmp_path / "catalog.xml"
    path.write_text(CATALOG, encoding="utf-8")
    return str(path)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "file.xml", "//a"])
        assert args.algorithm == "pax2"
        assert args.fragment_size is None
        assert not args.annotations
        assert args.engine is None

    def test_engine_choices(self):
        args = build_parser().parse_args(
            ["query", "file.xml", "//a", "--engine", "reference"]
        )
        assert args.engine == "reference"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "file.xml", "//a", "--engine", "bogus"])


class TestQueryCommand:
    def test_centralized_query(self, catalog_path, capsys):
        assert main(["query", catalog_path, "//book[price < 13]/title",
                     "--algorithm", "centralized"]) == 0
        out = capsys.readouterr().out
        assert "2 answer(s)" in out
        assert "Dune" in out and "Hyperion" in out

    @pytest.mark.parametrize("algorithm", ["pax2", "pax3", "naive"])
    def test_distributed_query(self, catalog_path, capsys, algorithm):
        code = main([
            "query", catalog_path, "//book[price < 13]/title",
            "--fragment-at", "department", "--algorithm", algorithm,
            "--annotations", "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 answer(s)" in out
        assert "max site visits" in out

    @pytest.mark.parametrize("engine", ["kernel", "reference"])
    def test_query_with_explicit_engine(self, catalog_path, capsys, engine):
        code = main([
            "query", catalog_path, "//book[price < 13]/title",
            "--fragment-at", "department", "--engine", engine,
        ])
        assert code == 0
        assert "2 answer(s)" in capsys.readouterr().out

    def test_fragment_size_and_sites(self, catalog_path, capsys):
        assert main([
            "query", catalog_path, "department/name",
            "--fragment-size", "4", "--sites", "2",
        ]) == 0
        assert "fiction" in capsys.readouterr().out

    def test_xml_output_and_limit(self, catalog_path, capsys):
        assert main(["query", catalog_path, "//book", "--xml", "--limit", "1",
                     "--algorithm", "centralized"]) == 0
        out = capsys.readouterr().out
        assert "<book>" in out and "... and 2 more" in out

    def test_conflicting_fragmentation_flags_rejected(self, catalog_path):
        with pytest.raises(SystemExit):
            main([
                "query", catalog_path, "//book",
                "--fragment-size", "4", "--fragment-at", "department",
            ])


class TestFragmentCommand:
    def test_summary_printed(self, catalog_path, capsys):
        assert main(["fragment", catalog_path, "--fragment-at", "department"]) == 0
        out = capsys.readouterr().out
        assert "F0" in out and "F2" in out


class TestServeCommand:
    def test_serve_batch_from_file(self, catalog_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "# workload\n//book[price < 13]/title\ndepartment/name\n\n", encoding="utf-8"
        )
        code = main([
            "serve", catalog_path, "--queries", str(queries),
            "--fragment-at", "department", "--concurrency", "4", "--repeat", "3",
            "--answers",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "requests         : 6" in out
        assert "cache:" in out and "actor pool:" in out
        # Second and third rounds of each query are answered by the cache.
        assert "cache hits" in out

    def test_serve_requires_queries(self, catalog_path, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n# nothing\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["serve", catalog_path, "--queries", str(empty)])

    def test_serve_reads_stdin_by_default(self, catalog_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("//book/title\n"))
        assert main(["serve", catalog_path, "--fragment-size", "4"]) == 0
        assert "requests         : 1" in capsys.readouterr().out

    def test_serve_multiple_named_documents(self, catalog_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        # one pinned query (name::query) and two round-robin queries
        queries.write_text(
            "left:://book/title\n//department/name\n//book/title\n", encoding="utf-8"
        )
        code = main([
            "serve",
            "--doc", f"left={catalog_path}",
            "--doc", f"right={catalog_path}",
            "--queries", str(queries),
            "--fragment-size", "4", "--answers",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[left] //book/title" in out
        assert "2 document(s)" in out
        assert "per document" in out

    def test_serve_rejects_doc_and_positional_together(self, catalog_path, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("//book/title\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main([
                "serve", catalog_path, "--doc", f"other={catalog_path}",
                "--queries", str(queries),
            ])

    def test_serve_rejects_pin_to_unknown_document(self, catalog_path, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("stor:://book/title\n", encoding="utf-8")  # typo'd pin
        with pytest.raises(SystemExit, match="unknown document 'stor'"):
            main([
                "serve", "--doc", f"store={catalog_path}",
                "--queries", str(queries), "--fragment-size", "4",
            ])

    def test_serve_rejects_malformed_doc_spec(self, catalog_path, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("//book/title\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["serve", "--doc", "nopath", "--queries", str(queries)])

    def test_serve_requires_some_document(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("//book/title\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["serve", "--queries", str(queries)])

    @pytest.mark.parametrize(
        "flag, value", [("--site-parallelism", "0"), ("--cache-capacity", "-5")]
    )
    def test_serve_rejects_out_of_range_sizes_with_usage(
        self, catalog_path, tmp_path, capsys, flag, value
    ):
        # Once --site-parallelism 0 exited 1 with a traceback and
        # --cache-capacity -5 silently served without a cache.
        queries = tmp_path / "queries.txt"
        queries.write_text("//book/title\n", encoding="utf-8")
        with pytest.raises(SystemExit) as caught:
            main(["serve", catalog_path, "--queries", str(queries), flag, value])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and flag in err and "Traceback" not in err

    def test_serve_runs_at_the_smallest_sizes(self, catalog_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("//book/title\n", encoding="utf-8")
        code = main([
            "serve", catalog_path, "--queries", str(queries), "--fragment-size", "4",
            "--site-parallelism", "1", "--cache-capacity", "0", "--repeat", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "requests         : 2" in out
        assert "cache: " not in out  # capacity 0 serves without a cache

    def test_serve_engine_choices_exclude_reference(self, catalog_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("//book/title\n", encoding="utf-8")
        with pytest.raises(SystemExit) as caught:
            main(["serve", catalog_path, "--queries", str(queries), "--engine", "reference"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--engine" in err

    def test_serve_refuses_a_reference_default_engine_without_traceback(
        self, catalog_path, tmp_path, capsys
    ):
        from repro.core.kernel.dispatch import use_fragment_engine

        queries = tmp_path / "queries.txt"
        queries.write_text("//book/title\n", encoding="utf-8")
        with use_fragment_engine("reference"):
            code = main(["serve", catalog_path, "--queries", str(queries)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: ") and "reference" in captured.err
        assert "Traceback" not in captured.err
        assert "requests" not in captured.out  # nothing was submitted
        # --engine overrides the process default
        with use_fragment_engine("reference"):
            assert main([
                "serve", catalog_path, "--queries", str(queries), "--engine", "kernel",
            ]) == 0


class TestUnreadableDocuments:
    """Bad input ends in one line on stderr and exit code 2, never a traceback."""

    @staticmethod
    def exit_code(argv):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        return caught.value.code

    @pytest.fixture
    def queries_path(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("//book\n", encoding="utf-8")
        return str(path)

    def argv(self, command, document, queries_path):
        return {
            "query": ["query", document, "//book"],
            "fragment": ["fragment", document],
            "serve": ["serve", document, "--queries", queries_path],
            "serve --doc": ["serve", "--doc", f"shop={document}", "--queries", queries_path],
        }[command]

    @pytest.mark.parametrize("command", ["query", "fragment", "serve", "serve --doc"])
    def test_malformed_xml(self, command, tmp_path, queries_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<shop><book></shop>", encoding="utf-8")
        assert self.exit_code(self.argv(command, str(bad), queries_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: {bad}: mismatched tag (line 1, column 14) (at offset 14)\n"

    @pytest.mark.parametrize("command", ["query", "fragment", "serve", "serve --doc"])
    def test_missing_file(self, command, tmp_path, queries_path, capsys):
        missing = tmp_path / "nowhere.xml"
        assert self.exit_code(self.argv(command, str(missing), queries_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: {missing}: No such file or directory\n"

    def test_not_utf8(self, tmp_path, capsys):
        binary = tmp_path / "binary.xml"
        binary.write_bytes(b"\xff\xfe<a/>")
        assert self.exit_code(["query", str(binary), "//a"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: {binary}: ") and err.count("\n") == 1


class TestMalformedXPath:
    """A malformed XPath ends in the parser's caret diagnostic on stderr and
    exit code 2 — for ``serve`` before any query is submitted."""

    BAD = "//book["
    DIAGNOSTIC = "repro: expected a path condition\n  //book[\n         ^\n"

    def argv(self, command, position, document, tmp_path):
        query, fragment_at = {
            "query": (self.BAD, "department"),
            "fragment-at": ("//book", self.BAD),
        }[position]
        queries = tmp_path / "queries.txt"
        queries.write_text(f"//title\n{query}\n", encoding="utf-8")
        return {
            "query": ["query", document, query, "--fragment-at", fragment_at],
            "fragment": ["fragment", document, "--fragment-at", fragment_at],
            "serve": ["serve", document, "--queries", str(queries),
                      "--fragment-at", fragment_at, "--answers"],
        }[command]

    @pytest.mark.parametrize("command,position", [
        ("query", "query"), ("query", "fragment-at"),
        ("fragment", "fragment-at"),
        ("serve", "query"), ("serve", "fragment-at"),
    ])
    def test_one_diagnostic_and_exit_2(self, command, position, catalog_path, tmp_path, capsys):
        assert main(self.argv(command, position, catalog_path, tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.DIAGNOSTIC


    def test_a_hostile_query_ends_in_one_diagnostic(self, catalog_path, capsys):
        query = "//book[" + " or ".join(["title"] * 5000) + "]"
        assert main(["query", catalog_path, query]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: query nests deeper than")
        assert captured.err.count("repro:") == 1 and "Traceback" not in captured.err


class TestServeTracingFlags:
    def test_trace_artifacts_written(self, catalog_path, tmp_path, capsys):
        import json

        queries = tmp_path / "queries.txt"
        queries.write_text("//book[price < 13]/title\ndepartment/name\n", encoding="utf-8")
        trace = tmp_path / "spans.jsonl"
        chrome = tmp_path / "chrome.json"
        slow = tmp_path / "slow.jsonl"
        code = main([
            "serve", catalog_path, "--queries", str(queries),
            "--fragment-at", "department", "--repeat", "2",
            "--trace", str(trace),
            "--chrome-trace", str(chrome),
            "--slow-log", str(slow), "--slow-threshold", "0.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tracing: 4 request(s) traced, 0 guarantee violation(s)" in out
        # every request is one JSON line; cache hits included
        roots = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(roots) == 4
        assert all(root["kind"] == "query" for root in roots)
        document = json.loads(chrome.read_text())
        names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert "query" in names and "plan:compile" in names
        assert len(slow.read_text().splitlines()) == 4  # threshold 0 logs all

    def test_untraced_serve_prints_no_tracing_line(self, catalog_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("//book/title\n", encoding="utf-8")
        assert main([
            "serve", catalog_path, "--queries", str(queries), "--fragment-size", "4",
        ]) == 0
        assert "tracing:" not in capsys.readouterr().out

    def test_metrics_port_announced(self, catalog_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("//book/title\n", encoding="utf-8")
        assert main([
            "serve", catalog_path, "--queries", str(queries),
            "--fragment-size", "4", "--metrics-port", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "[metrics at http://127.0.0.1:" in out
        assert "tracing: 1 request(s) traced" in out


class TestStatsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["stats", "http://127.0.0.1:9464"])
        assert not args.as_json

    def test_fetches_metrics_from_live_endpoint(self, catalog_path, capsys):
        import asyncio
        import threading

        from repro.fragments.fragmenters import cut_matching
        from repro.obs import MetricsServer, Tracer
        from repro.service.server import ServiceHost

        tree = parse_xml_file(catalog_path)
        host = ServiceHost(tracer=Tracer())
        host.register("shop", cut_matching(tree, "department"))
        started = threading.Event()
        box = {}

        def run_endpoint():
            async def scenario():
                box["stop"] = asyncio.Event()
                box["loop"] = asyncio.get_running_loop()
                server = await MetricsServer(host, port=0).start()
                box["port"] = server.port
                started.set()
                await box["stop"].wait()
                await server.stop()

            asyncio.run(scenario())

        thread = threading.Thread(target=run_endpoint, daemon=True)
        thread.start()
        assert started.wait(timeout=10.0)
        try:
            assert main(["stats", f"127.0.0.1:{box['port']}"]) == 0
            assert "repro_requests_total" in capsys.readouterr().out
            assert main(["stats", f"http://127.0.0.1:{box['port']}", "--json"]) == 0
            assert '"documents"' in capsys.readouterr().out
        finally:
            box["loop"].call_soon_threadsafe(box["stop"].set)
            thread.join(timeout=10.0)


class TestGenerateCommand:
    def test_generate_to_file_and_requery(self, tmp_path, capsys):
        output = tmp_path / "sites.xml"
        assert main([
            "generate", "--bytes", "20000", "--sites", "2",
            "--seed", "3", "--output", str(output),
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        tree = parse_xml_file(output)
        assert tree.root.tag == "sites"
        # The generated file is itself queryable through the CLI.
        assert main(["query", str(output), "/sites/site/people/person",
                     "--fragment-size", "200"]) == 0

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--bytes", "5000", "--sites", "1"]) == 0
        assert "<sites>" in capsys.readouterr().out
