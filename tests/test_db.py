"""Tests for the ContainmentDatabase façade and the CLI."""

import pytest

from repro.db import ContainmentDatabase
from repro.datatree.builder import tree_from_spec
from repro.workloads import dblp

XML = """
<library>
  <shelf id="top">
    <book><title>Alpha</title><author>X</author></book>
    <book><title>Beta</title></book>
  </shelf>
  <shelf id="bottom">
    <box><book><title>Gamma</title></book></box>
  </shelf>
</library>
"""


class TestLoading:
    def test_load_xml(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        assert len(doc.tree) > 10
        assert db.document("lib") is doc

    def test_duplicate_name_rejected(self):
        db = ContainmentDatabase()
        db.load_xml(XML, name="lib")
        with pytest.raises(ValueError):
            db.load_xml(XML, name="lib")


class TestElementSets:
    def test_sets_are_cached(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        first = db.element_set(doc, "book")
        second = db.element_set(doc, "book")
        assert first is second
        assert len(first) == 3

    def test_missing_tag_gives_empty_set(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        assert len(db.element_set(doc, "nothing")) == 0


class TestQueries:
    def test_two_step_query(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        result = db.query(doc, "//shelf//title")
        titles = sorted(
            child.text
            for node in result
            for child in node.children
            if child.tag == "#text"
        )
        assert titles == ["Alpha", "Beta", "Gamma"]
        assert len(result.reports) == 1

    def test_three_step_query(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        result = db.query(doc, "//shelf//box//book")
        assert len(result) == 1
        assert result.reports and result.total_io >= 0

    def test_query_matches_navigation(self):
        db = ContainmentDatabase(buffer_pages=16)
        tree = dblp.generate_tree(num_publications=300, seed=7)
        doc = db.load_tree(tree, name="dblp")
        from repro.datatree.paths import PathQuery

        for path in ("//article//author", "//inproceedings//cite//label"):
            expected = sorted(PathQuery(path).evaluate_navigational(tree))
            got = sorted(node.code for node in db.query(doc, path))
            assert got == expected, path

    @pytest.mark.parametrize("path, expected", [
        ("//1a//b", ["x", "y"]),
        ("//ns:s//-t//.u", ["z"]),
        ("//1a/b", ["x"]),
    ])
    def test_every_parsed_tag_name_is_queryable(self, path, expected):
        # the parser reads <1a>, <ns:s>, <-t>, <.u> as elements; chains
        # of them run as joins, a child step through the extended branch
        db = ContainmentDatabase()
        doc = db.load_xml(
            "<r><1a><b>x</b><c><b>y</b></c></1a>"
            "<ns:s><-t><.u>z</.u></-t></ns:s></r>",
            name="names",
        )
        result = db.query(doc, path)
        texts = sorted(
            child.text for node in result for child in node.children
            if child.tag == "#text"
        )
        assert texts == expected

    def test_forced_direction(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        top_down = db.query(doc, "//shelf//box//book", direction="top-down")
        bottom_up = db.query(doc, "//shelf//box//book", direction="bottom-up")
        assert sorted(n.code for n in top_down) == sorted(
            n.code for n in bottom_up
        )

    def test_indexes_steer_the_planner(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        db.create_start_index(doc, "title")
        result = db.query(doc, "//book//title")
        assert result.reports[0].algorithm == "INLJN"

    def test_explain_text(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        text = db.explain(doc, "//shelf//book//title")
        assert text.count("step //") == 2
        assert "VPJ" in text

    def test_explain_names_the_direction_query_takes(self):
        """On a rare-tail document the header says bottom-up, with both
        estimates, and the pipeline agrees; the first join a bottom-up
        run takes is the last listed step, so only the others are
        marked."""
        from repro.join.pipeline import PathPipeline, plan_direction

        tree = tree_from_spec(
            ("root", [("a", [("b", [("rare", [])])])]
             + [("a", [("b", [])]) for _ in range(200)])
        )
        db = ContainmentDatabase()
        doc = db.load_tree(tree, name="rare")
        text = db.explain(doc, "//a//b//rare")
        header, steps = text.split("\n", 1)
        assert header == (
            "bottom-up order (estimated join input: top-down 603, "
            "bottom-up 404 codes); the run starts from the last step"
        )
        assert steps.count("re-planned at run time") == 1
        assert "step //a <| //b (base sets; re-planned" in steps
        assert "step //b <| //rare: " in steps
        sets, _props = db.step_inputs(doc, ["a", "b", "rare"])
        assert plan_direction([s.histogram for s in sets])[0] == "bottom-up"
        assert PathPipeline(db.bufmgr).execute(sets).direction == "bottom-up"

    def test_explain_top_down_header(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        header = db.explain(doc, "//shelf//book//title").splitlines()[0]
        assert header.startswith("top-down order (estimated join input: top-down ")
        assert "starts from the last step" not in header

    def test_explain_single_step_runs_no_join(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        assert db.explain(doc, "//book") == (
            "step //book: scans one set and runs no join"
        )

    @pytest.mark.parametrize("path", ["//shelf/book", "//book[title]"])
    def test_explain_rejects_extended_syntax(self, path):
        """``query`` runs these through XPath; explain has no plan for
        them and says which form it covers."""
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        assert len(db.query(doc, path)) > 0
        with pytest.raises(ValueError, match="//a//b//c"):
            db.explain(doc, path)


class TestUpdatesThroughDb:
    def test_insert_then_query(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        assert len(db.query(doc, "//shelf//book")) == 3
        shelf = next(doc.tree.iter_by_tag("shelf"))
        book = db.insert_element(doc, shelf, "book")
        db.insert_element(doc, book, "title")
        assert len(db.query(doc, "//shelf//book")) == 4

    def test_delete_then_query(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        victim = next(doc.tree.iter_by_tag("box"))
        removed = db.delete_element(doc, victim)
        assert removed >= 2
        assert len(db.query(doc, "//shelf//book")) == 2

    def test_update_maintains_start_index(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        index = db.create_start_index(doc, "book")
        shelf = next(doc.tree.iter_by_tag("shelf"))
        db.insert_element(doc, shelf, "book")
        # the pointer B+-tree is patched in place, not rebuilt, and the
        # query sees the 4th book through it
        assert db.create_start_index(doc, "book") is index
        assert len(db.query(doc, "//shelf//book")) == 4

    def test_documents_carry_the_one_encoding(self):
        from repro.core.update import UpdatableEncoding

        db = ContainmentDatabase()
        assert not hasattr(db, "codec")
        doc = db.load_xml(XML, name="lib")
        assert type(doc.updatable) is UpdatableEncoding
        assert doc.store.encoding is doc.updatable
        shelf = next(doc.tree.iter_by_tag("shelf"))
        db.insert_element(doc, shelf, "book")
        assert len(db.query(doc, "//shelf//book")) == 4


#: paths whose first non-name step a //name//name chain cannot run,
#: with that step as the error names it
NON_NAME_STEPS = [
    ("//a[b]", "a[b]"),
    ("//a[.//b]", "a[."),
    ("//a//*", "*"),
    ("//a[b]//c", "a[b]"),
    ("//a/b", "a/b"),
]


class TestCLI:
    @pytest.fixture()
    def xml_file(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(XML)
        return str(path)

    def test_encode(self, xml_file, capsys):
        from repro.__main__ import main

        assert main(["encode", xml_file, "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "PBiTree height" in out and "library" in out

    def test_query(self, xml_file, capsys):
        from repro.__main__ import main

        assert main(["query", xml_file, "//shelf//title"]) == 0
        out = capsys.readouterr().out
        assert out.count("<title>") == 3

    def test_query_step_lines_count_survivors(self, tmp_path, capsys):
        from repro.__main__ import main

        # one b under two nested a's: two pairs, one survivor per step
        path = tmp_path / "nested.xml"
        path.write_text("<r><a><a><b/></a></a><b/></r>")
        assert main(["query", str(path), "//a//b"]) == 0
        err = capsys.readouterr().err
        assert "# step 1: " in err and ", 1 survivors, " in err
        assert "# 1 matches" in err and " pairs" not in err

    def test_extended_query_step_lines_count_pairs(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "nested.xml"
        path.write_text("<r><a><b/><b/></a></r>")
        assert main(["query", str(path), "//a/b"]) == 0
        err = capsys.readouterr().err
        assert ", 2 pairs, " in err and "survivors" not in err

    def test_explain(self, xml_file, capsys):
        from repro.__main__ import main

        assert main(["query", "--explain", xml_file, "//shelf//book"]) == 0
        assert "plan" in capsys.readouterr().out

    @pytest.mark.parametrize("path", ["//shelf/book", "//book[title]"])
    def test_explain_extended_syntax_exits_2(self, xml_file, path, capsys):
        """No traceback and no empty plan: one error line, exit 2."""
        from repro.__main__ import main

        assert main(["query", "--explain", xml_file, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: explain covers")
        assert path in captured.err

    def test_explain_single_step(self, xml_file, capsys):
        from repro.__main__ import main

        assert main(["query", "--explain", xml_file, "//book"]) == 0
        assert "runs no join" in capsys.readouterr().out

    def test_stats(self, xml_file, capsys):
        from repro.__main__ import main

        assert main(["stats", xml_file]) == 0
        out = capsys.readouterr().out
        assert "coding space" in out and "occupancy" in out

    def test_save_and_image_query(self, xml_file, tmp_path, capsys):
        from repro.__main__ import main

        image = str(tmp_path / "lib.pbit")
        assert main(["save", xml_file, image]) == 0
        capsys.readouterr()
        assert main(["query", "--image", image, "//shelf//title"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3  # three titles

    def test_save_selected_tags(self, xml_file, tmp_path, capsys):
        from repro.__main__ import main

        image = str(tmp_path / "partial.pbit")
        assert main(["save", xml_file, image, "--tags", "book,title"]) == 0
        capsys.readouterr()
        assert main(["query", "--image", image, "//book//title"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    @pytest.mark.parametrize("path, step", NON_NAME_STEPS)
    def test_image_query_rejects_a_non_name_step(
        self, xml_file, tmp_path, capsys, path, step
    ):
        """An image holds one set per tag: a predicate, wildcard or
        child step has none to look up, so exit 2 naming the step."""
        from repro.__main__ import main

        image = str(tmp_path / "lib.pbit")
        main(["save", xml_file, image])
        capsys.readouterr()
        assert main(["query", "--image", image, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"step {step!r}" in captured.err

    def test_image_query_unknown_tag_fails_cleanly(
        self, xml_file, tmp_path, capsys
    ):
        from repro.__main__ import main

        image = str(tmp_path / "lib.pbit")
        main(["save", xml_file, image, "--tags", "book"])
        capsys.readouterr()
        assert main(["query", "--image", image, "//book//nothing"]) == 1
        err = capsys.readouterr().err
        assert "not in the image" in err and "(available: book)" in err

    def test_remote_query(self, capsys):
        from repro.__main__ import main
        from repro.service import QueryService, ServerThread

        db = ContainmentDatabase()
        db.load_xml(XML, name="lib")
        with ServerThread(QueryService(db)) as server:
            argv = ["query", "--remote", "lib", "//shelf//title",
                    "--port", str(server.port), "--tenant", "alice"]
            assert main(argv) == 0
            out, err = capsys.readouterr()
            assert len(out.strip().splitlines()) == 3
            assert "# 3 matches" in err
            argv[2] = "no-such-document"
            assert main(argv) == 1
            assert "# error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--image", "--fault-read-rate", "0.1"],
            ["--remote", "--fault-seed", "3"],
            ["--remote", "--buffer-pages", "8"],
            ["--explain", "--fault-torn-rate", "0.1"],
            ["--explain", "--image"],
            ["--image", "--remote"],
            ["--port", "7723"],
            ["--image", "--tenant", "alice"],
        ],
    )
    def test_query_flag_outside_its_source_exits_2(self, xml_file, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["query", xml_file, "//shelf//book", *argv])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["explain", "image-query", "remote-query"])
    def test_folded_query_commands_are_gone(self, xml_file, command, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main([command, xml_file, "//shelf//book"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_extended_query_through_cli(self, xml_file, capsys):
        from repro.__main__ import main

        assert main(["query", xml_file, "//shelf/book"]) == 0
        out = capsys.readouterr().out
        assert out.count("<book>") == 2  # boxed book excluded

    def test_update_bench(self, tmp_path, capsys):
        import json

        from repro.__main__ import main
        from repro.obs.export import validate_bench_summary

        out_path = tmp_path / "BENCH_updates.json"
        assert main([
            "update-bench", "--updates", "120", "--nodes", "80",
            "--bench-out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        # a header and one row: there is one encoding
        assert len(out.splitlines()) == 2
        summary = json.loads(out_path.read_text())
        assert validate_bench_summary(summary) == []
        assert summary["metrics"]["updates.operations"] == 120.0
        assert [row["name"] for row in summary["algorithms"]] == ["updates"]

    def test_traced_bench(self, tmp_path, capsys):
        """A traced line-up writes a BENCH summary that validates, span
        JSON lines and a metrics dump."""
        import json

        from repro.__main__ import main
        from repro.obs.__main__ import main as validate
        from repro.obs.export import spans_from_jsonl

        trace, metrics, bench = (
            tmp_path / name for name in ("trace.jsonl", "metrics.json", "BENCH.json")
        )
        assert main([
            "--trace", "--trace-out", str(trace), "--metrics-out", str(metrics),
            "bench", "--dataset", "MSSL", "--large", "2000",
            "--buffer-pages", "20", "--bench-out", str(bench),
        ]) == 0
        assert validate([str(bench)]) == 0
        assert spans_from_jsonl(trace.read_text())
        assert json.loads(metrics.read_text())
        assert len(json.loads(bench.read_text())["algorithms"]) == 5
        capsys.readouterr()

    def test_update_bench_has_no_codec_option(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["update-bench", "--codec", "pbitree"])
        assert exc.value.code == 2
        assert "--codec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,field",
        [
            (["--updates", "-3"], "updates"),
            (["--insert-ratio", "1.5"], "insert_ratio"),
            (["--hotspot", "-1"], "hotspot"),
            (["--nodes", "0"], "nodes"),
            (["--buffer-pages", "0"], "buffer_pages"),
        ],
    )
    def test_update_bench_bad_arguments_fail_cleanly(self, extra, field, capsys):
        from repro.__main__ import main

        assert main(["update-bench", "--updates", "5", "--nodes", "20", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must be")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--algorithms", "SHCJ"], "SHCJ requires a single-height"),
            (["--algorithms", ","], "at least one algorithm"),
            (["--dataset", "SLSL", "--small", "0"], "--small 0: set sizes"),
            (["--dataset", "SLSL", "--small", "-3"], "--small -3: set sizes"),
            (["--dataset", "MLSH", "--large", "0"], "--large 0 --small"),
            (["--dataset", "MLSH", "--large", "-2"], "--large -2 --small"),
            (["--dataset", "SLLH", "--large", "0"], "--large 0 --small"),
        ],
    )
    def test_bench_bad_arguments_fail_cleanly(self, extra, message, capsys):
        """A bad value is an ``error:`` line and exit 1, not a traceback
        and not a traceback."""
        from repro.__main__ import main

        argv = ["bench", "--dataset", "MSSL", "--large", "300", "--small", "60"]
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""


class TestReferenceCounting:
    def test_dropped_database_is_freed_without_the_cycle_collector(self):
        """Neither the disk nor the document store sits in a reference
        cycle: a dropped database and document are freed at once."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            db = ContainmentDatabase(buffer_pages=4, page_size=128)
            doc = db.load_xml(XML, name="lib")
            db.query(doc, "//shelf//title")
            node = db.insert_element(doc, 1, "title")
            db.query(doc, "//shelf//title")
            db.delete_element(doc, node)
            db.query(doc, "//shelf//title")
            disk, store = weakref.ref(db.disk), weakref.ref(doc.store)
            del db, doc
            assert disk() is None and store() is None
        finally:
            gc.enable()


class TestIOVisibility:
    def test_io_stats_property(self):
        db = ContainmentDatabase(buffer_pages=4, page_size=128)
        tree = tree_from_spec(
            ("r", [("a", [("b", [])]) for _ in range(200)])
        )
        doc = db.load_tree(tree, name="big")
        db.query(doc, "//a//b")
        assert db.io_stats.total >= 0
        assert "ContainmentDatabase" in repr(db)
