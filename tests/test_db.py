"""Tests for the ContainmentDatabase façade and the CLI."""

import random

import pytest

from repro.db import ContainmentDatabase
from repro.datatree.builder import random_tree, tree_from_spec
from repro.workloads import dblp

from .oracles.navigate import navigate

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
        assert "nothing" not in doc.store.tags()

    def test_star_set_holds_elements_only(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        stored = db.element_set(doc, "*")
        tags = doc.tree.tags
        assert sorted(stored.to_list()) == sorted(
            doc.tree.codes[n] for n in range(len(tags))
            if not tags[n].startswith(("@", "#"))
        )
        nodes = db.query(doc, "//shelf//*")
        assert len(nodes) == 8
        assert not [n for n in nodes if n.tag.startswith(("@", "#"))]
        doc.store.verify("*")

    def test_star_set_patched_past_pseudo_nodes(self):
        """Inserts, relabels, growth and deletes around ``@id`` and
        ``#text`` nodes keep the stored ``*`` set to the elements."""
        db = ContainmentDatabase(buffer_pages=4, page_size=128)
        doc = db.load_xml(XML, name="lib")
        db.element_set(doc, "*")
        tree = doc.tree
        shelf = next(tree.iter_by_tag("shelf"))
        for index in range(40):
            db.insert_element(doc, shelf if index % 2 else 0, "book")
        db.insert_element(doc, shelf, "@id")
        db.delete_element(doc, next(tree.iter_by_tag("box")))
        doc.store.verify("*")
        alive = doc.updatable.is_alive
        for path in ("//*", "//shelf//*", "//library/*"):
            assert sorted(n.code for n in db.query(doc, path)) == sorted(
                tree.codes[n] for n in navigate(tree, path, alive)
            )


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
        for path in ("//article//author", "//inproceedings//cite//label"):
            expected = navigate(tree, path)
            got = sorted(node.id for node in db.query(doc, path))
            assert got == expected, path

    @pytest.mark.parametrize("path, expected", [
        ("//1a//b", ["x", "y"]),
        ("//ns:s//-t//.u", ["z"]),
        ("//1a/b", ["x"]),
    ])
    def test_every_parsed_tag_name_is_queryable(self, path, expected):
        # the parser reads <1a>, <ns:s>, <-t>, <.u> as elements; chains
        # of them run as joins, a child step as a parent-code equijoin
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

    @pytest.mark.parametrize("path, lines", [
        ("//shelf/book", ["step //shelf <| /book: SHCJ on the parent code"]),
        ("//book[title]", ["step //book <| [title]: SHCJ on the parent code"]),
        ("//shelf[.//author]/book", [
            "step //shelf <| [.//author]: cell ",
            "step //shelf[.//author] <| /book (base sets; re-planned at run "
            "time): SHCJ on the parent code",
        ]),
    ])
    def test_explain_lists_child_and_predicate_steps(self, path, lines):
        """Explain lists every step the pipeline runs: a child step or
        ``[t]`` joins on the parent code, a ``[.//t]`` is planned like
        any containment step, and each names what query then runs."""
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        result = db.query(doc, path)
        assert len(result) > 0
        text = db.explain(doc, path)
        for line in lines:
            assert line in text, (line, text)
        assert len(result.reports) == text.count("step /")


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

    def test_stale_answer_code_raises_instead_of_vanishing(self):
        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        box = next(doc.tree.iter_by_tag("box"))
        boxed = doc.tree.codes[box]
        # document order: the two shelved books, then the boxed one
        shelved = [view.code for view in db.query(doc, "//shelf//book")][:2]
        db.delete_element(doc, box)
        assert [view.code for view in db._decode(doc, shelved)] == shelved
        # every set a query reads is drained first, so a code of a
        # deleted node never reaches the decode; if one did, it fails
        with pytest.raises(TypeError):
            db._decode(doc, [boxed])

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


#: paths with a child step or ``[t]`` predicate: they join on parent
#: codes, which a saved image does not store
PARENT_MAP_PATHS = ["//shelf/book", "//book[title]", "//shelf[book]//title"]


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

    def test_child_step_lines_count_survivors(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "nested.xml"
        path.write_text("<r><a><b/><b/></a></r>")
        assert main(["query", str(path), "//a/b"]) == 0
        err = capsys.readouterr().err
        assert ", 2 survivors, " in err and " pairs" not in err

    def test_explain(self, xml_file, capsys):
        from repro.__main__ import main

        assert main(["query", "--explain", xml_file, "//shelf//book"]) == 0
        assert "plan" in capsys.readouterr().out

    @pytest.mark.parametrize("path", ["//shelf/book", "//book[title]"])
    def test_explain_extended_syntax_lists_its_steps(self, xml_file, path, capsys):
        from repro.__main__ import main

        assert main(["query", "--explain", xml_file, path]) == 0
        captured = capsys.readouterr()
        assert "SHCJ on the parent code" in captured.out
        assert captured.err == ""

    def test_explain_malformed_path_exits_2(self, xml_file, capsys):
        from repro.__main__ import main

        assert main(["query", "--explain", xml_file, "//book[title"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot parse '//book[title'")

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

    @pytest.mark.parametrize("path", PARENT_MAP_PATHS)
    def test_image_query_rejects_a_parent_code_step(
        self, xml_file, tmp_path, capsys, path
    ):
        """An image holds one set per tag and no parent map: a child
        step or ``[t]`` exits 2 naming what is missing."""
        from repro.__main__ import main

        image = str(tmp_path / "lib.pbit")
        main(["save", xml_file, image])
        capsys.readouterr()
        assert main(["query", "--image", image, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "parent map" in captured.err and path in captured.err

    def test_image_query_runs_descendant_predicates(
        self, xml_file, tmp_path, capsys
    ):
        from repro.__main__ import main

        image = str(tmp_path / "lib.pbit")
        main(["save", xml_file, image])
        capsys.readouterr()
        path = "//shelf[.//author]//title"
        assert main(["query", "--image", image, path]) == 0
        db = ContainmentDatabase()
        expected = [n.code for n in db.query(db.load_xml(XML), path)]
        assert capsys.readouterr().out.split() == [str(c) for c in expected]
        assert len(expected) == 2

    def test_image_query_has_no_wildcard_set(self, xml_file, tmp_path, capsys):
        from repro.__main__ import main

        image = str(tmp_path / "lib.pbit")
        main(["save", xml_file, image])
        capsys.readouterr()
        assert main(["query", "--image", image, "//shelf//*"]) == 1
        assert "element set '*' not in the image" in capsys.readouterr().err

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

    def test_traced_bench(self, tmp_path, capsys):
        """A traced line-up writes span JSON lines and a metrics dump."""
        import json

        from repro.__main__ import main
        from repro.obs.export import spans_from_jsonl

        trace, metrics = (tmp_path / name for name in ("trace.jsonl", "metrics.json"))
        assert main([
            "--trace", "--trace-out", str(trace), "--metrics-out", str(metrics),
            "bench", "--dataset", "MSSL", "--large", "2000",
            "--buffer-pages", "20",
        ]) == 0
        assert spans_from_jsonl(trace.read_text())
        assert json.loads(metrics.read_text())
        # a header and one row per line-up algorithm
        assert len(capsys.readouterr().out.splitlines()) == 6

    @pytest.mark.parametrize(
        "argv", [["update-bench"], ["bench", "--bench-out", "BENCH.json"]]
    )
    def test_bench_file_writers_are_gone(self, tmp_path, monkeypatch, argv, capsys):
        """The update storm and the BENCH file live in the perf ledger."""
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

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


def storm(db, document, seed):
    """Up to 30 seeded updates: 60 % inserts under a random live node,
    the rest deletes of a random live non-root subtree."""
    rng = random.Random(seed)
    alive = document.updatable.is_alive
    for _ in range(rng.randint(0, 30)):
        live = [node for node in range(len(document.tree)) if alive(node)]
        if rng.random() < 0.6 or len(live) < 3:
            db.insert_element(document, rng.choice(live), rng.choice("abc"))
        else:
            db.delete_element(document, rng.choice(live[1:]))


class TestExtendedPathsAfterUpdates:
    """Child steps and predicates after an update storm.  The second
    evaluator these paths used to take read deleted nodes' codes and
    never checked a predicate witness for liveness."""

    @pytest.mark.parametrize("seed, path, stale", [
        # a live <a> took the code of a deleted <b> (node 71)
        (2, "//*/b", 73),
        # node 10 has no live b child
        (4, "//a[b]", 10),
    ])
    def test_regression_seed(self, seed, path, stale):
        db = ContainmentDatabase()
        document = db.load_tree(random_tree(60, tags=("a", "b", "c"), seed=seed))
        storm(db, document, seed)
        got = sorted(node.id for node in db.query(document, path))
        assert stale not in got
        assert got == navigate(document.tree, path, document.updatable.is_alive)

    def test_sixty_storms(self):
        paths = ("//a/b", "//*/b", "//a[b]", "//a[.//b]", "//a//*",
                 "//a[b]//c", "//a/b/c", "//*[c]/b")
        for seed in range(60):
            db = ContainmentDatabase(buffer_pages=8, page_size=128)
            document = db.load_tree(
                random_tree(60, tags=("a", "b", "c"), seed=seed)
            )
            for path in paths:  # materialise the sets the storm patches
                db.query(document, path)
            storm(db, document, seed)
            alive = document.updatable.is_alive
            for path in paths:
                got = sorted(node.id for node in db.query(document, path))
                assert got == navigate(document.tree, path, alive), (seed, path)


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
