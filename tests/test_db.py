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

    def test_update_retires_interval_index(self):
        from repro.index import StaleIndexError

        db = ContainmentDatabase()
        doc = db.load_xml(XML, name="lib")
        index = db.create_interval_index(doc, "book")
        shelf = next(doc.tree.iter_by_tag("shelf"))
        db.insert_element(doc, shelf, "book")
        # static by contract: old reference raises, accessor rebuilds
        assert db.create_interval_index(doc, "book") is not index
        with pytest.raises(StaleIndexError):
            list(index.stab(1))
        assert len(db.query(doc, "//shelf//book")) == 4

    def test_codec_selection_per_database_and_document(self):
        db = ContainmentDatabase(codec="nested-intervals")
        doc = db.load_xml(XML, name="lib")
        assert type(doc.updatable).__name__ == "NestedIntervalEncoding"
        doc2 = db.load_xml(XML, name="lib2", codec="pbitree")
        assert type(doc2.updatable).__name__ == "UpdatableEncoding"
        for d in (doc, doc2):
            assert len(db.query(d, "//shelf//book")) == 3

    def test_updates_through_db_on_nested_intervals(self):
        db = ContainmentDatabase(codec="nested-intervals")
        doc = db.load_xml(XML, name="lib")
        shelf = next(doc.tree.iter_by_tag("shelf"))
        book = db.insert_element(doc, shelf, "book")
        db.insert_element(doc, book, "title")
        assert doc.updatable.stats.relabelled_nodes == 0
        assert len(db.query(doc, "//shelf//book")) == 4
        db.delete_element(doc, book)
        assert len(db.query(doc, "//shelf//book")) == 3


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

    def test_explain(self, xml_file, capsys):
        from repro.__main__ import main

        assert main(["explain", xml_file, "//shelf//book"]) == 0
        assert "plan" in capsys.readouterr().out

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
        assert main(["image-query", image, "//shelf//title"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3  # three titles

    def test_save_selected_tags(self, xml_file, tmp_path, capsys):
        from repro.__main__ import main

        image = str(tmp_path / "partial.pbit")
        assert main(["save", xml_file, image, "--tags", "book,title"]) == 0
        capsys.readouterr()
        assert main(["image-query", image, "//book//title"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_image_query_unknown_tag_fails_cleanly(
        self, xml_file, tmp_path, capsys
    ):
        from repro.__main__ import main

        image = str(tmp_path / "lib.pbit")
        main(["save", xml_file, image, "--tags", "book"])
        capsys.readouterr()
        assert main(["image-query", image, "//book//nothing"]) == 1
        assert "not in the image" in capsys.readouterr().err

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
        # one table row per registered codec, both backends present
        assert "pbitree" in out and "nested-intervals" in out
        summary = json.loads(out_path.read_text())
        assert validate_bench_summary(summary) == []
        assert summary["metrics"]["updates.pbitree.operations"] == 120.0

    def test_update_bench_unknown_codec(self, capsys):
        from repro.__main__ import main

        assert main(["update-bench", "--codec", "nope"]) == 1
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--workers", "0"], "workers must be >= 1"),
            (["--workers", "-2", "--shards", "2"], "workers must be >= 1"),
            (["--algorithms", "SHCJ"], "SHCJ requires a single-height"),
        ],
    )
    def test_bench_bad_arguments_fail_cleanly(self, extra, message, capsys):
        """A bad value is an ``error:`` line and exit 1, not a traceback
        and not a silent serial run."""
        from repro.__main__ import main

        argv = ["bench", "--dataset", "MSSL", "--large", "300", "--small", "60"]
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""


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
