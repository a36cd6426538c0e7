"""Every front door gives the same answer, or the same typed error.

One hypothesis differential over the whole path grammar (descendant
and child axes, ``[t]`` / ``[.//t]`` predicates, ``*``, and malformed
paths).  Each example draws a random tree, an optional seeded update
storm (patching the stored sets, or run before they are built) and a
random path, then asks:

* ``db.query``;
* an in-process :class:`~repro.service.QueryService`;
* the same service over TCP (``ServerThread`` + ``ServiceClient``);
* ``query --image`` over a saved image of the live element sets;
* the live-aware navigational oracle (``tests/oracles/navigate.py``).

All give the same codes, or the same typed error: a malformed path is
``XPathSyntaxError`` everywhere (exit 2 at the image door).  The image
door stores one set per tag and no parent map, so it answers only
descendant paths without ``*``; on a child step or ``[t]`` it exits 2
naming the parent map, and it has no ``*`` set (exit 1).

The CI ``update-chaos`` job reruns this module under its rotating seed
(``REPRO_CHAOS_SEED``), so the examples change from run to run.
"""

import contextlib
import io
import itertools
import os
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.__main__ import main
from repro.datatree.builder import random_tree
from repro.datatree.xpath import XPath, XPathSyntaxError
from repro.db import ContainmentDatabase
from repro.service import QueryService, ServerThread, ServiceClient
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.elementset import ElementSet
from repro.storage.persist import save_image

from .oracles.navigate import navigate

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

TAGS = ("a", "b", "c")
#: not paths of the grammar: each door must refuse them alike
MALFORMED = ("//a[b", "a//b", "//a[b=c]", "/a", "//", "//a]b", "")


def storm(db, document, rng, updates):
    """Seeded inserts (60 %) under random live nodes and deletes of
    random live non-root subtrees."""
    alive = document.updatable.is_alive
    for _ in range(updates):
        live = [node for node in range(len(document.tree)) if alive(node)]
        if rng.random() < 0.6 or len(live) < 3:
            db.insert_element(document, rng.choice(live), rng.choice(TAGS))
        else:
            db.delete_element(document, rng.choice(live[1:]))


@st.composite
def paths(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(MALFORMED))
    tag = st.sampled_from(TAGS + ("*",))
    text = ""
    for index in range(draw(st.integers(1, 3))):
        text += "//" if index == 0 or draw(st.booleans()) else "/"
        text += draw(tag)
        for _ in range(draw(st.integers(0, 1))):
            text += "[" + draw(st.sampled_from(["", ".//"])) + draw(tag) + "]"
    return text


@pytest.fixture(scope="module")
def doors(tmp_path_factory):
    """One database served in process and over TCP (each example loads
    its own document into it), the path each example's image is saved
    to, and the numbers that name the documents."""
    db = ContainmentDatabase(buffer_pages=16, page_size=256)
    service = QueryService(db, plan_cache_size=0)
    image = str(tmp_path_factory.mktemp("image") / "doc.pbit")
    with ServerThread(service) as server:
        with ServiceClient(port=server.port) as client:
            yield db, service, client, image, itertools.count()


def image_door(image, path):
    """``query --image``: (exit status, printed codes, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["query", "--image", image, path])
    return status, [int(line) for line in out.getvalue().split()], err.getvalue()


def save_live_sets(db, document, image):
    """An image of the document's live element sets, one per tag."""
    bufmgr = BufferManager(DiskManager(page_size=256), 8)
    sets = {
        tag: ElementSet.from_codes(
            bufmgr, db.element_set(document, tag).scan(), document.tree_height,
            name=tag,
        )
        for tag in TAGS
    }
    bufmgr.flush_all()
    save_image(bufmgr.disk, image, sets)


@seed(CHAOS_SEED)
@settings(max_examples=300, deadline=None)
@given(
    nodes=st.integers(1, 40),
    tree_seed=st.integers(0, 10_000),
    updates=st.integers(0, 30) | st.just(0),
    stored=st.booleans(),
    path=paths(),
)
def test_every_door_agrees(doors, nodes, tree_seed, updates, stored, path):
    db, service, client, image, numbers = doors
    name = f"doc{next(numbers)}"
    document = db.load_tree(random_tree(nodes, tags=TAGS, seed=tree_seed), name=name)
    if stored:
        # sets stored before the storm are patched by it; the others
        # are built from the updated encoding on first use
        for tag in TAGS + ("*",):
            db.element_set(document, tag)
    with service.exclusive(name):
        storm(db, document, random.Random(tree_seed), updates)
    save_live_sets(db, document, image)
    status, image_codes, image_error = image_door(image, path)
    reply = client.query_all(name, path)

    try:
        xpath = XPath(path)
    except XPathSyntaxError:
        with pytest.raises(XPathSyntaxError):
            db.query(document, path)
        with pytest.raises(XPathSyntaxError):
            service.execute("t", name, path)
        assert reply["status"] == "error"
        assert reply["error"].startswith("XPathSyntaxError: ")
        assert status == 2 and image_error.startswith("error: ")
        return

    tree = document.tree
    expected = sorted(
        tree.codes[node]
        for node in navigate(tree, xpath, document.updatable.is_alive)
    )
    assert [node.code for node in db.query(document, path)] == expected
    assert service.execute("t", name, path).codes == expected
    assert reply["status"] == "ok" and reply["codes"] == expected

    predicates = [p for step in xpath.steps for p in step.predicates]
    if "*" in xpath.tags + [p.tag for p in predicates]:
        assert status == 1 and "'*' not in the image" in image_error
    elif "child" in xpath.axes[1:] + [p.axis for p in predicates]:
        assert status == 2 and "parent map" in image_error
    else:
        assert status == 0 and image_codes == expected


#: a document with ``@id`` attribute and ``#text`` pseudo-nodes
LIBRARY = """
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


def test_star_selects_elements_only(doors):
    """``*`` skips the parser's ``@name`` and ``#text`` pseudo-nodes at
    every door (``//shelf//*`` returned ``@id`` and ``#text`` nodes
    when the ``"*"`` set held every node)."""
    db, service, client, _image, numbers = doors
    name = f"doc{next(numbers)}"
    document = db.load_xml(LIBRARY, name=name)
    tree = document.tree
    for path in ("//shelf//*", "//*", "//book/*", "//shelf[*]", "//*[.//*]//*"):
        expected = sorted(tree.codes[node] for node in navigate(tree, path))
        assert [node.code for node in db.query(document, path)] == expected
        assert service.execute("t", name, path).codes == expected
        assert client.query_all(name, path)["codes"] == expected
    tags = sorted(node.tag for node in db.query(document, "//shelf//*"))
    assert tags == ["author", "book", "book", "book", "box"] + ["title"] * 3


def test_absent_tags_leave_no_set_behind(doors):
    """A path naming a tag the document lacks answers empty and keeps
    nothing (500 such queries used to store 500 empty sets, each
    logging every later tree growth)."""
    db, service, client, _image, numbers = doors
    name = f"doc{next(numbers)}"
    document = db.load_tree(random_tree(200, tags=TAGS, seed=5), name=name)
    store = document.store
    db.query(document, "//a//b")
    kept = store.tags()
    for index in range(500):
        assert service.execute("t", name, f"//a//zz{index}").codes == []
    for path in ("//a//zz0", "//zz1//a", "//a/zz2", "//a[zz3]", "//a[.//zz4]//b"):
        assert db.query(document, path).nodes == []
        assert service.execute("t", name, path).codes == []
        reply = client.query_all(name, path)
        assert reply["status"] == "ok" and reply["codes"] == []
    assert store.tags() == kept
    # the tag appearing later is found from the live encoding
    tree = document.tree
    db.insert_element(document, next(tree.iter_by_tag("a")), "zz0")
    expected = sorted(
        tree.codes[node]
        for node in navigate(tree, "//a//zz0", document.updatable.is_alive)
    )
    assert len(expected) == 1
    assert [node.code for node in db.query(document, "//a//zz0")] == expected
    assert service.execute("t", name, "//a//zz0").codes == expected
