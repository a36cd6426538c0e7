"""Shared inputs and :class:`~repro.join.base.JoinReport` comparison
for the differential suites.

"Field-for-field identical reports" is the house standard every
execution mode is held to; wall time and the attached span tree are the
only fields allowed to differ between two runs of the same join.
"""

import dataclasses
import random

from repro import binarize, random_tree
from repro.core import pbitree as pt


def lineup_inputs(single_height=False):
    """``(a_codes, d_codes, tree_height)`` small enough to run a whole
    line-up in milliseconds, large enough to spill an 8-page pool of
    128-byte pages.  ``single_height`` keeps only the modal ancestor
    height (the SHCJ line-up's precondition)."""
    tree = random_tree(300, max_fanout=5, seed=23)
    encoding = binarize(tree)
    rng = random.Random(9)
    a_codes = rng.sample(tree.codes, 160)
    d_codes = rng.sample(tree.codes, 200)
    if single_height:
        heights = [pt.height_of(c) for c in a_codes]
        modal = max(set(heights), key=heights.count)
        a_codes = [c for c in a_codes if pt.height_of(c) == modal]
    return a_codes, d_codes, encoding.tree_height


def normalize(report):
    """Strip the only fields legitimately run-dependent."""
    return dataclasses.replace(report, wall_seconds=0.0, trace=None)


def assert_reports_equal(actual, expected, context=""):
    assert normalize(actual) == normalize(expected), (
        f"{expected.algorithm} diverges {context}".rstrip()
    )


def assert_lineups_equal(actual, expected, context=""):
    """Same algorithms, same result count, equal reports, in order."""
    assert actual.result_count == expected.result_count, context
    assert [r.name for r in actual.results] == [r.name for r in expected.results]
    for a_result, e_result in zip(actual.results, expected.results):
        assert_reports_equal(a_result.report, e_result.report, context)
