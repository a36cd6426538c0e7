"""Tree-structured data model, XML parsing and path queries."""

from .builder import random_tree, tree_from_spec
from .node import DataTree, NodeView, is_element_tag
from .paths import brute_force_join, select_by_tag
from .serialize import to_xml
from .xml_parser import XMLSyntaxError, parse_xml
from .xpath import Predicate, Step, XPath, XPathSyntaxError

__all__ = [
    "DataTree",
    "NodeView",
    "is_element_tag",
    "random_tree",
    "tree_from_spec",
    "brute_force_join",
    "select_by_tag",
    "to_xml",
    "parse_xml",
    "XMLSyntaxError",
    "XPath",
    "XPathSyntaxError",
    "Step",
    "Predicate",
]
