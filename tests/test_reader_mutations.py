"""Every reader, fed a valid document with one change, loads it or raises
its own error, never a bare builtin one.

A change drops a value, replaces it (with another JSON type, NaN, an
infinity, a negative or a huge number), cuts a string or list short,
nests it deeply, or truncates the whole text. GML and LP text are changed
token by token, since neither is JSON.
"""

import copy
import functools
import json
import math
import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from entflow.hypergraph import FidelityGrid, Hypergraph, HypergraphError, build_pruned_hypergraph
from entflow.lp import LPError, export_lp, formulate_lp, parse_lp
from entflow.orchestrator import (
    CacheError,
    PlannerConfig,
    load_cache,
    outer_loop_update,
    save_cache,
)
from entflow.physics import DEFAULT_NOISE
from entflow.topology import (
    Edge,
    Topology,
    TopologyParseError,
    TopologyValidationError,
    load_gml,
    load_topology,
)

# what a change may write in place of a value: as an object, and as JSON text
VALUES = (None, True, "abc", "", [], {}, [1.5], {"x": 1}, 0, -1, 2.5, -1e300, 1e308, 10**400,
          math.nan, math.inf, -math.inf)
FRAGMENTS = (*(json.dumps(v) for v in VALUES), "1" + "0" * 5000)  # more digits than int() reads
DEPTHS = (1, 3, 5000)
_SENTINEL = "\x00changed\x00"


def _locations(doc, at=()):
    """The path of every value inside the JSON tree ``doc``."""
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield (*at, key)
        yield from _locations(value, (*at, key))


@st.composite
def mutants(draw, doc: dict, as_text: bool = True):
    """``doc`` with one change, as JSON text or, for a reader of objects, as an object."""
    doc = copy.deepcopy(doc)
    *at, key = draw(st.sampled_from(list(_locations(doc))))
    parent = functools.reduce(operator.getitem, at, doc)
    value = parent[key]
    ops = ("drop", "replace", "cut", "nest") + (("truncate",) if as_text else ())
    op = draw(st.sampled_from(ops))
    depth = draw(st.sampled_from(DEPTHS)) if op == "nest" else 0
    if op == "cut" and isinstance(value, (str, list)):
        value = value[: draw(st.integers(0, len(value)))]
    if op == "replace":
        new = draw(st.sampled_from(FRAGMENTS if as_text else VALUES))
    elif as_text:
        new = "[" * depth + json.dumps(value) + "]" * depth
    else:
        new = functools.reduce(lambda inner, _: [inner], range(depth), value)
    if op == "drop":
        del parent[key]
    else:
        parent[key] = _SENTINEL if as_text else new
    if not as_text:
        return doc
    text = json.dumps(doc).replace(json.dumps(_SENTINEL), new)
    return text[: draw(st.integers(0, len(text) - 1))] if op == "truncate" else text


@st.composite
def token_mutants(draw, text: str, replacements: tuple[str, ...]):
    """``text``, whose tokens are separated by white space, with one token
    dropped, replaced, or swapped for a deeply nested GML block, or the
    whole text truncated."""
    tokens = text.split()
    i = draw(st.integers(0, len(tokens) - 1))
    op = draw(st.sampled_from(("drop", "replace", "nest", "truncate")))
    if op == "drop":
        del tokens[i]
    elif op == "replace":
        tokens[i] = draw(st.sampled_from(replacements))
    elif op == "nest":
        depth = draw(st.sampled_from(DEPTHS))
        tokens[i] = "[ x " * depth + "1" + " ]" * depth
    text = " ".join(tokens)
    return text[: draw(st.integers(0, len(text) - 1))] if op == "truncate" else text


def _loads_or_refuses(read, document, *errors):
    """``read(document)`` returns, or raises one of ``errors``."""
    try:
        read(document)
    except errors:
        pass


TOPOLOGY_DOC = {
    "defaults": {"r_local": 9000, "alpha": 0.2, "f0": 0.97},
    "nodes": ["a", "b", "c"],
    "edges": [{"u": "a", "v": "b", "length_km": 40.0},
              {"u": "b", "v": "c", "length_km": 25, "r_local": 11000, "alpha": 0.25, "f0": 0.99}],
}


@settings(max_examples=300, deadline=None)
@given(mutants(TOPOLOGY_DOC))
def test_topology_json_reader_refuses_a_changed_document_with_its_own_errors(text):
    _loads_or_refuses(load_topology, text, TopologyParseError, TopologyValidationError)


GML_TEXT = """
Creator "entflow" Version 1
graph [
  directed 0
  node [ id 0 label "alpha" graphics [ x 1.5 y -2 ] ]
  node [ id 1 label "beta" ]
  node [ id 2 label "gamma" ]
  edge [ source 0 target 1 length 40 ]
  edge [ source 1 target 2 LinkLabel "fiber" ]
  edge [ source 1 target 0 length 35 ]
]
"""
GML_TOKENS = ("abc", "-1", "0", "nan", "inf", "1e400", '"quoted"', "[", "]", "[ x 1 ]", "node")


@settings(max_examples=300, deadline=None)
@given(token_mutants(GML_TEXT, GML_TOKENS))
def test_gml_reader_refuses_a_changed_document_with_its_own_errors(text):
    _loads_or_refuses(load_gml, text, TopologyParseError, TopologyValidationError)


def _chain_build():
    return build_pruned_hypergraph(make_chain([50.0, 60.0]), FidelityGrid.uniform(8), DEFAULT_NOISE)


HYPERGRAPH_DOC = _chain_build().to_json()


@settings(max_examples=300, deadline=None)
@given(mutants(HYPERGRAPH_DOC, as_text=False))
def test_hypergraph_reader_refuses_a_changed_document_with_its_own_error(doc):
    _loads_or_refuses(Hypergraph.from_json, doc, HypergraphError)


def _cache_doc() -> dict:
    topo = Topology(list("abcd"), [Edge("a", "b", 50.0), Edge("b", "c", 60.0),
                                   Edge("c", "d", 40.0), Edge("a", "c", 90.0)])
    cache = outer_loop_update(topo, [("a", "d")], PlannerConfig(grid=FidelityGrid.uniform(8)))
    return json.loads(save_cache(cache))


CACHE_DOC = _cache_doc()


@settings(max_examples=300, deadline=None)
@given(mutants(CACHE_DOC))
def test_cache_reader_refuses_a_changed_document_with_its_own_error(text):
    _loads_or_refuses(load_cache, text, CacheError)


LP_TEXT = export_lp(formulate_lp(_chain_build(), "end-rate", f_lb=0.9))
LP_TOKENS = ("abc", "", "-1", "0", "nan", "inf", "-inf", "1e308", "1e999", "+", "<=", "r_x")
# indexes at, just below and far above the text's length, with leading zeros,
# and with more digits than int() reads
LP_INDEXES = ("r_0", "r_000", f"r_{len(LP_TEXT) - 1}", f"r_{len(LP_TEXT)}",
              f"r_{len(LP_TEXT) * 10**6}", "r_" + "1" + "0" * 4999, "r_" + "0" * 4999 + "7")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@st.composite
def lp_mutants(draw):
    """``LP_TEXT`` with one line dropped, one number or one variable on a
    line replaced, or the text truncated."""
    lines = LP_TEXT.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(("drop", "replace", "index", "truncate")))
    if op == "drop":
        del lines[i]
    elif op in ("replace", "index"):
        tokens = lines[i].split(" ")
        test, new = ((_is_number, LP_TOKENS) if op == "replace" else
                     (lambda tok: tok.startswith("r_"), LP_INDEXES))
        found = [j for j, tok in enumerate(tokens) if test(tok)]
        if found:
            tokens[draw(st.sampled_from(found))] = draw(st.sampled_from(new))
        lines[i] = " ".join(tokens)
    text = "\n".join(lines) + "\n"
    return text[: draw(st.integers(0, len(text) - 1))] if op == "truncate" else text


@settings(max_examples=300, deadline=None)
@given(lp_mutants())
def test_lp_text_reader_refuses_a_changed_document_with_its_own_error(text):
    _loads_or_refuses(parse_lp, text, LPError)
