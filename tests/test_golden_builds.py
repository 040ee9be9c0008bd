"""Golden digests of builds, so builder changes cannot change their output.

Each digest is the sha256 of the build's JSON document with
``build_time_s`` removed, together with the number of as-printed clamp
events the build raised. The pruned digests were recorded before the
pruned builder was optimized; the standard and synthesis digests before
the builders emitted their edges as columns.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import make_chain, make_topology
from entflow.hypergraph import (
    FidelityGrid,
    build_pruned_hypergraph,
    build_standard_hypergraph,
    synthesize_multipath,
)
from entflow.physics import CLAMP_EVENTS, DEFAULT_NOISE

# (chain seed, chain nodes, purify model, grid size) -> (sha256, clamp events)
GOLDEN = {
    (0, 3, "ideal-dejmps", 60): ("9bf48f6623f31a6a740d030d05b9ae858b8e8bd189738f30da9835bd36ff882b", 0),
    (0, 3, "ideal-dejmps", 100): ("5afe3f6d62efb09b788433e50535e5c44569b86111dab05356ace125cfd44018", 0),
    (0, 3, "as-printed", 60): ("a8207e0acfe0b35a8fc1aee1c6a769194212edebe9cf06a3f86ed8f56b22f41a", 3),
    (0, 3, "as-printed", 100): ("a5acda41cbb13d255078efe7102d1ee8600973ba89461555d35910a98593fabb", 3),
    (1, 4, "ideal-dejmps", 60): ("4a5192a79b4f8cd59bdbdfb247668a72497a220b377146b0590c2020e70239b8", 0),
    (1, 4, "ideal-dejmps", 100): ("ba108c1bd28565e623d40978597d20e84eaeefb4618ac9ff476eb0a40e1ab0b0", 0),
    (1, 4, "as-printed", 60): ("bd5bd314cd7c70d7480b0c9cde8fe609dadad6a1ad380592c417dbf12335e9a3", 6),
    (1, 4, "as-printed", 100): ("3e7b7de663ff6074b9a4084f04ac30eed0bb82d0eac85847a5d527deec94a0b5", 6),
    (2, 5, "ideal-dejmps", 60): ("714fdc24fd0c6ed7e5b0313bf21f4d5cfa63e9c267743c5e7729837f185151e7", 0),
    (2, 5, "ideal-dejmps", 100): ("81c072a452cfd5075be9d486f0ffeaa84f2c222ca9a2d4be2a925744d8966cb3", 0),
    (2, 5, "as-printed", 60): ("740cf4d0569888810770af0fc53660a642c680503a7aa5ddd104f3fabe674896", 10),
    (2, 5, "as-printed", 100): ("d5745c6dab95cb4ca79bdc7d64b5fbcb970e1b10850a828c390d76b9922a0fd2", 10),
    (3, 6, "ideal-dejmps", 60): ("9625baea897bbbb95206a8b5c938ddf48412c896e378968a69b42335c9603e18", 0),
    (3, 6, "ideal-dejmps", 100): ("5b65205aa9b887418f895eecada1052090cc71045c843a8fb1b8f4042ac8bc31", 0),
    (3, 6, "as-printed", 60): ("5af6d2c4c6b2153b8aad14068889c351efab62f426e4ae20a40f1ac443eeac3a", 15),
    (3, 6, "as-printed", 100): ("6d41d553d378be904fb6f991ba21f0c0660f7c11fc5f6aa0447fbf58828b0f5f", 15),
    (4, 7, "ideal-dejmps", 60): ("a2dbef88c2f4e245478a9d0bd44a071049ee26cd720ef6d27970612f7144b44a", 0),
    (4, 7, "ideal-dejmps", 100): ("3a8aca5b2527ec8d628dae771e1e4210602f890afd36cc504997ffd5af311202", 0),
    (4, 7, "as-printed", 60): ("41cc82377f077a83832c3da1cb904c0d5ca289005e71b8528f3c4cedeb50dc17", 21),
    (4, 7, "as-printed", 100): ("a3dbffbcba8bcf6151749e0140d41119de137af546632a954d18e3d02ed04736", 21),
}


# standard builds, keyed as GOLDEN
GOLDEN_STANDARD = {
    (0, 3, "ideal-dejmps", 20): ("35267fdb6317e7328068cfdbc9c99c4e98590cd9d0fc17b0d356580530b3af6d", 0),
    (0, 3, "ideal-dejmps", 60): ("348f23524628a225d0b1afcddc16d1dc239fe2869d478571a6c75648abc540c4", 0),
    (0, 3, "as-printed", 20): ("3179842c46b200758f130458796ea448aaab80bf3303010743853aa58ebbeffb", 400),
    (0, 3, "as-printed", 60): ("31f98efe0f4a2d3f19ee8131af96dccec56699d1cb97082f4279f778fd9eda4f", 3600),
    (1, 4, "ideal-dejmps", 20): ("158b44a89bb464250820c960581bc68240e8d4d0348874583b4abd398f081849", 0),
    (1, 4, "ideal-dejmps", 60): ("ac84e8766098baa962317c5e79fa328d2d499fd09f7f5d52460479e131dc722d", 0),
    (1, 4, "as-printed", 20): ("eff3a35693cfe2c6aea944201d4ac6d14b040a2aeea01ff6588eefe9c4cf1119", 400),
    (1, 4, "as-printed", 60): ("6c9f93ddb0911199a7ea100dd003c4ade03d8c0aa7c65018ae7732656176ad04", 3600),
    (2, 5, "ideal-dejmps", 20): ("e7030f66673e267aa9f1190c569c3756d395bbb4a736098ec0bf20b571e9f6ef", 0),
    (2, 5, "ideal-dejmps", 60): ("42b750bc2bf2abe7abe0e947fa5371fd329fc83c0f05b8473c6e67846a277208", 0),
    (2, 5, "as-printed", 20): ("192ba470557ec7df5df3d28b54cf106ddc120f464e684afa77bafa59e96432b2", 400),
    (2, 5, "as-printed", 60): ("79b8044da81795dd527b8e636d6d4baea5fb2f104e20b474f001995defec5cf5", 3600),
}
# three pruned paths at grid 60, two of them sharing the link s-a
GOLDEN_SYNTHESIS = "ac53d22ef902ef06ccc659260e25c96f24157c3f31bb1c6ce8c5b37f2b9ff211"


@pytest.mark.parametrize("seed, nodes, model, size", sorted(GOLDEN))
def test_pruned_build_matches_golden_digest(seed, nodes, model, size):
    lengths = np.random.default_rng(seed).uniform(20.0, 150.0, size=nodes - 1)
    path = make_chain(lengths, name=f"g{seed}_")
    CLAMP_EVENTS.reset()
    hg = build_pruned_hypergraph(path, FidelityGrid.uniform(size), DEFAULT_NOISE, model)
    doc = hg.to_json()
    doc.pop("build_time_s")
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert (digest, CLAMP_EVENTS.count) == GOLDEN[(seed, nodes, model, size)]


def _digest(hg) -> str:
    doc = hg.to_json()
    doc.pop("build_time_s")
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("seed, nodes, model, size", sorted(GOLDEN_STANDARD))
def test_standard_build_matches_golden_digest(seed, nodes, model, size):
    lengths = np.random.default_rng(seed).uniform(20.0, 150.0, size=nodes - 1)
    path = make_chain(lengths, name=f"g{seed}_")
    CLAMP_EVENTS.reset()
    hg = build_standard_hypergraph(path, FidelityGrid.uniform(size), DEFAULT_NOISE, model)
    assert (_digest(hg), CLAMP_EVENTS.count) == GOLDEN_STANDARD[(seed, nodes, model, size)]


def test_synthesis_matches_golden_digest():
    topo = make_topology([("s", "a", 40.0), ("a", "d", 50.0), ("a", "b", 30.0),
                          ("b", "d", 35.0), ("s", "c", 60.0), ("c", "d", 45.0)])
    grid = FidelityGrid.uniform(60)
    paths = [["s", "a", "d"], ["s", "a", "b", "d"], ["s", "c", "d"]]
    hg = synthesize_multipath([
        build_pruned_hypergraph(topo.path_from_nodes(p), grid, DEFAULT_NOISE) for p in paths
    ])
    assert _digest(hg) == GOLDEN_SYNTHESIS
