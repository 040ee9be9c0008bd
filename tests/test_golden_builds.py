"""Golden digests of pruned builds, so builder speedups cannot change its output.

Each digest is the sha256 of the build's JSON document with
``build_time_s`` removed, recorded before the builder was optimized,
together with the number of as-printed clamp events the build raised.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import make_chain
from entflow.hypergraph import FidelityGrid, build_pruned_hypergraph
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
