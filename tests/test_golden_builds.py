"""Golden digests of builds, so builder changes cannot change their output.

Each digest is the sha256 of the build's row document (the hypergraph's
JSON format before it became columns, rendered here by ``_digest``) with
``build_time_s`` removed, together with the number of as-printed clamp
events the build raised. The pruned digests were recorded before the
pruned builder was optimized; the standard and synthesis digests before
the builders emitted their edges as columns.

The planner and lattice digests (the first 16 hex digits of each) were
recorded from the sequential pruned builder before it scored each span's
swap candidates as arrays. Their paths have up to 9 nodes, where exact
(rate, fidelity) ties occur, so they also pin the builder's tie-break
order: a builder that visits the buckets of a block in sorted order
instead of insertion order changes four of the planner builds.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from conftest import make_chain, make_topology
from entflow import generate_gabriel
from entflow.hypergraph import (
    FidelityGrid,
    build_pruned_hypergraph,
    build_standard_hypergraph,
    synthesize_multipath,
)
from entflow.physics import CLAMP_EVENTS, DEFAULT_NOISE
from entflow.topology import k_shortest_paths

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

# pruned builds of the planner paths: per demand on generate_gabriel(40,
# seed=2), its 6 shortest paths by km in order, at grid 100
GOLDEN_PLANNER = {
    ("n11", "n39"): (
        "fbac131e336bc421", "a6f6604a6875a579", "7c9f8ade10670334",
        "98f5088a8381b107", "0374390dbf36bb61", "874ac4a3a4dee062",
    ),
    ("n14", "n32"): (
        "b5cd47ece886a8e0", "12967751fa15937e", "5eed603a2c6b2024",
        "33aebec08f2b49bb", "851677bc4bcac02e", "c461ba675778544c",
    ),
    ("n25", "n29"): (
        "557fe703e9ffe1ac", "388be2585fc7b175", "3f9d1697dda6ca86",
        "97e23d244f51b73e", "afbbafa9ebd7910d", "bc98710b81582a13",
    ),
    ("n38", "n9"): (
        "c4a7c348c0fad0cc", "6a22cfb78bb062b8", "778162ebf5e26a5b",
        "e9b2a816c92bed8a", "7f1fe773a498615e", "b210400a6c73880f",
    ),
    ("n0", "n37"): (
        "88534cc780105b7d", "27d2cc5f033d6adf", "76d6f92a8d71ee90",
        "e86352f6c27d3ad9", "ceadc5684fd061fc", "0ae7afa8cc027d32",
    ),
    ("n20", "n5"): (
        "28766728576350fd", "0e581f5c7b9d3f7e", "5ebbac2857be97f1",
        "e0b0e099af12fe51", "f2c1a05e1703bff2", "bc6734b150adfbcd",
    ),
    ("n24", "n7"): (
        "65da55caab008748", "21e32685e089ae03", "894e38243cff0dd4",
        "1f5202c87a9910de", "528ef3cf11bc20f6", "00c32bdc3f6c7bf6",
    ),
    ("n29", "n34"): (
        "1ce680118e5a3ea8", "1a0feb0ff91c51d9", "1bf8afa8e271858b",
        "b564a3310f5df553", "143e6abab7f1246c", "17e53ecc2404fc42",
    ),
    ("n0", "n39"): (
        "fa607a04bb0cb136", "d18913f0c238a25b", "d0727fac6c6bba14",
        "30ab97e282c684fe", "cf4a4fcfd9ded4bd", "12dc22a01d2d61f7",
    ),
    ("n1", "n6"): (
        "026a830978a06ea9", "8b8bd708af540c22", "3f11e4b502e54a8f",
        "26aaa2aff295e5ff", "76e31e909feea87b", "98581f314aa35b5c",
    ),
    ("n13", "n29"): (
        "264481449c09caaa", "43192cf1ab101976", "657c51d8a8e2137a",
        "b90a556ef983ed50", "0269dc649d4c6ba8", "6006a1d0f56e5941",
    ),
    ("n13", "n3"): (
        "41b3f9d513d0974b", "e11928d6f5b90fae", "a9aef4a2d58566f4",
        "76614317dff40773", "69d004f80fe9d006", "024f3198f0972ca0",
    ),
}
# pruned builds of 6-node chains at f0 0.98, grid 60: per seed, chains 0-5
# with lengths default_rng([seed, chain]).uniform(20, 150, size=5)
GOLDEN_LATTICE = {
    0: (
        "5d9e1e5510efbe9d", "f518a02291e075fb", "ef51deb95e2af27c",
        "c6fccbefb809e7cc", "10741fb29a748fc7", "858d4a57fde2ed85",
    ),
    1: (
        "3ec8fde24888ef72", "26666944896d9bf8", "e76ee62ded10f04c",
        "e9fbe27ab16f8844", "2040c11b4ed78f42", "fc1fa3f04f257e7a",
    ),
    2: (
        "552db4f07db47b86", "426b923c40f6f058", "8da5b4c12a0e15ea",
        "6411083381a671c0", "d901ef2bb6a9ddb4", "527ce60650f25d9e",
    ),
    3: (
        "f1a6a2d40a7e2358", "fe5fcd03193dc5c5", "dd6587c115b61985",
        "1c7450c92d317710", "00cc186bc43df9b5", "57e975ce214bcae4",
    ),
    4: (
        "cd287cc0013ebdca", "eebcb007a0bd49d6", "ff4ca0f060266ecf",
        "fe4b6d975da5861a", "04dcefbeb3efceff", "af8cc718bb0c8efe",
    ),
    5: (
        "797dc6bef2a69014", "2a24898b3d98f710", "06ca32dbb7364eda",
        "8c5653c1fb0b4f48", "e9c65e1e80eaf1d1", "62397985bbc6123c",
    ),
    6: (
        "a7762a2433db3297", "df4f75ec37892874", "2d0a1a54c4f7f1fd",
        "e23155a3d5cb86ac", "96e8a5f204b02c34", "bf494312f572cdbb",
    ),
    7: (
        "073698acdb7bb297", "1cb834c8e86903a5", "9da3294e5b9ceedc",
        "846a357ca6d94eff", "8a0b1de437017a69", "da3e969eabe27411",
    ),
    8: (
        "46b623f5763fda29", "4044c7972378df15", "f2c0d3b6a51b8a01",
        "b7fb2324cabec84f", "1d96d1d5f4c27ff3", "efe362ee7b31b650",
    ),
    9: (
        "600139d07bab37f0", "0f9ebfe1dd27aa26", "c78315681cd959a2",
        "4a27dbc43c0eebbb", "c15bd7b11b2b9fab", "0dc16e5c9335147f",
    ),
    10: (
        "f14b8a1dfcb21147", "af24ba127f984803", "91c3c9c51823a9a2",
        "912939bb1f4df93b", "985a94bca5ed6acf", "065d7950d6a88806",
    ),
    11: (
        "7922d1f7b9daa16d", "4c19ce3f048e763e", "0e0ab39c75105645",
        "23a078fd2257428b", "e9e97e514e64be70", "2b40316dd64f818e",
    ),
    12: (
        "88a67c5e4c0f1c95", "3218741a20c4e2e7", "8a45c10574d619e3",
        "f06225f0752d1542", "3f640d9ce4c11714", "41bee31555511178",
    ),
    13: (
        "8d3204e878cc4ab9", "12cc970907f7f6de", "9c4aa5a0e95a6a22",
        "3a22c072d368c755", "dcb6a5b1715306e3", "c4ae8ab9c254ee3c",
    ),
    14: (
        "1f7b61c50a22a4de", "cb371209a73401df", "0bd6021637f40a5a",
        "ae2650bbdf41c86a", "6a49f8c0bd1c34db", "0152d7228901a869",
    ),
    15: (
        "c998c1d1ba01cbc4", "326798629b11ebac", "1fa7e9e1b9d22678",
        "4c7796335fc0f5a2", "62a4b1585de5bfe6", "9a0e69cf141f1bf5",
    ),
    16: (
        "12c050bde45c10b7", "53ac6c5811881ab4", "b5cc4d42e562e393",
        "0bc18cba200f5294", "a2d847737ebadacb", "20dfe04a94c013cf",
    ),
    17: (
        "6d51986cf7043e69", "8ee0a616a00ae152", "d63261fabd220962",
        "4721e1ad64f56d30", "6a25ee9e1ff1716d", "f07dd77fd5a7f1ac",
    ),
    18: (
        "bda48234125a9c37", "50cd7e44b8e49fe0", "703fb7742f727e21",
        "472b4d3e48607185", "f0fffb649340e534", "6c1d30c4c1b16301",
    ),
    19: (
        "086d7e6789468e46", "7e19b850eef05156", "296244e881055147",
        "475e9190c8ad4334", "4a7d94569df6c57d", "6ba83aae6b7735f2",
    ),
}


def _digest(hg) -> str:
    """The sha256 of the build as the row document the digests were recorded
    from, without ``build_time_s``: per vertex (u, v, exact_fidelity,
    round-down bucket, kind) and per edge its ``HyperEdge`` fields."""
    cols = hg.columns
    bucket = np.searchsorted(hg.grid.as_array(), cols.exact_fidelity, side="right") - 1
    kind = ["source", "sink"] + ["link"] * (len(bucket) - 2)
    doc = {
        "version": 1, "builder": hg.builder, "purify_model": hg.purify_model,
        "endpoints": list(hg.endpoints), "grid": list(hg.grid.values), "noise": asdict(hg.noise),
        "link_limits": hg.link_limits,
        "vertices": list(zip(cols.u, cols.v, cols.exact_fidelity.tolist(), bucket.tolist(), kind)),
        "edges": list(hg.edges),  # each record and its inputs write as JSON lists
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("seed, nodes, model, size", sorted(GOLDEN))
def test_pruned_build_matches_golden_digest(seed, nodes, model, size):
    lengths = np.random.default_rng(seed).uniform(20.0, 150.0, size=nodes - 1)
    path = make_chain(lengths, name=f"g{seed}_")
    CLAMP_EVENTS.reset()
    hg = build_pruned_hypergraph(path, FidelityGrid.uniform(size), DEFAULT_NOISE, model)
    assert (_digest(hg), CLAMP_EVENTS.count) == GOLDEN[(seed, nodes, model, size)]


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


@pytest.fixture(scope="module")
def planner_topology():
    return generate_gabriel(40, seed=2)


@pytest.mark.parametrize("demand", list(GOLDEN_PLANNER), ids="-".join)
def test_planner_path_builds_match_golden_digests(planner_topology, demand):
    paths = k_shortest_paths(planner_topology, *demand, 6, "km")
    grid = FidelityGrid.uniform(100)
    digests = tuple(_digest(build_pruned_hypergraph(p, grid, DEFAULT_NOISE))[:16] for p in paths)
    assert digests == GOLDEN_PLANNER[demand]


@pytest.mark.parametrize("seed", sorted(GOLDEN_LATTICE))
def test_lattice_chain_builds_match_golden_digests(seed):
    grid = FidelityGrid.uniform(60)
    digests = []
    for chain in range(6):
        lengths = np.random.default_rng([seed, chain]).uniform(20.0, 150.0, size=5)
        path = make_chain(lengths, name=f"c{chain}_")
        digests.append(_digest(build_pruned_hypergraph(path, grid, DEFAULT_NOISE))[:16])
    assert tuple(digests) == GOLDEN_LATTICE[seed]
