"""Property tests on generated inputs: the DEJMPS kernel's fixed points and
symmetry, and ec-dp against the brute-force oracle.

The oracle test draws from criterion 3's generator ranges (2-3 equal
links of 30-120 km, f0 in [0.958, 0.985], 4-6 grid values) and holds
ec-dp to criterion 3's tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain
from entflow.hypergraph import FidelityGrid
from entflow.physics import dejmps
from entflow.strategies import brute_force_oracle, oracle_best_single, run_strategy

fidelity_arrays = st.lists(
    st.floats(min_value=0.5, max_value=1.0), min_size=1, max_size=40
).map(np.array)


@given(st.lists(st.sampled_from([0.5, 1.0]), min_size=1, max_size=40).map(np.array))
def test_dejmps_fixed_points(f):
    # two copies of the maximally mixed 0.5 or the perfect 1.0 state stay put
    f_out, p = dejmps(f, f)
    assert f_out.tobytes() == f.tobytes()
    assert np.array_equal(p, np.where(f == 1.0, 1.0, 5.0 / 9.0))


@given(st.data())
def test_dejmps_is_symmetric(data):
    f1 = data.draw(fidelity_arrays)
    f2 = data.draw(st.lists(st.floats(min_value=0.5, max_value=1.0),
                            min_size=len(f1), max_size=len(f1)).map(np.array))
    (a, pa), (b, pb) = dejmps(f1, f2), dejmps(f2, f1)
    np.testing.assert_array_max_ulp(a, b, maxulp=4)
    np.testing.assert_array_max_ulp(pa, pb, maxulp=4)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.floats(min_value=30.0, max_value=120.0),
    st.floats(min_value=0.958, max_value=0.985),
    st.integers(min_value=4, max_value=6),
)
def test_ec_dp_matches_the_oracle(links, length, f0, size):
    path = make_chain([length] * links, f0=f0)
    grid = FidelityGrid.uniform(size)
    code = run_strategy("ec-dp", path, grid).capacity
    mixture = brute_force_oracle(path, grid).capacity
    single, _, _ = oracle_best_single(path, grid)
    scale = max(1.0, mixture, single)
    assert code >= single - 1e-6 * scale
    assert abs(code - mixture) <= 1e-6 * scale
