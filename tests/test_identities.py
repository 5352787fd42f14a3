"""Cross-path identities: one number from two independent routes.

A convention error that a fast path shares with its own oracle passes both;
an identity between two modules that compute the same physical number by
different routes catches it.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ricemele import ModelParams, build_hamiltonian, sweep_qubit_energy
from ricemele.fitting import model_anticrossing_gap
from ricemele.model import gap_edges


# Sweep <-> fit. model_anticrossing_gap roots the secular equation of the
# qubit against the bare waveguide block's eigenmodes; sweep_qubit_energy
# runs a dense eigh of the whole chain and qubit. Both give the smallest
# spacing of the in-gap levels at one VQ. Over VQ from -30 to 60 MHz they
# agreed to 5.5e-13 MHz on the fitted device and 1.7e-13 MHz on fig1.
@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(1, 6),
    t1=st.floats(20.0, 300.0),
    t2=st.floats(20.0, 300.0),
    v=st.floats(10.0, 100.0),
    v_sign=st.sampled_from([-1.0, 1.0]),
    vm=st.floats(-300.0, 300.0),
    tq=st.floats(1.0, 200.0),
    where=st.floats(0.25, 0.75),
)
def test_sweep_gap_is_the_secular_gap(p, t1, t2, v, v_sign, vm, tq, where):
    params = ModelParams(p=p, V=v_sign * v, t1=t1, t2=t2, tQ=tq, VQ=0.0, VM=vm)
    block = build_hamiltonian(params).matrix.real[:-1, :-1]   # Q is the last site
    lower, upper = gap_edges(np.linalg.eigvalsh(block), params.V, t1, t2)
    vq = float(lower + where * (upper - lower))
    sweep = sweep_qubit_energy(params, [vq])
    levels = sweep.eigenvalues[0].real
    # the sweep counts the levels inside the far-detuned gap, the secular
    # kernel those inside the bare block's, each without a level within
    # rounding of an edge; draws where the two gaps hold different levels
    # are skipped
    in_gap = sweep.in_gap[0]
    assume(in_gap.sum() == np.sum((levels > lower + 1e-9) & (levels < upper - 1e-9)) >= 2)
    dense = float(np.min(np.diff(np.sort(levels[in_gap]))))
    assert abs(model_anticrossing_gap(params, vq) - dense) <= 1e-9
