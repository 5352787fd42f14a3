"""Cross-path identities: one number from two independent routes.

A convention error that a fast path shares with its own oracle passes both;
an identity between two modules that compute the same physical number by
different routes catches it.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from ricemele import (ModelParams, NumericalError, build_hamiltonian, far_detuned_gap, s_matrix,
                      sweep_qubit_energy)
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
# both gaps hold 3 levels here, but not the same ones (see the test below)
@example(p=1, t1=34.0, t2=20.0, v=14.0, v_sign=-1.0, vm=16.0, tq=103.0, where=0.5)
def test_sweep_gap_is_the_secular_gap(p, t1, t2, v, v_sign, vm, tq, where):
    params = ModelParams(p=p, V=v_sign * v, t1=t1, t2=t2, tQ=tq, VQ=0.0, VM=vm)
    block = build_hamiltonian(params).matrix.real[:-1, :-1]   # Q is the last site
    lower, upper = gap_edges(np.linalg.eigvalsh(block), params.V, t1, t2)
    vq = float(lower + where * (upper - lower))
    sweep = sweep_qubit_energy(params, [vq])
    levels = sweep.eigenvalues[0].real
    # the sweep flags the levels inside the far-detuned gap, the secular
    # kernel counts those inside the bare block's, each without a level
    # within rounding of an edge; draws where the two gaps hold different
    # levels are skipped (3, 13 and 5 of 1000 draws on seeds 0, 1 and 2)
    in_gap = sweep.in_gap[0]
    assume(np.array_equal(in_gap, (levels > lower + 1e-9) & (levels < upper - 1e-9)))
    assume(in_gap.sum() >= 2)
    dense = float(np.min(np.diff(np.sort(levels[in_gap]))))
    assert abs(model_anticrossing_gap(params, vq) - dense) <= 1e-9


# One band-gap rule, still open: the sweep takes its gap from the chain with
# the qubit parked at VM + 10 max(t1, t2, |V|, 1), the secular kernel from
# the bare waveguide block. On this draw the block's edges are (-41.857,
# 23.235) MHz, where its dense levels and model_anticrossing_gap agree to
# 2e-14 (25.362368 MHz at mid-gap), but the qubit parked at 356 MHz pulls a
# level across -E_b and far_detuned_gap gives (-22.705, 41.857).
@pytest.mark.xfail(strict=True, reason="the far-detuned gap is not the bare block's gap")
def test_far_detuned_gap_is_the_bare_block_gap():
    params = ModelParams(p=1, V=-14.0, t1=34.0, t2=20.0, tQ=103.0, VQ=0.0, VM=16.0)
    block = build_hamiltonian(params).matrix.real[:-1, :-1]
    lower, upper = map(float, gap_edges(np.linalg.eigvalsh(block), params.V, params.t1, params.t2))
    assert (lower, upper) == pytest.approx((-41.857, 23.235), abs=1e-3)
    gap = far_detuned_gap(params)
    assert (gap.lower, gap.upper) == pytest.approx((lower, upper), abs=1e-9)


def _split_g_lr(params, E):
    """G_LR = G[portL, portR] of the port-dressed chain at E, by eliminating
    build_hamiltonian's tridiagonal from both ports toward NL, the site left
    of M, with the qubit folded into M's diagonal as tQ^2 / (E - VQ). Each
    side's continued fraction (pivot_k = a_k - h^2 / pivot_{k-1}, a_k = E -
    H_kk, h the bond) gives its self-energy on NL and its transfer prod h /
    pivot, so G_LR = t_left t_right / (a_NL - sigma_left - sigma_right).
    s_matrix splits at M and adds the qubit there as a third self-energy
    instead. With lossy ports no pivot is 0 (Im pivot > 0). A single sweep
    from one port to the other crosses a half-chain in its unstable
    direction and loses up to 6 digits in the gap."""
    H = build_hamiltonian(params, include_ports=True)
    a = E - np.diag(H.matrix)[:H.roles.portR]
    a[H.roles.M - 1] -= params.tQ ** 2 / (E - params.VQ)
    h = np.diag(H.matrix, 1)[:H.roles.portR - 1]
    j = H.roles.NL - 1
    inv_g_jj, transfer = a[j], 1.0
    for bonds, diag in ((h[:j], a[:j]), (h[j:][::-1], a[j + 1:][::-1])):
        pivot = diag[0]
        for k in range(1, len(diag)):
            transfer *= bonds[k - 1] / pivot
            pivot = diag[k] - bonds[k - 1] ** 2 / pivot
        transfer *= bonds[-1] / pivot
        inv_g_jj -= bonds[-1] ** 2 / pivot
    return transfer / inv_g_jj


def _s_matrix_g_rl(params, E):
    """G_RL as s_matrix has it: S_RL / (i sqrt(Gamma_L Gamma_R))."""
    return s_matrix(params, E).S_RL / (1j * np.sqrt(np.prod(params.port_rates())))


# Reciprocity from two routes. s_matrix sets S_LR and S_RL from its one
# G_RL = t_L t_R G_MM, so criterion 4's |S_RL - S_LR| cannot fail; here G_LR
# comes from _split_g_lr instead. On 6000 random draws over these ranges the
# two agreed to 1.0e-13 relative, and the bound is 1e-10 relative. Rounding
# the entries of H moves a level by about n eps max|H|; where a resonance
# narrower than that sits at E, G is not fixed by the matrix in double
# precision, and each route lands anywhere on it (on p = 12, V = -100,
# t1 = t2 = 10, VM = 0 and Gamma = 0.01 at E = 0, s_matrix gives 100i, the
# exact G, and _split_g_lr 1e-22). So the bound adds 100 times the larger
# change of s_matrix's G_RL when E moves by n eps max|H| either way. Over
# 3e5 structured devices (t1, t2 in {10, 11, 150, 300} x {10, 20, 300}, V on
# a 5 MHz grid, E in {0, 1e-7, V, ...}, tQ = 0) and 20000 random draws, the
# excess over 1e-10 relative stayed within 4.0 times that change. Draws
# where s_matrix finds G singular are skipped. Dropping sigma_R from
# _chain_greens fails this test. The examples are draws on which one sweep
# from port to port was off by 2.6e-10, and s_matrix by 4.1e-10 of a
# 50-digit solve.
@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(1, 12),
    t1=st.floats(10.0, 300.0),
    t2=st.floats(10.0, 300.0),
    v=st.floats(-100.0, 100.0),
    vm=st.floats(-600.0, 600.0),
    tq=st.floats(0.0, 200.0),
    vq=st.floats(-200.0, 200.0),
    gamma_l=st.floats(0.01, 60.0),
    gamma_r=st.floats(0.01, 60.0),
    re_l=st.floats(-20.0, 20.0),
    e=st.floats(-800.0, 800.0),
)
@example(p=6, t1=10.0, t2=10.0, v=11.0, vm=0.0, tq=0.0, vq=1.0, gamma_l=1.0, gamma_r=1.0,
         re_l=0.0, e=0.0)
@example(p=7, t1=10.0, t2=10.0, v=9.0, vm=0.0, tq=0.0, vq=0.0, gamma_l=1.0, gamma_r=1.0,
         re_l=0.0, e=1.192092896e-07)
def test_s_matrix_g_rl_is_the_split_g_lr(p, t1, t2, v, vm, tq, vq, gamma_l, gamma_r, re_l, e):
    params = ModelParams(p=p, V=v, t1=t1, t2=t2, tQ=tq, VQ=vq, VM=vm,
                         sigmaL=complex(re_l, -gamma_l), sigmaR=-1j * gamma_r)
    h = build_hamiltonian(params, include_ports=True).matrix
    shift = len(h) * np.finfo(float).eps * np.abs(h).max()
    assume(abs(e - vq) > shift)
    try:
        g_rl = _s_matrix_g_rl(params, e)
        rounding = max(abs(_s_matrix_g_rl(params, e + shift) - g_rl),
                       abs(_s_matrix_g_rl(params, e - shift) - g_rl))
    except NumericalError:
        # G overflows: E lies within rounding of a level that no port sees
        reject()
    assert abs(_split_g_lr(params, e) - g_rl) <= 1e-10 * abs(g_rl) + 100.0 * rounding
