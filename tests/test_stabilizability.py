"""The paper's stabilizability claim on the discrete stretching model.

Morris & Ozer (SIAM J. Control Optim. 52(4), 2014) show that the fully
dynamic piezoelectric beam under collocated voltage feedback is not
uniformly stabilizable: when the two stretching wave speeds are in an
integer ratio, modes of the two branches meet in frequency and one of each
meeting pair becomes unobservable from the electrodes, so its decay rate
vanishes.  Without that coincidence (and in the electrostatic model, which
has one branch) every mode the drive reaches keeps a mesh-independent decay
rate.

The model is the {v, q} block of the free-free single Euler-Bernoulli beam,
h/L = 0.1, with its rigid stretching and charge gauge deflated, and the
loop M x'' + g B B^T x' + K x = 0 closed with gain g = 2e-4; its
eigenvalues come from a dense eig at 16 to 128 elements.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from piezobeam.assembly import build_system
from piezobeam.materials import (
    Regime,
    Variant,
    stretching_wave_speeds,
)

from modelzoo import BEAM, make_spec

GAIN = 2e-4
MESHES = (16, 32, 64, 128)


def speed_ratio(mu):
    fast, slow = stretching_wave_speeds(replace(BEAM, mu=mu))
    return fast / slow


# c_fast / c_slow reaches 3 twice: once as mu falls and the charge wave
# becomes the fast one (mu near 0.075), once as mu grows and the stretching
# wave stays the fast one (mu near 3.04).  The first puts the fast wave's
# first mode on the slow wave's third.
MU_RATIO_3 = scipy.optimize.brentq(lambda mu: speed_ratio(mu) - 3.0, 0.01, 0.1)


def closed_loop(mu, n_elements, regime=Regime.FULL_MAGNETIC):
    """(lam, omega, gain, parity): the closed-loop eigenvalues with positive
    imaginary part, ascending; the open-loop frequencies; each open-loop
    mode's input gain B^T phi (phi M-normalised); and its parity under the
    reflection x -> L - x (+1 even, -1 odd)."""
    vspec = make_spec(Variant.SINGLE_EB, regime, beam=replace(BEAM, mu=mu))
    system = build_system(vspec, n_elements)
    dofs = system.class_dofs("stretching", "charge")
    M = system.M.toarray()[np.ix_(dofs, dofs)]
    K = system.K.toarray()[np.ix_(dofs, dofs)]
    B = system.B[dofs]
    Z = system.null_space()[dofs]
    P = scipy.linalg.null_space((M @ Z[:, np.any(Z != 0.0, axis=0)]).T)  # M-orthogonal to it
    M, K, B = P.T @ M @ P, P.T @ K @ P, P.T @ B
    m = len(M)
    A = np.block([[np.zeros((m, m)), np.eye(m)],
                  [-np.linalg.solve(M, K), -GAIN * np.linalg.solve(M, B @ B.T)]])
    lam = np.linalg.eigvals(A)
    lam = lam[lam.imag > 0.0]
    omega2, phi = scipy.linalg.eigh(K, M)
    shapes = P @ phi
    # The reflection reverses each field's nodes (dofs are node values).
    field = system.fields_of()[dofs]
    flip = np.concatenate([np.flatnonzero(field == k)[::-1] for k in np.unique(field)])
    parity = np.sign(np.einsum("ij,ij->j", shapes, shapes[flip]))
    return lam[np.argsort(lam.imag)], np.sqrt(omega2), (phi.T @ B)[:, 0], parity


def orders(values):
    """Observed orders log2(x(h) / x(h/2)) over successive mesh doublings."""
    values = np.asarray(values)
    return np.log2(values[:-1] / values[1:])


@pytest.fixture(scope="module")
def meeting_pairs():
    """Per mesh, the two closed-loop eigenvalues nearest pi c_fast / L, by
    frequency, at the mu where c_fast / c_slow = 3."""
    fast, _ = stretching_wave_speeds(replace(BEAM, mu=MU_RATIO_3))
    pairs = []
    for n in MESHES:
        lam = closed_loop(MU_RATIO_3, n)[0]
        pairs.append(lam[np.sort(np.argsort(np.abs(lam.imag - np.pi * fast))[:2])])
    return np.array(pairs)


def test_the_meeting_modes_split_at_second_order(meeting_pairs):
    split = np.abs(np.diff(meeting_pairs.imag, axis=1))[:, 0]
    assert np.all(orders(split) >= 1.8), orders(split)


def test_one_meeting_mode_loses_its_decay(meeting_pairs):
    # The slow wave's mode, the upper one of the pair (its higher wave
    # number overshoots more), decays ever slower; the two finest doublings
    # show the asymptotic order.  Its partner stays damped.
    slower, partner = -meeting_pairs[:, 1].real, -meeting_pairs[:, 0].real
    assert np.all(orders(slower)[-2:] >= 3.5), orders(slower)
    assert np.all(partner > 0.05), partner


@pytest.mark.parametrize("regime", [Regime.FULL_MAGNETIC, Regime.ELECTROSTATIC],
                         ids=lambda r: r.value)
def test_reached_modes_keep_their_decay(regime):
    # At mu = 0.5 no two modes meet: the lowest three odd modes' decay rates
    # hold to 5% from 32 to 128 elements and stay well clear of zero.
    rates = []
    for n in (32, 128):
        lam, omega, _, parity = closed_loop(0.5, n, regime)
        odd = omega[parity < 0][:3]
        rates.append([-lam[np.argmin(np.abs(lam.imag - w))].real for w in odd])
    coarse, fine = np.array(rates)
    assert np.all(np.abs(coarse / fine - 1.0) < 0.05), (coarse, fine)
    assert np.all(fine > 1e-3), fine


@pytest.mark.parametrize("regime", [Regime.FULL_MAGNETIC, Regime.ELECTROSTATIC],
                         ids=lambda r: r.value)
@pytest.mark.parametrize("mu", [0.5, MU_RATIO_3])
def test_even_modes_have_no_input_gain(mu, regime):
    # The electrodes sit at both ends, so a mode symmetric about the
    # midpoint gets no load: its gain is round-off of the largest gain.
    for n in MESHES:
        _, _, gain, parity = closed_loop(mu, n, regime)
        assert np.all(parity != 0.0)
        assert np.max(np.abs(gain[parity > 0])) <= 1e-9 * np.max(np.abs(gain)), n
