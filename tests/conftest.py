import pytest

from cyclolab._arith import euler_phi


def _oracle_lattice(m, beta, scale):
    """The lattice `root_membership_oracle` searches at `scale`: one row
    per power zeta_m^i (i < phi(m)) and one for beta, each an identity part
    followed by the scaled real and imaginary parts of the point.  The
    oracle hands `lll_reduce` another basis of it (its reduced zeta block
    plus the beta row), so compare the two by `hnf`."""
    import mpmath as mp

    phi = euler_phi(m)
    with mp.workdps(len(str(scale)) + 25):
        pts = [mp.e ** (2j * mp.pi * i / m) for i in range(phi)] + [beta(mp)]
        return [[int(i == j) for j in range(phi + 1)]
                + [int(mp.nint(scale * z.real)), int(mp.nint(scale * z.imag))]
                for i, z in enumerate(pts)]


@pytest.fixture
def oracle_lattice():
    return _oracle_lattice
