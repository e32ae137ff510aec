from fractions import Fraction
from math import gcd

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


def _marginal_reference(x, eps):
    """The `rows` and `full_group_fraction` of `marginal_orbit_stats`,
    recounted elementwise: each conjugate (t, r) x is built with exact
    `apply_galois` and evaluated on its own, over all units t and all
    Kummer rotations r, instead of read from the orbit values."""
    from cyclolab.radical import GaloisElement, _in_band, apply_galois

    ctx = x.context
    hsize = ctx.orbit_size()
    counts = {
        t: sum(bool(_in_band(abs(apply_galois(GaloisElement(t, r), x).evaluate()) ** 2, eps))
               for r in ctx.kummer_elements())
        for t in range(1, ctx.D + 1) if gcd(t, ctx.D) == 1
    }
    return {
        "rows": [{"t": t, "fraction": Fraction(c, hsize)} for t, c in counts.items()],
        "full_group_fraction": Fraction(sum(counts.values()), len(counts) * hsize),
    }


@pytest.fixture
def marginal_reference():
    return _marginal_reference
