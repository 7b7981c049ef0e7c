"""Builders shared by several test modules."""

import numpy as np

from heatrect import lindblad
from heatrect.lindblad import Liouvillian, transition_op
from heatrect.spaces import SpaceLayout


def random_density(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def qutrit_rate_generator(tables) -> Liouvillian:
    """A qutrit under summed rate tables, built from operators: one
    |to><from| jump per positive rate, table by table."""
    layout = SpaceLayout.of(("D1", 3))
    return Liouvillian(layout, None, tuple(
        (table.get(*t), transition_op(layout, "D1", *t))
        for table in tables for t in lindblad._ALLOWED_TRANSITIONS if table.get(*t) > 0))
