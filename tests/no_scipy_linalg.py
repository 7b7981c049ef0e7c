"""Run a direct and a driven bridge-half solve and assert that neither loaded
SciPy's sparse or dense linear algebra.

Run it as a script, in a fresh process, against heatrect on the import path:

    PYTHONPATH=src python tests/no_scipy_linalg.py
"""

import sys

from heatrect import CircuitSpec, steady_state
from heatrect.lindblad import build_bridge_half_generators
from heatrect.observables import bath_current_functional

spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=2)
for gen, solver in zip(build_bridge_half_generators(spec), ("direct", "windowed-average")):
    res = steady_state(gen, bath_current_functional(gen, "right"))
    assert res.converged and res.solver == solver, res
loaded = [m for m in ("scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.linalg") if m in sys.modules]
assert not loaded, loaded
