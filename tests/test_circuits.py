import math
import re

import numpy as np
import pytest

from heatrect.circuits import (
    TOPOLOGIES,
    BathParams,
    CircuitSpec,
    CircuitTopology,
    Contact,
    Coupling,
    DiodeParams,
    bose_occupation,
)
from heatrect.lindblad import build_bridge_half_generators, build_generator, build_reduced_generator
from heatrect.spaces import (
    SpaceLayout,
    lowering_op,
    number_op,
    projector,
    raising_op,
)

SQ2 = math.sqrt(2.0)


def test_bose_occupation_values():
    assert bose_occupation(1.0) == pytest.approx(0.581977, abs=1e-6)
    assert bose_occupation(10.0) == pytest.approx(1.0 / math.expm1(10.0), rel=1e-15)
    assert bose_occupation(10.0) == pytest.approx(4.5400e-5, abs=1e-8)
    # T -> 0 empties the bath
    assert bose_occupation(700.0) < 1e-300
    with pytest.raises(ValueError):
        bose_occupation(0.0)
    with pytest.raises(ValueError):
        bose_occupation(-1.0)


def test_diode_params_defaults_and_warning():
    p = DiodeParams()
    assert (p.delta_omega, p.J, p.J_prime) == (300.0, 1.0, 0.5)
    with pytest.warns(UserWarning, match="delta_omega"):
        DiodeParams(delta_omega=10.0)
    with pytest.raises(ValueError):
        DiodeParams(delta_omega=-5.0)
    with pytest.raises(ValueError):
        DiodeParams(J_prime=-0.1)


def test_bath_params_occupation_or_temperature():
    # a bath stores its occupation; CircuitSpec.build takes it or a temperature
    assert BathParams(0.5).n == 0.5
    spec = CircuitSpec.build("parallel", n_left=0.5, T_right=1.0)
    assert spec.left_bath.n == 0.5
    assert spec.right_bath.n == bose_occupation(1.0)
    with pytest.raises(ValueError, match="exactly one of n_left or T_left"):
        CircuitSpec.build("parallel", n_right=0.0)
    with pytest.raises(ValueError, match="exactly one of n_right or T_right"):
        CircuitSpec.build("parallel", n_left=0.5, n_right=0.0, T_right=1.0)
    # T = 0 must not reach 1/T as a bare ZeroDivisionError
    for T in (0.0, -1.0):
        with pytest.raises(ValueError, match="T_left must be finite and positive"):
            CircuitSpec.build("parallel", T_left=T, n_right=0.0)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        BathParams(-0.5)
    with pytest.raises(ValueError):
        BathParams(0.5, Gamma=0.0)


def single_diode(**kwargs):
    """Full single-diode model with 3-level filters: H(t) on [L, D1, R]."""
    spec = CircuitSpec.build("single-diode", n_left=0.5, n_right=0.0, ho_truncation=3, **kwargs)
    return build_generator(spec)


def test_diode_hamiltonian_matrix_element():
    # <0_L, 2_D | H(t) | 1_L, 1_D> = sqrt(2) * (J + J' cos(dw t)), R in its ground state
    gen = single_diode()
    params = DiodeParams()
    h = gen.hamiltonian
    d_r = 3
    bra = (0 * 3 + 2) * d_r + 0   # |0_L, 2_D, 0_R>
    ket = (1 * 3 + 1) * d_r + 0   # |1_L, 1_D, 0_R>
    for t in (0.0, 0.3, 1.7):
        dense = h.at(t).matrix.toarray()
        expected = SQ2 * (params.J + params.J_prime * math.cos(params.delta_omega * t))
        assert dense[bra, ket] == pytest.approx(expected, abs=1e-12)


def test_diode_hamiltonian_hermitian_and_conserving():
    gen = single_diode()
    layout, h = gen.layout, gen.hamiltonian
    n_total = sum((number_op(layout, lbl) for lbl in ("L", "D1", "R")), start=0 * number_op(layout, "L"))
    for t in (0.0, 0.3, 1.7):
        dense = h.at(t).matrix.toarray()
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-12
        comm = h.at(t).matrix @ n_total.matrix - n_total.matrix @ h.at(t).matrix
        assert np.max(np.abs(comm.toarray())) < 1e-12


def test_diode_hamiltonian_requires_qutrit():
    blocks = ((("A", "oscillator"), ("D", "oscillator"), ("B", "oscillator")),)
    with pytest.raises(ValueError, match="qutrit"):
        CircuitTopology(blocks=blocks, couplings=(Coupling("A", "D", "D", modulated=True),))
    with pytest.raises(ValueError, match="qutrit"):
        CircuitTopology(blocks=blocks, contacts=(Contact("D", "left", modulated=True),))
    # a coupling is set by one of its own ends and stays within one block
    two = ((("A", "qutrit"),), (("B", "qutrit"), ("C", "qutrit")))
    with pytest.raises(ValueError, match="its qutrit end"):
        CircuitTopology(blocks=two, couplings=(Coupling("B", "C", "A", modulated=False),))
    with pytest.raises(ValueError, match="one block"):
        CircuitTopology(blocks=two, couplings=(Coupling("A", "B", "A", modulated=False),))


def test_no_drive_term_for_zero_modulation():
    assert single_diode(J_prime=0.0).hamiltonian.drive_terms == ()


def test_circuit_spec_validation():
    spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1)
    assert sorted(spec.diodes) == ["D1", "D2", "D3", "D4"]

    with pytest.raises(ValueError, match="needs diodes"):
        CircuitSpec(
            topology="parallel",
            diodes={"D1": DiodeParams()},
            left_bath=BathParams(0.5),
            right_bath=BathParams(0.0),
        )
    # non-finite values are refused when the spec is built, not at the solve
    for bad in (math.nan, math.inf):
        for name, kwargs in (("gamma_dec", {"gamma_dec": bad}), ("Gamma", {"Gamma": bad}),
                             ("^n", {"n_left": bad}), ("T_left", {"T_left": bad})):
            bias = {"n_left": 0.5} if "T_left" not in kwargs else {}
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                CircuitSpec.build("bridge", n_right=0.0, **{**bias, **kwargs})
    # a truncation that is not an integer >= 2 is refused by name; a NumPy
    # integer is an integer
    for bad in (1, True, 2.5, 4.0, "4"):
        with pytest.raises(ValueError, match="ho_truncation must be an integer >= 2"):
            CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=bad)
    assert CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=np.int64(3)).ho_truncation == 3
    # a bool or a non-number is refused by the name of its field, neither as a
    # bare TypeError nor through float(); NumPy reals pass
    for name, kwargs in (("J", {"J": True}), ("Gamma", {"Gamma": True}), ("gamma_dec", {"gamma_dec": True}),
                         ("n", {"n_left": True}), ("J", {"J": "1"}), ("J_prime", {"J_prime": None}),
                         ("delta_omega", {"delta_omega": {"D1": "300", "D2": 300.0}}),
                         ("delta_omega", {"delta_omega": "300"})):
        with pytest.raises(ValueError, match=f"^{name} must be finite and a real number"):
            CircuitSpec.build("series", **{"n_left": 0.5, "n_right": 0.0, **kwargs})
    for bad in (True, "1.0"):
        with pytest.raises(ValueError, match="^T_left must be finite and a real number"):
            CircuitSpec.build("series", T_left=bad, n_right=0.0)
    spec = CircuitSpec.build("series", n_left=np.float64(0.5), T_right=np.float32(1.0), J=np.int64(1),
                             delta_omega=np.float64(300.0), gamma_dec=np.float64(0.0))
    assert spec.left_bath.n == 0.5 and spec.right_bath.n == bose_occupation(1.0)
    for match, kwargs in (("^J must be positive", {"J": 0.0}),
                          ("^gamma_dec must be nonnegative", {"gamma_dec": -1e-3}),
                          (r"^missing delta_omega for diodes \['D2'\]", {"delta_omega": {"D1": 300.0}})):
        with pytest.raises(ValueError, match=match):
            CircuitSpec.build("series", **{"n_left": 0.5, "n_right": 0.0, **kwargs})
    # a topology is a key of TOPOLOGIES
    known = r"known: \['single-diode', 'parallel', 'series', 'bridge'\]"
    for bad in ("Bridge", ["bridge"]):
        with pytest.raises(ValueError, match=rf"^unknown topology {re.escape(repr(bad))}; {known}"):
            CircuitSpec.build(bad, n_left=0.5, n_right=0.0)
    with pytest.raises(ValueError, match=rf"^unknown topology 'diode'; {known}"):
        CircuitSpec("diode", {"D1": DiodeParams()}, BathParams(0.5), BathParams(0.0))


def test_delta_omega_for_unknown_diode_is_rejected():
    with pytest.raises(ValueError, match=r"unknown diodes \['D7'\]"):
        CircuitSpec.build("parallel", n_left=0.5, n_right=0.0,
                          delta_omega={"D1": 300.0, "D2": 200.0, "D7": 5.0})
    with pytest.raises(ValueError, match=r"unknown diodes \['D3', 'D4'\]"):
        CircuitSpec.build("series", n_left=0.5, n_right=0.0,
                          delta_omega={f"D{k}": 300.0 for k in range(1, 5)})


def test_parallel_circuit_has_no_coherent_part():
    spec = CircuitSpec.build("parallel", n_left=0.5, n_right=0.0)
    gen = build_generator(spec)
    assert gen.hamiltonian is None
    assert gen.layout.labels == ("D1", "D2")


def _hop(layout, a, b):
    return (
        lowering_op(layout, a) @ raising_op(layout, b)
        + raising_op(layout, a) @ lowering_op(layout, b)
    )


def test_series_retained_coherent_term_against_full_construction():
    # assemble the full four-mode circuit Hamiltonian minus the bath-facing
    # couplings (in the rotating frame) and compare with the reduced build
    spec = CircuitSpec.build("series", n_left=0.0, n_right=0.5,
                             delta_omega={"D1": 300.0, "D2": 170.0})
    reduced = build_generator(spec).hamiltonian

    full = SpaceLayout.of(
        ("L", 2), ("D1", 3), ("D2", 3), ("R", 2)
    )
    d1, d2 = spec.diodes["D1"], spec.diodes["D2"]
    static_full = (
        (-d1.delta_omega) * projector(full, "D1", 0)
        + (-d2.delta_omega) * projector(full, "D2", 0)
        + d2.J * _hop(full, "D1", "D2")
        + d1.J * _hop(full, "L", "D1")
        + d2.J * _hop(full, "D2", "R")
    )
    h_sb_static = d1.J * _hop(full, "L", "D1") + d2.J * _hop(full, "D2", "R")
    # drive terms: J'_D1 on L-D1 (removed with H_SB), J'_D2 on D1-D2 (kept)
    for t in (0.0, 0.11, 0.74):
        kept = (
            static_full - h_sb_static
            + (d2.J_prime * math.cos(d2.delta_omega * t)) * _hop(full, "D1", "D2")
        )
        reduced_embedded = np.kron(
            np.kron(np.eye(2), reduced.at(t).matrix.toarray()), np.eye(2)
        )
        np.testing.assert_allclose(kept.matrix.toarray(), reduced_embedded, atol=1e-12)


def test_bridge_retained_couplings_against_full_construction():
    spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=2)
    gen = build_generator(spec)
    reduced = gen.hamiltonian
    assert gen.layout.labels == ("D1", "M1", "D2", "D3", "M2", "D4")
    # equal anharmonicities: the two drives merge into one term
    assert len(reduced.drive_terms) == 1

    full = SpaceLayout.of(
        ("L", 2),
        ("D1", 3), ("M1", 2), ("D2", 3),
        ("D3", 3), ("M2", 2), ("D4", 3),
        ("R", 2),
    )
    d = spec.diodes
    J = d["D1"].J
    static_circuit = sum(
        ((-d[k].delta_omega) * projector(full, k, 0) for k in d),
        start=J * _hop(full, "L", "D1"),
    )
    static_circuit = (
        static_circuit
        + J * _hop(full, "D1", "M1")
        + J * _hop(full, "R", "D2") + J * _hop(full, "D2", "M1")
        + J * _hop(full, "M2", "D3") + J * _hop(full, "D3", "L")
        + J * _hop(full, "M2", "D4") + J * _hop(full, "D4", "R")
    )
    h_sb_static = (
        J * _hop(full, "L", "D1") + J * _hop(full, "D2", "R")
        + J * _hop(full, "L", "D3") + J * _hop(full, "D4", "R")
    )
    for t in (0.0, 0.45):
        cos = math.cos(d["D1"].delta_omega * t)
        # drives on the bath-facing couplings of D1/D2 are removed with H_SB;
        # the modulated couplings of D3/D4 to M2 are retained
        kept = (
            static_circuit - h_sb_static
            + (d["D3"].J_prime * cos) * _hop(full, "M2", "D3")
            + (d["D4"].J_prime * cos) * _hop(full, "M2", "D4")
        )
        reduced_embedded = np.kron(np.kron(np.eye(2), reduced.at(t).matrix.toarray()), np.eye(2))
        np.testing.assert_allclose(kept.matrix.toarray(), reduced_embedded, atol=1e-12)


def test_bridge_halves_match_full_reduced_hamiltonian():
    spec = CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=3)
    upper, lower = build_bridge_half_generators(spec)
    assert upper.hamiltonian.drive_terms == ()
    assert len(lower.hamiltonian.drive_terms) == 1
    full = build_generator(spec)
    for t in (0.0, 0.3):
        embedded = np.kron(upper.hamiltonian.at(t).matrix.toarray(), np.eye(lower.layout.total_dim)) \
            + np.kron(np.eye(upper.layout.total_dim), lower.hamiltonian.at(t).matrix.toarray())
        np.testing.assert_allclose(full.hamiltonian.at(t).matrix.toarray(), embedded, atol=1e-12)


def test_single_diode_full_model_layout():
    spec = CircuitSpec.build("single-diode", n_left=0.5, n_right=0.0, ho_truncation=4)
    gen = build_generator(spec)
    assert gen.layout.labels == ("L", "D1", "R")
    assert gen.layout.dims == (4, 3, 4)
    assert len(gen.hamiltonian.drive_terms) == 1

    # every topology's generators: each qutrit has 3 levels, each oscillator N
    oscillators = {"L", "R", "M1", "M2"}
    full_labels = {
        "single-diode": ("L", "D1", "R"),
        "parallel": ("D1", "D2"),
        "series": ("D1", "D2"),
        "bridge": ("D1", "M1", "D2", "D3", "M2", "D4"),
    }
    assert set(full_labels) == set(TOPOLOGIES)
    for topology, labels in full_labels.items():
        for n in (2, 5):
            spec = CircuitSpec.build(topology, n_left=0.5, n_right=0.0, ho_truncation=n)
            reduced = tuple(label for label in labels if label not in {"L", "R"})
            expected = [(labels, build_generator(spec)), (reduced, build_reduced_generator(spec))]
            if topology == "bridge":
                expected += zip((labels[:3], labels[3:]), build_bridge_half_generators(spec))
            for want, gen in expected:
                assert gen.layout.labels == want
                assert gen.layout.dims == tuple(n if label in oscillators else 3 for label in want)


def test_excitation_conservation_all_topologies():
    for spec in (
        CircuitSpec.build("single-diode", n_left=0.5, n_right=0.0, ho_truncation=3),
        CircuitSpec.build("series", n_left=0.5, n_right=0.0,
                          delta_omega={"D1": 300.0, "D2": 120.0}),
        CircuitSpec.build("bridge", T_left=1.0, T_right=0.1, ho_truncation=2),
    ):
        gen = build_generator(spec)
        n_total = sum(
            (number_op(gen.layout, lbl) for lbl in gen.layout.labels[1:]),
            start=number_op(gen.layout, gen.layout.labels[0]),
        )
        for t in (0.0, 0.2):
            h = gen.hamiltonian.at(t).matrix
            comm = h @ n_total.matrix - n_total.matrix @ h
            assert np.max(np.abs(comm.toarray())) < 1e-12
