import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from entlogic.quantum import (
    TOLERANCE,
    QuantumState,
    apply_cnot,
    bell_state,
    cat,
    fidelity,
    is_separable,
    make_qubit,
    one,
    tensor,
    try_clone,
    zero,
)

R = 1 / math.sqrt(2)


def assert_close(state, expected):
    np.testing.assert_allclose(
        np.array(state.amplitudes), np.array(expected, dtype=complex), atol=TOLERANCE
    )


def states():
    # weight in [0, 1] plus a relative phase gives every ray up to global phase
    return st.tuples(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 2 * math.pi, allow_nan=False, exclude_max=True),
    ).map(
        lambda t: make_qubit(
            math.sqrt(1 - t[0]),
            math.sqrt(t[0]) * complex(math.cos(t[1]), math.sin(t[1])),
        )
    )


def test_make_qubit_basis_and_cat():
    assert_close(make_qubit(1, 0), [1, 0])
    assert_close(make_qubit(0, 1), [0, 1])
    assert_close(cat(), [R, R])
    assert_close(make_qubit(0.6, 0.8), [0.6, 0.8])


def test_make_qubit_rejects_bad_input():
    with pytest.raises(ValueError):
        make_qubit(0, 0)
    with pytest.raises(ValueError):
        make_qubit(0.6, 0.9)  # norm 1.17, outside the 1e-9 gate
    with pytest.raises(ValueError):
        QuantumState((0.5, 0.5))  # not normalized
    with pytest.raises(ValueError):
        QuantumState((1, 0, 0))  # bad dimension


def test_tensor_products():
    assert_close(tensor(zero(), zero()), [1, 0, 0, 0])
    assert_close(tensor(one(), zero()), [0, 0, 1, 0])
    assert_close(tensor(cat(), zero()), [R, 0, R, 0])
    with pytest.raises(ValueError):
        tensor(bell_state("phi+"), zero())


def test_cnot_on_basis_states():
    assert_close(apply_cnot(tensor(one(), zero())), [0, 0, 0, 1])
    assert_close(apply_cnot(tensor(zero(), zero())), [1, 0, 0, 0])
    assert_close(apply_cnot(tensor(zero(), one())), [0, 1, 0, 0])


def test_cnot_entangles_cat_with_ancilla():
    assert_close(apply_cnot(tensor(cat(), zero())), bell_state("phi+").amplitudes)


@settings(max_examples=300, deadline=None)
@given(states(), states())
def test_cnot_reversible_and_norm_preserving(p, q):
    s = tensor(p, q)
    once = apply_cnot(s)
    assert abs(sum(abs(a) ** 2 for a in once.amplitudes) - 1) <= TOLERANCE
    assert_close(apply_cnot(once), s.amplitudes)


def test_bell_states_match_definitions():
    assert_close(bell_state("phi+"), [R, 0, 0, R])
    assert_close(bell_state("phi-"), [R, 0, 0, -R])
    assert_close(bell_state("psi+"), [0, R, R, 0])
    assert_close(bell_state("psi-"), [0, R, -R, 0])
    with pytest.raises(ValueError):
        bell_state("omega")


def test_bell_states_mutually_orthogonal():
    names = ("phi+", "phi-", "psi+", "psi-")
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert fidelity(bell_state(a), bell_state(b)) <= TOLERANCE


def test_bell_states_not_separable():
    for name in ("phi+", "phi-", "psi+", "psi-"):
        assert not is_separable(bell_state(name))
    # determinant of the phi+ amplitude matrix is 1/2 by hand
    c00, c01, c10, c11 = bell_state("phi+").amplitudes
    assert abs(c00 * c11 - c01 * c10) == pytest.approx(0.5, abs=TOLERANCE)


def test_fidelity_values():
    assert fidelity(bell_state("phi+"), bell_state("phi+")) == pytest.approx(1, abs=TOLERANCE)
    assert fidelity(bell_state("phi+"), bell_state("psi+")) == pytest.approx(0, abs=TOLERANCE)
    # <phi+|cat x cat> = 1/sqrt(2) by hand expansion
    assert fidelity(bell_state("phi+"), tensor(cat(), cat())) == pytest.approx(0.5, abs=TOLERANCE)
    with pytest.raises(ValueError):
        fidelity(zero(), bell_state("phi+"))


@settings(max_examples=200, deadline=None)
@given(states(), states())
def test_fidelity_symmetric_unit_interval(p, q):
    f = fidelity(p, q)
    assert 0 <= f <= 1 + TOLERANCE
    # numpy is the reference; the plain sum may differ in the last bits
    reference = abs(np.vdot(np.array(p.amplitudes), np.array(q.amplitudes))) ** 2
    assert f == pytest.approx(reference, abs=1e-15)
    assert fidelity(q, p) == pytest.approx(f, abs=1e-9)


def test_separability_of_products():
    assert is_separable(tensor(zero(), zero()))
    assert is_separable(tensor(cat(), zero()))
    assert is_separable(tensor(cat(), cat()))


def test_clone_basis_states():
    for state, copy in ((zero(), [1, 0, 0, 0]), (one(), [0, 0, 0, 1])):
        outcome = try_clone(state)
        assert outcome.success
        assert outcome.fidelity_with_intended == pytest.approx(1, abs=TOLERANCE)
        assert_close(outcome.produced, copy)


def test_clone_cat_yields_bell_state():
    outcome = try_clone(cat())
    assert not outcome.success
    assert_close(outcome.produced, bell_state("phi+").amplitudes)
    assert outcome.fidelity_with_intended == pytest.approx(0.5, abs=TOLERANCE)
    assert not is_separable(outcome.produced)


@settings(max_examples=300, deadline=None)
@given(states())
def test_clone_succeeds_exactly_on_basis_states(psi):
    a, b = psi.amplitudes
    outcome = try_clone(psi)
    if a == 0 or b == 0:
        assert outcome.success
    elif abs(a * b) > 1e-6:
        # a genuine superposition: the copy fails and leaves entanglement
        assert not outcome.success
        assert not is_separable(outcome.produced)
