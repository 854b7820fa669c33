"""State vectors, gates, QFT, tensor factorization, and the two toy circuits."""

import numpy as np
import pytest

from qubitflow import (
    GATES,
    QubitState,
    apply_gate,
    cphase,
    deutsch_jozsa,
    factor_out_qubit,
    make_basis_state,
    make_named_state,
    qft,
    shor_period_find,
    tensor,
)
from qubitflow.states import Gate, bits_of_index, index_of_bits


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QubitState(n, amps).normalized()


def test_bit_indexing():
    # The first bit of the string is the most significant index bit.
    assert index_of_bits("011", 3) == 3
    assert index_of_bits("100", 3) == 4
    assert bits_of_index(6, 3) == "110"
    st = make_basis_state(3, "011")
    assert st.amplitudes[3] == 1.0
    assert abs(st.amplitude("011") - 1.0) < 1e-15


def test_basis_state_validation():
    with pytest.raises(ValueError):
        make_basis_state(2, "012")
    with pytest.raises(ValueError):
        make_basis_state(2, "0")
    with pytest.raises(ValueError):
        QubitState(2, np.ones(3))


def test_gate_unitarity_enforced():
    with pytest.raises(ValueError):
        Gate("bad", np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_single_qubit_gate_action():
    st = apply_gate(make_basis_state(1, "0"), GATES["X"], [1])
    assert np.allclose(st.amplitudes, [0, 1])
    st = apply_gate(st, GATES["X"], [1])
    assert np.allclose(st.amplitudes, [1, 0])
    plus = apply_gate(make_basis_state(1, "0"), GATES["H"], [1])
    assert np.allclose(plus.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_gate_targets_are_one_based_msb_first():
    # X on qubit 1 of |00> flips the leading bit.
    st = apply_gate(make_basis_state(2, "00"), GATES["X"], [1])
    assert np.allclose(st.amplitudes, make_basis_state(2, "10").amplitudes)
    st = apply_gate(make_basis_state(2, "00"), GATES["X"], [2])
    assert np.allclose(st.amplitudes, make_basis_state(2, "01").amplitudes)
    with pytest.raises(ValueError):
        apply_gate(make_basis_state(2, "00"), GATES["X"], [3])
    with pytest.raises(ValueError):
        apply_gate(make_basis_state(2, "00"), GATES["CX"], [1])


def test_controlled_not_makes_bell():
    st = apply_gate(make_basis_state(2, "00"), GATES["H"], [1])
    st = apply_gate(st, GATES["CX"], [1, 2])
    assert np.allclose(st.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))
    bell = make_named_state("bell00+", 2)
    assert np.allclose(st.amplitudes, bell.amplitudes)


def test_norm_preserved_by_every_gate():
    rng = np.random.default_rng(3)
    for name, gate in GATES.items():
        st = random_state(rng, 2)
        targets = [1] if gate.arity == 1 else [1, 2]
        out = apply_gate(st, gate, targets)
        assert abs(out.norm() - 1.0) < 1e-12, name
    out = apply_gate(random_state(rng, 2), cphase(0.37), [1, 2])
    assert abs(out.norm() - 1.0) < 1e-12


def test_swap_and_cz():
    st = apply_gate(make_basis_state(2, "10"), GATES["SWAP"], [1, 2])
    assert np.allclose(st.amplitudes, make_basis_state(2, "01").amplitudes)
    st = apply_gate(make_basis_state(2, "11"), GATES["CZ"], [1, 2])
    assert np.allclose(st.amplitudes, -make_basis_state(2, "11").amplitudes)


def test_qft_matches_dft_formula():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        st = random_state(rng, n)
        out = qft(st)
        dim = 2**n
        omega = np.exp(2j * np.pi / dim)
        expect = np.array(
            [sum(st.amplitudes[x] * omega ** (k * x) for x in range(dim)) for k in range(dim)]
        ) / np.sqrt(dim)
        assert np.allclose(out.amplitudes, expect, atol=1e-12)


def test_qft_inverse_round_trip():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        st = random_state(rng, n)
        back = qft(qft(st), inverse=True)
        assert np.max(np.abs(back.amplitudes - st.amplitudes)) < 1e-12


def test_tensor_bell_with_zero():
    bell = make_named_state("bell00+", 2)
    st = tensor(bell, make_basis_state(1, "0"))
    expect = np.zeros(8)
    expect[0] = expect[6] = 1 / np.sqrt(2)
    assert np.allclose(st.amplitudes, expect)


def test_factor_out_product_state():
    rng = np.random.default_rng(2)
    single = random_state(rng, 1)
    rest = random_state(rng, 2)
    st = tensor(single, rest)
    got_rest, got_single = factor_out_qubit(st, 1)
    # Factors are defined up to a phase; compare rank-1 outer products.
    outer = np.outer(got_single.amplitudes, got_rest.amplitudes)
    expect = np.outer(single.amplitudes, rest.amplitudes)
    assert np.allclose(outer, expect * np.vdot(expect.ravel(), outer.ravel()), atol=1e-9)
    st2 = tensor(rest, single)
    got_rest2, got_single2 = factor_out_qubit(st2, 3)
    outer2 = np.outer(got_single2.amplitudes, got_rest2.amplitudes)
    expect2 = np.outer(single.amplitudes, rest.amplitudes)
    assert np.allclose(outer2, expect2 * np.vdot(expect2.ravel(), outer2.ravel()), atol=1e-9)


def test_factor_out_entangled_raises():
    bell = make_named_state("bell00+", 2)
    with pytest.raises(ValueError):
        factor_out_qubit(bell, 1)
    ghz = make_named_state("ghz", 3)
    for q in (1, 2, 3):
        with pytest.raises(ValueError):
            factor_out_qubit(ghz, q)


def test_named_states():
    ghz = make_named_state("ghz", 3)
    assert np.allclose(ghz.amplitudes[[0, 7]], 1 / np.sqrt(2))
    w = make_named_state("w", 3)
    assert np.allclose(w.amplitudes[[1, 2, 4]], 1 / np.sqrt(3))
    assert abs(w.norm() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        make_named_state("ghz", 1)
    with pytest.raises(ValueError):
        make_named_state("nope", 2)


def test_state_json_round_trip():
    rng = np.random.default_rng(14)
    st = random_state(rng, 3)
    back = QubitState.from_dict(st.to_dict())
    assert back.n == 3
    assert np.allclose(back.amplitudes, st.amplitudes, atol=0)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(8)
    st = random_state(rng, 4)
    assert abs(st.probabilities().sum() - 1.0) < 1e-12


def test_deutsch_jozsa_balanced():
    r = deutsch_jozsa([0, 0, 0, 1, 1, 1, 1, 0])
    assert r.all_zero_probability < 1e-12
    # Up to a global sign the post-oracle input register is the balanced pattern.
    pattern = np.array([1, 1, 1, -1, -1, -1, -1, 1]) / np.sqrt(8)
    amps = r.post_oracle_inputs.amplitudes
    aligned = amps * np.sign((amps[0] * pattern[0]).real or 1.0)
    assert np.allclose(aligned, pattern, atol=1e-12) or np.allclose(-aligned, pattern, atol=1e-12)
    assert abs(r.input_distribution.sum() - 1.0) < 1e-12


def test_deutsch_jozsa_constant():
    r = deutsch_jozsa([0] * 8)
    assert abs(r.all_zero_probability - 1.0) < 1e-12
    r = deutsch_jozsa([1] * 8)
    assert abs(r.all_zero_probability - 1.0) < 1e-12


def test_deutsch_jozsa_validation():
    with pytest.raises(ValueError):
        deutsch_jozsa([0, 1, 2, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        deutsch_jozsa([0, 1])


def test_shor_two_periodic():
    r = shor_period_find([1, 3, 1, 3])
    assert r.period == 2
    support = np.nonzero(r.measurement_distribution > 1e-12)[0]
    assert set(support) == {0, 2}
    assert np.allclose(r.measurement_distribution[[0, 2]], 0.5)
    assert abs(r.measurement_distribution.sum() - 1.0) < 1e-12


def test_shor_aperiodic_and_constant():
    r = shor_period_find([1, 2, 0, 3])
    assert r.period == 4
    assert np.allclose(r.measurement_distribution, 0.25)
    r = shor_period_find([2, 2, 2, 2])
    assert r.period == 1
    support = np.nonzero(r.measurement_distribution > 1e-12)[0]
    assert set(support) == {0}


def test_shor_validation():
    with pytest.raises(ValueError):
        shor_period_find([1, 2, 1])  # wrong length
    with pytest.raises(ValueError):
        shor_period_find([1, 1, 2, 1])  # not periodic for any divisor


def test_non_finite_amplitudes_rejected():
    amps = np.array([1.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite amplitude"):
        QubitState(2, amps)
    with pytest.raises(ValueError, match="non-finite"):
        QubitState.from_dict({"n": 1, "amplitudes": [[1.0, 0.0], [np.inf, 0.0]]})
    with pytest.raises(ValueError, match="'nan'"):
        QubitState.from_dict({"n": 1, "amplitudes": [[1.0, 0.0], ["nan", 0.0]]})
