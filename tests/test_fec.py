import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uavfd.phy import coded_length, fec_decode, fec_encode, payload_length
from uavfd.phy.fec import _PM_LIMIT, CONSTRAINT_LENGTH, GENERATORS, TAIL_BITS


def shift_register_encode(bits):
    """Independent bit-by-bit reference encoder."""
    state = 0
    out = []
    for b in list(bits) + [0] * TAIL_BITS:
        sr = (state << 1) | int(b)
        for g in GENERATORS:
            out.append(bin(sr & g).count("1") & 1)
        state = sr & ((1 << (CONSTRAINT_LENGTH - 1)) - 1)
    return np.array(out, dtype=np.uint8)


def _reference_trellis():
    n_states = 1 << TAIL_BITS
    pred_a = np.arange(n_states) >> 1
    pred_b = pred_a | (1 << (TAIL_BITS - 1))
    in_bit = np.arange(n_states) & 1
    sgn = np.empty((2, n_states, 2))
    for s in range(n_states):
        for b in (0, 1):
            for g, gen in enumerate(GENERATORS):
                sgn[g, s, b] = 1.0 - 2.0 * (bin(((s << 1) | b) & gen).count("1") & 1)
    return pred_a, pred_b, pred_a * 2 + in_bit, pred_b * 2 + in_bit, sgn[0], sgn[1]


_REF_PRED_A, _REF_PRED_B, _REF_IDX_A, _REF_IDX_B, _REF_SGN0, _REF_SGN1 = _reference_trellis()


def _reference_viterbi(coded):
    """Step-by-step Viterbi with gathered predecessors: the decoder fec_decode replaced."""
    arr = np.asarray(coded)
    if arr.dtype == np.bool_ or np.issubdtype(arr.dtype, np.integer):
        llr = 1.0 - 2.0 * arr.astype(np.float64)
    else:
        llr = arr.astype(np.float64)
    llr = llr.ravel()
    n_steps = llr.size // 2
    pm = np.full(1 << TAIL_BITS, -1e18)
    pm[0] = 0.0
    survivors = np.empty((n_steps, pm.size), dtype=np.uint8)
    for t in range(n_steps):
        bm_flat = (llr[2 * t] * _REF_SGN0 + llr[2 * t + 1] * _REF_SGN1).ravel()
        cand_a = pm[_REF_PRED_A] + bm_flat[_REF_IDX_A]
        cand_b = pm[_REF_PRED_B] + bm_flat[_REF_IDX_B]
        take_a = cand_a >= cand_b
        pm = np.where(take_a, cand_a, cand_b)
        survivors[t] = np.where(take_a, _REF_PRED_A, _REF_PRED_B)
    bits = np.empty(n_steps, dtype=np.uint8)
    state = 0
    for t in range(n_steps - 1, -1, -1):
        bits[t] = state & 1
        state = survivors[t, state]
    return bits[: n_steps - TAIL_BITS]


def _channel_outputs(n, kind):
    """A coded block of an n-bit payload as one kind of decoder input."""
    rng = np.random.default_rng(n)
    coded = fec_encode(rng.integers(0, 2, n))
    tx = 1.0 - 2.0 * coded
    if kind == "soft":
        return tx + 0.8 * rng.standard_normal(tx.size)
    if kind == "hard":
        return coded ^ (rng.random(coded.size) < 0.08).astype(np.uint8)
    if kind == "quantised":
        return np.round(2.0 * tx + 2.0 * rng.standard_normal(tx.size))
    return np.zeros(coded.size)


# 57/58/59-bit payloads are 63/64/65 trellis steps, either side of the 64-step chunk
@pytest.mark.parametrize("kind", ["soft", "hard", "quantised", "zero"])
@pytest.mark.parametrize("n", [0, 1, 57, 58, 59, 250, 14_694])
def test_decoder_matches_reference_viterbi(n, kind):
    x = _channel_outputs(n, kind)
    got = fec_decode(x)
    assert got.dtype == np.uint8
    assert np.array_equal(got, _reference_viterbi(x))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=400))
def test_round_trip_property(bits):
    assert np.array_equal(fec_decode(fec_encode(bits)), np.array(bits, dtype=np.uint8))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(TAIL_BITS, 80).flatmap(
        lambda n: arrays(np.float64, 2 * n, elements=st.floats(allow_nan=False, allow_infinity=False))
    )
)
def test_decoder_matches_reference_on_finite_llrs(llr):
    if np.abs(llr).max() >= _PM_LIMIT / llr.size:
        with pytest.raises(ValueError, match="overflow"):
            fec_decode(llr)
    else:
        assert np.array_equal(fec_decode(llr), _reference_viterbi(llr))


def test_all_zero_input_gives_all_zero_codeword():
    for n in (1, 17, 300):
        assert not fec_encode(np.zeros(n, dtype=np.uint8)).any()


def test_encoder_matches_shift_register_oracle():
    rng = np.random.default_rng(0)
    for n in (1, 2, 13, 100, 517):
        bits = rng.integers(0, 2, n)
        assert np.array_equal(fec_encode(bits), shift_register_encode(bits))


@pytest.mark.parametrize("n", [1, 7, 64, 14_694])
def test_encoder_matches_convolution_reference(n):
    bits = np.random.default_rng(n).integers(0, 2, n).astype(np.uint8)
    u = np.r_[bits, np.zeros(TAIL_BITS, dtype=np.uint8)]
    taps = [np.array([(g >> k) & 1 for k in range(CONSTRAINT_LENGTH)], dtype=np.uint8) for g in GENERATORS]
    ref = np.stack([np.convolve(u, t)[: u.size] % 2 for t in taps], axis=1).ravel()
    assert np.array_equal(fec_encode(bits), ref)


def test_coded_length():
    assert coded_length(100) == 2 * 106
    assert fec_encode(np.zeros(100, dtype=np.uint8)).size == coded_length(100)
    assert np.array_equal(fec_encode([]), np.zeros(coded_length(0), dtype=np.uint8))
    assert payload_length(coded_length(123)) == 123
    with pytest.raises(ValueError):
        payload_length(3)


def test_noiseless_round_trip():
    rng = np.random.default_rng(1)
    for n in (0, 1, 5, 64, 333, 1000):
        bits = rng.integers(0, 2, n)
        assert np.array_equal(fec_decode(fec_encode(bits)), bits)


def test_decode_accepts_llrs():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 200)
    llr = (1.0 - 2.0 * fec_encode(bits)) * 3.7
    assert np.array_equal(fec_decode(llr), bits)


def test_corrects_one_flip_per_twenty():
    # d_free = 10 for this code; a flip every 20 coded bits decodes cleanly
    successes = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 1000)
        coded = fec_encode(bits)
        for start in range(0, coded.size - 19, 20):
            coded[start + rng.integers(0, 20)] ^= 1
        successes += np.array_equal(fec_decode(coded), bits)
    assert successes >= 99


def test_soft_decode_under_awgn():
    rng = np.random.default_rng(3)
    n_err = 0
    n_bits = 0
    for _ in range(10):
        bits = rng.integers(0, 2, 500)
        tx = 1.0 - 2.0 * fec_encode(bits).astype(float)
        # 3 dB Es/N0 on the coded BPSK stream
        sigma = (10 ** (-3 / 20)) / np.sqrt(2)
        llr = tx + sigma * rng.standard_normal(tx.size)
        dec = fec_decode(llr)
        n_err += int(np.sum(dec != bits))
        n_bits += bits.size
    assert n_err / n_bits < 0.02


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fec_encode([0, 1, 2])
    with pytest.raises(ValueError):
        fec_decode(np.zeros(7))
    with pytest.raises(ValueError):
        fec_decode(np.zeros(4))  # shorter than the tail
    for bad in (np.nan, np.inf, -np.inf):
        llr = np.ones(20)
        llr[7] = bad
        with pytest.raises(ValueError, match="finite"):
            fec_decode(llr)
    with pytest.raises(ValueError, match="overflow"):
        fec_decode(np.full(20, 1e307))
    for hard in (np.full(20, 2), np.r_[np.zeros(19, dtype=np.int8), -1]):
        with pytest.raises(ValueError, match="0/1"):
            fec_decode(hard)
    assert fec_decode(np.zeros(20, dtype=bool)).size == 20 // 2 - TAIL_BITS
