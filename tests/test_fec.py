import numpy as np
import pytest

from uavfd.phy import coded_length, fec_decode, fec_encode, payload_length
from uavfd.phy.fec import CONSTRAINT_LENGTH, GENERATORS, TAIL_BITS


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
    assert payload_length(coded_length(123)) == 123
    with pytest.raises(ValueError):
        payload_length(3)


def test_noiseless_round_trip():
    rng = np.random.default_rng(1)
    for n in (1, 5, 64, 333, 1000):
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
