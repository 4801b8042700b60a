import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uavfd.phy import coded_length, fec_decode, fec_encode
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


def _channel_outputs(n, kind, block=None):
    """A coded block of an n-bit payload as one kind of decoder input (block k of a batch draws its own)."""
    rng = np.random.default_rng(n if block is None else [n, block])
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


def _channel_rows(n_rows, n, kind):
    """n_rows independent coded blocks of n-bit payloads, one per row."""
    return np.stack([_channel_outputs(n, kind, block) for block in range(n_rows)])


# ----------------------------------------------------------------- blocks as rows, in lockstep


# one row per OFDM symbol of a 28-symbol frame: 1,044 payload bits make 2,100 coded bits
@pytest.mark.parametrize("kind", ["soft", "hard", "quantised", "zero"])
def test_frame_of_rows_matches_reference_viterbi(kind):
    x = _channel_rows(28, 1044, kind)
    assert x.shape == (28, 2100)
    got = fec_decode(x)
    assert got.shape == (28, 1044) and got.dtype == np.uint8
    for row, decoded in zip(x, got):
        assert np.array_equal(decoded, _reference_viterbi(row))


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(TAIL_BITS, 80)).flatmap(
        lambda shape: arrays(
            np.float64, (shape[0], 2 * shape[1]), elements=st.floats(allow_nan=False, allow_infinity=False)
        )
    )
)
def test_rows_decode_as_each_row_alone(llr):
    # the overflow bound is per row: a row that decodes alone also decodes inside a batch
    if (np.abs(llr).max(axis=1) >= _PM_LIMIT / llr.shape[1]).any():
        with pytest.raises(ValueError, match="overflow"):
            fec_decode(llr)
    else:
        got = fec_decode(llr)
        assert got.shape == (llr.shape[0], llr.shape[1] // 2 - TAIL_BITS)
        for row, decoded in zip(llr, got):
            assert np.array_equal(decoded, fec_decode(row))


@pytest.mark.parametrize("kind", ["soft", "hard"])
def test_one_row_decodes_as_the_block(kind):
    x = _channel_outputs(250, kind)
    got = fec_decode(x[None])
    assert got.shape == (1, 250)
    assert np.array_equal(got[0], fec_decode(x))


# 57/58/59-bit payloads are 63/64/65 trellis steps, either side of the 64-step chunk
@pytest.mark.parametrize("n", [57, 58, 59])
@pytest.mark.parametrize("kind", ["soft", "hard", "quantised"])
def test_rows_either_side_of_the_chunk_edge(n, kind):
    x = _channel_rows(3, n, kind)
    got = fec_decode(x)
    for row, decoded in zip(x, got):
        assert np.array_equal(decoded, _reference_viterbi(row))


# 57-59 and 121-123-bit payloads are 63-65 and 127-129 trellis steps: the traceback walks back
# one 64-step chunk at a time, so these rows end just before, on and just past a chunk edge
@pytest.mark.parametrize("n", [57, 58, 59, 121, 122, 123])
@pytest.mark.parametrize("n_rows", [1, 5, 28])
@pytest.mark.parametrize("kind", ["hard", "quantised"])
def test_rows_either_side_of_the_backward_chunk_edges(n, n_rows, kind):
    x = _channel_rows(n_rows, n, kind)
    got = fec_decode(x)
    assert got.shape == (n_rows, n)
    for row, decoded in zip(x, got):
        assert np.array_equal(decoded, _reference_viterbi(row))


# the traceback indexes s*B + r in uint16 while 64*B <= 2**16, so 1,024 rows are the last
# uint16 batch and 1,025 rows the first intp one
@pytest.mark.parametrize("n_rows", [1024, 1025])
@pytest.mark.parametrize("kind", ["soft", "hard"])
def test_rows_either_side_of_the_traceback_index_width(n_rows, kind):
    x = _channel_rows(n_rows, 20, kind)
    got = fec_decode(x)
    assert got.shape == (n_rows, 20) and got.dtype == np.uint8
    for row, decoded in zip(x, got):
        assert np.array_equal(decoded, fec_decode(row))
    for r in (0, 1, 511, 512, 1000, n_rows - 2, n_rows - 1):
        assert np.array_equal(got[r], _reference_viterbi(x[r]))


def test_zero_blocks_decode_to_an_empty_payload():
    coded = fec_encode(np.zeros((0, 7), dtype=np.uint8))
    assert coded.shape == (0, coded_length(7))
    for x in (coded, 1.0 - 2.0 * coded):
        got = fec_decode(x)
        assert got.shape == (0, 7) and got.dtype == np.uint8
    got = fec_decode(np.zeros((3, 0, 20)))
    assert got.shape == (3, 0, 4) and got.dtype == np.uint8


def test_frame_decode_working_memory():
    # the fec module docstring's figures for a float64 input of at most 1,024 rows: 82 bytes per
    # step and row (decisions 64, row-innermost LLRs 16, state indices 2) and 37 KiB of chunk
    # buffers per row (candidates 32, branch metrics 1, predecessor table 4); 5% covers the
    # short-lived arrays (output stage, views)
    x = _channel_rows(28, 1044, "soft")
    n_rows, n_steps = x.shape[0], x.shape[1] // 2
    fec_decode(x)  # first-call allocations are not working memory
    tracemalloc.start()
    try:
        fec_decode(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = n_rows * (82 * n_steps + 37 * 1024)
    assert 0.9 * bound < peak <= 1.05 * bound


def test_decode_works_along_the_last_axis():
    x = _channel_rows(6, 40, "soft")
    assert np.array_equal(fec_decode(x.reshape(2, 3, -1)), fec_decode(x).reshape(2, 3, -1))


def test_rows_reject_bad_inputs():
    with pytest.raises(ValueError, match="multiple"):
        fec_decode(np.zeros((3, 21)))
    with pytest.raises(ValueError, match="tail"):
        fec_decode(np.zeros((3, 10)))
    llr = np.ones((3, 20))
    llr[2, 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fec_decode(llr)
    hard = np.zeros((3, 20), dtype=np.int8)
    hard[1, 0] = 2
    with pytest.raises(ValueError, match="0/1"):
        fec_decode(hard)
    llr = np.ones((3, 20))
    llr[1, 3] = _PM_LIMIT / 20  # only row 1 is over the bound, and it fails the whole batch
    with pytest.raises(ValueError, match="overflow"):
        fec_decode(llr)
    assert fec_decode(llr[[0, 2]]).shape == (2, 4)
    # every row just under its own bound: the batch decodes, as each row would alone
    assert fec_decode(np.full((3, 20), 0.99 * _PM_LIMIT / 20)).shape == (3, 4)


@pytest.mark.parametrize("n", [0, 1, 57, 1044])
def test_encoder_rows_match_per_row_encode(n):
    bits = np.random.default_rng(n).integers(0, 2, (5, n)).astype(np.uint8)
    coded = fec_encode(bits)
    assert coded.shape == (5, coded_length(n))
    for row, block in zip(bits, coded):
        assert np.array_equal(block, fec_encode(row))
    assert np.array_equal(fec_decode(coded), bits)
    with pytest.raises(ValueError):
        fec_encode(np.full((2, 3), 2))


# ----------------------------------------------------------------- single blocks


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
