"""Rate-1/2 convolutional FEC, constraint length 7, generators (133, 171) octal.

The encoder is zero-tail terminated: six flush zeros are appended so the
trellis starts and ends in state 0, which the decoder exploits.  The
decoder is a maximum-likelihood Viterbi over the 64-state trellis and never
fails; it returns the most likely payload.  Branch metrics are soft
correlations, so callers may pass LLRs directly (positive LLR means bit 0)
or hard 0/1 decisions.
"""

import numpy as np

CONSTRAINT_LENGTH = 7
GENERATORS = (0o133, 0o171)
TAIL_BITS = CONSTRAINT_LENGTH - 1
RATE_DEN = 2  # two coded bits per input bit

_N_STATES = 1 << TAIL_BITS

# per generator, the delays k whose tap is set (bit k multiplies the input delayed by k steps)
_TAP_DELAYS = [[k for k in range(CONSTRAINT_LENGTH) if (g >> k) & 1] for g in GENERATORS]


def coded_length(n_payload_bits: int) -> int:
    """Coded bits produced for a payload, tail included."""
    return RATE_DEN * (n_payload_bits + TAIL_BITS)


def payload_length(n_coded_bits: int) -> int:
    """Payload bits recoverable from a coded block; inverse of coded_length."""
    if n_coded_bits % RATE_DEN != 0:
        raise ValueError(f"coded length must be a multiple of {RATE_DEN}")
    n = n_coded_bits // RATE_DEN - TAIL_BITS
    if n < 0:
        raise ValueError(f"coded block of {n_coded_bits} bits is shorter than the tail")
    return n


def fec_encode(bits) -> np.ndarray:
    """Encode payload bits; output interleaves the two generator streams."""
    u = np.asarray(bits, dtype=np.uint8).ravel()
    if u.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if np.any(u > 1):
        raise ValueError("payload must be 0/1 bits")
    u_tail = np.concatenate([u, np.zeros(TAIL_BITS, dtype=np.uint8)])
    n = u_tail.size
    out = np.empty(RATE_DEN * n, dtype=np.uint8)
    for g, delays in enumerate(_TAP_DELAYS):
        # GF(2) convolution: XOR of the delayed copies selected by the taps
        acc = np.zeros(n, dtype=np.uint8)
        for k in delays:
            acc[k:] ^= u_tail[: n - k]
        out[g::RATE_DEN] = acc
    return out


def _build_trellis():
    """Predecessor and output-sign tables for the 64-state trellis."""
    pred_a = np.arange(_N_STATES, dtype=np.int64) >> 1
    pred_b = pred_a | (1 << (TAIL_BITS - 1))
    in_bit = np.arange(_N_STATES, dtype=np.int64) & 1
    # sgn[s, b] = 1 - 2*output_bit for transition (state s, input b)
    sgn = np.empty((2, _N_STATES, 2), dtype=np.float64)
    for s in range(_N_STATES):
        for b in (0, 1):
            sr = (s << 1) | b
            for g, gen in enumerate(GENERATORS):
                o = bin(sr & gen).count("1") & 1
                sgn[g, s, b] = 1.0 - 2.0 * o
    return pred_a, pred_b, in_bit, sgn[0], sgn[1]


_PRED_A, _PRED_B, _IN_BIT, _SGN0, _SGN1 = _build_trellis()
_IDX_A = _PRED_A * 2 + _IN_BIT
_IDX_B = _PRED_B * 2 + _IN_BIT


def fec_decode(coded) -> np.ndarray:
    """Viterbi-decode a coded block back to payload bits.

    `coded` is either a float array of LLRs (one per coded bit, positive
    means bit 0) or an integer/bool array of hard 0/1 decisions.  The tail
    is stripped from the returned payload.
    """
    arr = np.asarray(coded)
    if arr.dtype == np.bool_ or np.issubdtype(arr.dtype, np.integer):
        llr = 1.0 - 2.0 * arr.astype(np.float64)
    else:
        llr = arr.astype(np.float64)
    llr = llr.ravel()
    if llr.size % RATE_DEN != 0:
        raise ValueError(f"LLR count must be a multiple of {RATE_DEN}")
    n_steps = llr.size // RATE_DEN
    if n_steps < TAIL_BITS:
        raise ValueError("coded block shorter than the zero tail")

    neg = -1e18
    pm = np.full(_N_STATES, neg)
    pm[0] = 0.0
    survivors = np.empty((n_steps, _N_STATES), dtype=np.uint8)

    for t in range(n_steps):
        bm = llr[2 * t] * _SGN0 + llr[2 * t + 1] * _SGN1
        bm_flat = bm.ravel()
        cand_a = pm[_PRED_A] + bm_flat[_IDX_A]
        cand_b = pm[_PRED_B] + bm_flat[_IDX_B]
        take_a = cand_a >= cand_b
        pm = np.where(take_a, cand_a, cand_b)
        survivors[t] = np.where(take_a, _PRED_A, _PRED_B)

    # zero-tail: traceback from state 0
    bits = np.empty(n_steps, dtype=np.uint8)
    state = 0
    for t in range(n_steps - 1, -1, -1):
        bits[t] = state & 1
        state = survivors[t, state]

    return bits[: n_steps - TAIL_BITS]
