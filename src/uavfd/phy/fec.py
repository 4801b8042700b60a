"""Rate-1/2 convolutional FEC, constraint length 7, generators (133, 171) octal.

The encoder is zero-tail terminated: six flush zeros are appended so the
trellis starts and ends in state 0, which the decoder exploits.  An empty
payload encodes to the bare 12-bit tail.  The decoder is a
maximum-likelihood Viterbi over the 64-state trellis and never fails on a
valid block; it returns the most likely payload.  Branch metrics are soft
correlations, so callers may pass LLRs directly (positive LLR means bit 0)
or hard 0/1 decisions.

The decoder is laid out on the radix-2 butterfly of the trellis.  State
s = 2j + b (b the newest input bit) is reached from j and from j + 32, and
both transitions send the coded pair fixed by `_CODE_INDEX[h, j, b]`
(h = 0 for j, 1 for j + 32).  One trellis step is therefore two ufunc calls
on fixed views of preallocated buffers: an add of the path metrics, seen as
(2, 32, 1), to the (2, 32, 2) branch metrics, and a maximum over the
leading axis, which writes the new metrics in state order.  Branch metrics
are gathered, and survivor decisions compared and bit-packed, once per
chunk of 64 steps.  The survivor table holds one bit per state and step
(8 bytes per step); the traceback walks it in pure Python.
"""

import numpy as np

CONSTRAINT_LENGTH = 7
GENERATORS = (0o133, 0o171)
TAIL_BITS = CONSTRAINT_LENGTH - 1
RATE_DEN = 2  # two coded bits per input bit

_N_STATES = 1 << TAIL_BITS
_HALF = _N_STATES // 2

# per generator, the delays k whose tap is set (bit k multiplies the input delayed by k steps)
_TAP_DELAYS = [[k for k in range(CONSTRAINT_LENGTH) if (g >> k) & 1] for g in GENERATORS]


def coded_length(n_payload_bits: int) -> int:
    """Coded bits produced for a payload, tail included."""
    return RATE_DEN * (n_payload_bits + TAIL_BITS)


def fec_encode(bits) -> np.ndarray:
    """Encode payload bits; output interleaves the two generator streams."""
    u = np.asarray(bits, dtype=np.uint8).ravel()
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


def _build_code_index():
    """Branch-output table of the trellis in butterfly layout.

    Entry [h, j, b] is the index 2*o0 + o1 of the two coded bits (o0, o1)
    sent on the transition from state p = 32*h + j with input bit b, which
    leads to state 2*j + b.
    """
    idx = np.empty((2, _HALF, 2), dtype=np.intp)
    for h in (0, 1):
        for j in range(_HALF):
            for b in (0, 1):
                sr = ((h * _HALF + j) << 1) | b
                o0, o1 = (bin(sr & gen).count("1") & 1 for gen in GENERATORS)
                idx[h, j, b] = 2 * o0 + o1
    return idx


_CODE_INDEX = _build_code_index()
# branch-metric signs (1 - 2*o) of each coded bit, per code index 2*o0 + o1
_SGN0 = np.array([1.0, 1.0, -1.0, -1.0])
_SGN1 = np.array([1.0, -1.0, 1.0, -1.0])
_CHUNK = 64  # trellis steps per branch-metric gather and decision pack
# a path metric's magnitude never exceeds the 1e18 start offset plus the sum
# of all |LLR|; bounding that sum by half the float range leaves ample room
# for rounding, so no metric can overflow to inf (and inf - inf to NaN)
_PM_LIMIT = np.finfo(np.float64).max / 2


def fec_decode(coded) -> np.ndarray:
    """Viterbi-decode a coded block back to payload bits.

    `coded` is either a float array of LLRs (one per coded bit, positive
    means bit 0) or an integer/bool array of hard 0/1 decisions.  The tail
    is stripped from the returned payload.  Raises ValueError for a length
    that is odd or shorter than the tail, for hard decisions other than
    0/1, for NaN or infinite LLRs, and for LLRs so large that the path
    metrics would overflow.

    Each step adds the branch metrics to both predecessors of every state
    and keeps the larger sum.  On a tie the predecessor j wins over j + 32
    (survivor bit 0).  Apart from the LLR copy and the survivor table of
    8 bytes per step, the working arrays are sized by the 64-step chunk,
    not by the block.
    """
    arr = np.asarray(coded)
    if arr.dtype == np.bool_ or np.issubdtype(arr.dtype, np.integer):
        if np.any((arr != 0) & (arr != 1)):
            raise ValueError("hard decisions must be 0/1 bits")
        llr = 1.0 - 2.0 * arr.astype(np.float64)
    else:
        llr = arr.astype(np.float64)
    llr = llr.ravel()
    if llr.size % RATE_DEN != 0:
        raise ValueError(f"LLR count must be a multiple of {RATE_DEN}")
    n_steps = llr.size // RATE_DEN
    if n_steps < TAIL_BITS:
        raise ValueError("coded block shorter than the zero tail")
    if not np.isfinite(llr).all():
        raise ValueError("LLRs must be finite")
    if np.abs(llr).max() >= _PM_LIMIT / llr.size:
        raise ValueError("LLR magnitudes are too large: path metrics would overflow")

    pm = np.full(_N_STATES, -1e18)
    pm[0] = 0.0
    pm_pairs = pm.reshape(_HALF, 2)  # new metrics, state 2j + b at [j, b]
    pm_halves = pm.reshape(2, _HALF, 1)  # old metrics, state 32h + j at [h, j]
    cand = np.empty((_CHUNK, 2, _HALF, 2))
    steps = [(cand[c], cand[c, 0], cand[c, 1]) for c in range(_CHUNK)]
    survivors = np.empty((n_steps, _N_STATES // 8), dtype=np.uint8)
    add, maximum = np.add, np.maximum  # bound once: the inner loop is call-bound

    for t0 in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - t0)
        seg = llr[RATE_DEN * t0 : RATE_DEN * (t0 + m)]
        bm = seg[0::2, None] * _SGN0 + seg[1::2, None] * _SGN1
        np.take(bm, _CODE_INDEX, axis=1, out=cand[:m])
        for both, from_j, from_j32 in steps[:m]:
            add(both, pm_halves, out=both)
            maximum(from_j, from_j32, out=pm_pairs)
        # `cand` still holds every candidate of the chunk: decide them all at once
        took_j32 = cand[:m, 1] > cand[:m, 0]
        survivors[t0 : t0 + m] = np.packbits(took_j32.reshape(m, _N_STATES), axis=1, bitorder="little")

    # zero-tail: traceback from state 0; state s's bit of step t is bit s % 8 of byte 8t + s // 8
    table = memoryview(survivors).cast("B")
    bits = bytearray(n_steps)
    state = 0
    for t in range(n_steps - 1, -1, -1):
        bits[t] = state & 1
        bit = (table[8 * t + (state >> 3)] >> (state & 7)) & 1
        state = (state >> 1) | (bit << (TAIL_BITS - 1))
    return np.frombuffer(bits, dtype=np.uint8)[: n_steps - TAIL_BITS]
