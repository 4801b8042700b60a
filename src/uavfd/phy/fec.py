"""Rate-1/2 convolutional FEC, constraint length 7, generators (133, 171) octal.

The encoder is zero-tail terminated: six flush zeros are appended so the
trellis starts and ends in state 0, which the decoder exploits.  An empty
payload encodes to the bare 12-bit tail.  The decoder is a
maximum-likelihood Viterbi over the 64-state trellis and never fails on a
valid block; it returns the most likely payload.  Branch metrics are soft
correlations, so callers may pass LLRs directly (positive LLR means bit 0)
or hard 0/1 decisions.

Both work along the last axis: a (B, n) array is B independent code
blocks, one per row.  The modem sends one block per OFDM symbol, so a
frame decodes as rows in lockstep: every ufunc call of a trellis step
advances all B trellises, and the call count is set by the block length,
not by the frame's.  A 1-D array is the one-row case.  Each row decodes
bit for bit as it would alone: it sees the same sums and the same tie rule.

The decoder is laid out on the radix-2 butterfly of the trellis.  State
s = 2j + b (b the newest input bit) is reached from j and from j + 32, and
both transitions send the coded pair fixed by `_CODE_INDEX[h, j, b]`
(h = 0 for j, 1 for j + 32).  One trellis step is therefore two ufunc calls
on fixed views of preallocated buffers: an add of the path metrics, seen as
(2, 32, 1, B), to the (2, 32, 2, B) branch metrics, and a maximum over the
leading axis, which writes the new metrics in state order.  The row axis is
innermost, so each call runs over contiguous runs of B values.  Per chunk
of 32 steps the branch metrics are gathered and the decisions written to a
bool table, state-major with the rows innermost.  The traceback (Forney's
survivor memory) runs the rows in lockstep too: per chunk, one multiply and
one add turn decisions into predecessor indices, and each step back is one
`take` for all B rows, so a long 1-D block pays a call per step.  Working
memory per row: 82 bytes per step (decisions 64, LLRs 16, state indices 2;
+16 for a non-float64 input, +6 past 1,024 rows) and 37 KiB of chunk
buffers (candidates 32, branch metrics 1, predecessor table 4, or 16 past
1,024 rows).  At 32 steps a 28-row frame's candidates take 0.9 MB, so a
chunk's gather, steps and decisions stay in a 2 MiB L2 cache.
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
    """Encode payload bits along the last axis; output interleaves the two generator streams.

    A (B, n) input is B code blocks, each zero-tailed on its own, and gives
    (B, coded_length(n)); a 1-D input is one block.
    """
    u = np.atleast_1d(np.asarray(bits, dtype=np.uint8))
    if np.any(u > 1):
        raise ValueError("payload must be 0/1 bits")
    u_tail = np.concatenate([u, np.zeros(u.shape[:-1] + (TAIL_BITS,), dtype=np.uint8)], axis=-1)
    n = u_tail.shape[-1]
    out = np.empty(u.shape[:-1] + (RATE_DEN * n,), dtype=np.uint8)
    for g, delays in enumerate(_TAP_DELAYS):
        # GF(2) convolution: XOR of the delayed copies selected by the taps
        acc = np.zeros_like(u_tail)
        for k in delays:
            acc[..., k:] ^= u_tail[..., : n - k]
        out[..., g::RATE_DEN] = acc
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
# branch-metric signs (1 - 2*o) of each coded bit, per code index 2*o0 + o1, as columns over the rows
_SGN0 = np.array([[1.0], [1.0], [-1.0], [-1.0]])
_SGN1 = np.array([[1.0], [-1.0], [1.0], [-1.0]])
_CHUNK = 32  # trellis steps per branch-metric gather, decision write and traceback table
# a path metric's magnitude never exceeds the 1e18 start offset plus the sum
# of all |LLR|; bounding that sum by half the float range leaves ample room
# for rounding, so no metric can overflow to inf (and inf - inf to NaN)
_PM_LIMIT = np.finfo(np.float64).max / 2


def fec_decode(coded) -> np.ndarray:
    """Viterbi-decode code blocks back to payload bits, along the last axis.

    `coded` is either a float array of LLRs (one per coded bit, positive
    means bit 0) or an integer/bool array of hard 0/1 decisions.  A (B, n)
    input is B blocks decoded in lockstep and gives (B, n // 2 - TAIL_BITS)
    payload bits; a 1-D input is one block.  The tail is stripped from the
    returned payload.  Raises ValueError for a length that is odd or shorter
    than the tail, for hard decisions other than 0/1, for NaN or infinite
    LLRs, and for a block whose LLRs are so large that its path metrics
    would overflow.  An input of zero blocks gives an empty payload.

    Each step adds the branch metrics to both predecessors of every state
    and keeps the larger sum.  On a tie the predecessor j wins over j + 32
    (survivor bit 0).  The module docstring gives the working memory.
    """
    arr = np.atleast_1d(np.asarray(coded))
    if arr.dtype == np.bool_ or np.issubdtype(arr.dtype, np.integer):
        if np.any((arr != 0) & (arr != 1)):
            raise ValueError("hard decisions must be 0/1 bits")
        llr = 1.0 - 2.0 * arr.astype(np.float64)
    else:
        llr = arr.astype(np.float64, copy=False)
    n_llr = llr.shape[-1]
    if n_llr % RATE_DEN != 0:
        raise ValueError(f"LLR count must be a multiple of {RATE_DEN}")
    n_steps = n_llr // RATE_DEN
    if n_steps < TAIL_BITS:
        raise ValueError("coded block shorter than the zero tail")
    if not np.isfinite(llr).all():
        raise ValueError("LLRs must be finite")
    # the bound is per row, by the row's length: a row that decodes alone also decodes in a batch
    if np.abs(llr).max(initial=0.0) >= _PM_LIMIT / n_llr:
        raise ValueError("LLR magnitudes are too large: path metrics would overflow")

    rows = llr.reshape(-1, n_llr)
    n_rows = rows.shape[0]
    cols = np.ascontiguousarray(rows.T)  # (n_llr, B): the row axis innermost
    pm = np.full((_N_STATES, n_rows), -1e18)
    pm[0] = 0.0
    pm_pairs = pm.reshape(_HALF, 2, n_rows)  # new metrics, state 2j + b at [j, b]
    pm_halves = pm.reshape(2, _HALF, 1, n_rows)  # old metrics, state 32h + j at [h, j]
    cand = np.empty((min(_CHUNK, n_steps), 2, _HALF, 2, n_rows))  # a short block sizes its own chunk
    steps = [(cand[c], cand[c, 0], cand[c, 1]) for c in range(len(cand))]
    took_j32 = np.empty((n_steps, _N_STATES, n_rows), dtype=np.bool_)  # state-major, rows innermost
    add, maximum = np.add, np.maximum  # bound once: the inner loop is call-bound

    for t0 in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - t0)
        seg = cols[RATE_DEN * t0 : RATE_DEN * (t0 + m)]
        bm = seg[0::2, None] * _SGN0 + seg[1::2, None] * _SGN1  # (m, 4, B)
        # indices are in range, so "clip" only spares the buffered copy that "raise" makes of `out`
        np.take(bm, _CODE_INDEX, axis=1, out=cand[:m], mode="clip")
        for both, from_j, from_j32 in steps[:m]:
            add(both, pm_halves, out=both)
            maximum(from_j, from_j32, out=pm_pairs)
        # `cand` still holds every candidate of the chunk: decide them all at once, in state order
        np.greater(cand[:m, 1], cand[:m, 0], out=took_j32[t0 : t0 + m].reshape(m, _HALF, 2, n_rows))

    # zero-tail traceback from state 0: idx[t] is s*B + r for row r's state s after step t - 1,
    # and tab[k] maps it to its survivor predecessor's index ((s >> 1) + 32*d) * B + r
    index = np.uint16 if _N_STATES * n_rows <= 1 << 16 else np.intp
    pred_j = ((np.arange(_N_STATES) >> 1)[:, None] * n_rows + np.arange(n_rows)).astype(index).ravel()
    tab = np.empty((len(cand), _N_STATES * n_rows), dtype=index)
    idx = np.empty((n_steps + 1, n_rows), dtype=index)
    idx[n_steps] = np.arange(n_rows)
    for t0 in reversed(range(0, n_steps, _CHUNK)):
        m = min(_CHUNK, n_steps - t0)
        np.multiply(took_j32[t0 : t0 + m].reshape(m, -1), index(_HALF * n_rows), out=tab[:m])
        np.add(tab[:m], pred_j, out=tab[:m])
        for k in range(m - 1, -1, -1):
            tab[k].take(idx[t0 + k + 1], out=idx[t0 + k], mode="clip")
    payload = (idx[1 : n_steps - TAIL_BITS + 1] // n_rows & 1).T.astype(np.uint8, order="C")
    return payload.reshape(llr.shape[:-1] + (n_steps - TAIL_BITS,))
