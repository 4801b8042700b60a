"""OFDM receiver: timing synchronization, channel estimation, EVM.

Synchronization computes the classic half-lag autocorrelation timing
metric: the preamble's two identical halves make |P(d)|/R(d) peak at the
preamble start, where P correlates each sample with its half-frame
successor and R is the trailing-half energy, the first window's sum slid
one sample at a time as Schmidl & Cox compute it.  The link is declared
down when the peak stays under the threshold, which is exactly what
happens when co-channel interference swamps the preamble.  A
matched-filter pass against the known preamble then refines the coarse
peak to the sample.

The coarse search covers only the starts from which the frame fits: up to
`slack + window`, the buffer's length beyond one frame plus the refinement
half-width, since a later peak refines past `slack`.  As in the constrained
maximum-likelihood timing of Schmidl & Cox (IEEE Trans. Commun. 45(12),
1997), a stronger peak where the frame cannot fit never captures the start.
`gate_metric` of the first `gate_length` samples is the peak `synchronize`
thresholds; it works along the last axis, so the waveform sweep gates its
interfered points' heads (1,088 samples each) as the rows of one array per
chunk.  `gate_bound` bounds that peak before a head x = D + g I is formed
(D the received head, g a gain, I a circular window of the interferer
stream).  At every start, by the triangle and Cauchy-Schwarz inequalities,
|p| <= A + g (sqrt(L E_max) + sqrt(E_max R)) + g^2 Pi and, where
g sqrt(E_min) > sqrt(R), r >= (g sqrt(E_min) - sqrt(R))^2 (else the bound
is inf): A, L and R are D's largest |p| and leading and trailing half-window
energies over its starts, Pi the stream's largest |p| and E_min and E_max its
extreme half-window energies over every circular start.  The sweep prunes a
head only where its bound is under 0.9 of SYNC_THRESHOLD, a margin rounding
cannot cross: there g sqrt(E_min) > 3.9 sqrt(R), so the bound's one
difference loses at most 1.7x to cancellation, and each statistic, like the
metric, is a difference of running sums of like energy, good to ~1e-12.

Frequency-offset de-rotation is applied only where it is used: to the
matched-filter window in `synchronize` and to the FFT windows (CP
removed, one row per symbol) in `receive_frame`.  Each window is
de-rotated from its own first sample, which differs from de-rotating the
whole buffer by one constant phase per window.  The matched filter's
magnitude ignores that phase, and the per-symbol common-phase correction
from the pilots removes it along with any residual offset (Speth et al.,
IEEE Trans. Commun. 47(11), 1999).

The channel in this rig is a static complex scalar (attenuators and a
combiner), so pilot least-squares estimates are averaged across the
frame's OFDM symbols before interpolation, and a per-symbol common phase
correction from the pilots absorbs any residual rotation introduced by the
frequency-offset corrector.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fec import fec_decode
from .modem import OfdmParams, _as_samples, _pilot_matrix, _preamble, _subcarrier_maps, demap_16qam

SYNC_THRESHOLD = 0.5
_ENERGY_EPS = np.finfo(np.float64).tiny  # the smallest normal float: the metric is scale-free down to it
_BOUND_BLOCK = 2048  # stream starts per block of gate_bound's statistics: about 200 KB of working arrays


@dataclass(frozen=True)
class SyncResult:
    success: bool
    metric: float
    frame_start: int | None = None  # first OFDM symbol (start of its CP)
    cfo_subcarriers: float | None = None


@dataclass(frozen=True)
class RxResult:
    sync_success: bool
    # synchronize's peak timing metric over the coarse starts from which the frame can fit (0.0 if none)
    sync_metric: float
    evm_rms: float | None = None
    payload: np.ndarray | None = None


def _derotate(rows: np.ndarray, cfo_subcarriers: float, fft_size: int) -> np.ndarray:
    """Undo a frequency offset on a C-sample window, or on each row of an (R, C) stack of them.

    Sample c of a row, counted from the row's own first sample, is multiplied by exp(w * c),
    w = -2*pi*i * cfo / fft_size.  Against the buffer's absolute index this leaves each row
    turned by a constant phase, which the pilots' common-phase correction absorbs.  The phasor
    is exp(w * 32a) exp(w * b) for c = 32a + b: 32 + C/32 exponentials rather than C of them.
    """
    w, n = -2j * math.pi * cfo_subcarriers / fft_size, rows.shape[-1]
    return rows * np.multiply.outer(np.exp(w * 32 * np.arange(-(-n // 32))), np.exp(w * np.arange(32))).ravel()[:n]


def _refine_window(params: OfdmParams) -> int:
    """Half-width, in samples, of the matched-filter refinement around the coarse timing peak."""
    return max(8, params.cp_length // 2)


def _timing_metric(x: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-lag correlation p[d] and timing metric |p[d]|/r[d] at every start d <= n - 2*half of x's last axis.

    An (R, n) x gives the 1-D results of its R rows.  p is the difference of
    one running sum from sample 0, so where a window's trailing half is silent
    it cancels to exactly 0, and so does the metric, however r rounds.  r needs
    no cancellation: it is Schmidl & Cox's recursion, the first window's energy
    then a running sum of the sample entering less the one leaving, each
    sample's energy re^2 + im^2 (np.abs would take a hypot only to square
    it).  Both sums run from a fixed start and read nothing past their
    window, so a head's metric is bit for bit the whole buffer's at its
    starts, and each row's is its 1-D call.
    """
    n = x.shape[-1]
    cs = np.empty((*x.shape[:-1], n - half + 1), dtype=np.complex128)  # cs[..., k] sums the first k terms
    cs[..., 0] = 0.0
    prod = np.conj(x[..., :-half])
    prod *= x[..., half:]
    np.cumsum(prod, axis=-1, out=cs[..., 1:])
    p = cs[..., half:] - cs[..., :-half]  # p[d] = sum over m<half of conj(x[d+m]) x[d+m+half]

    e = np.square(x[..., half:].real)  # e[..., m] = |x[half + m]|^2, for x of any strides
    e += np.square(x[..., half:].imag)
    r = np.empty(p.shape)  # r[d] = energy of the trailing half x[d+half : d+2*half]
    np.add.reduce(e[..., :half], axis=-1, out=r[..., 0])  # np.sum's pairwise sum, without its wrapper
    np.subtract(e[..., half:], e[..., : n - 2 * half], out=r[..., 1:])
    np.add.accumulate(r, axis=-1, out=r)

    metric = np.abs(p)
    metric /= np.maximum(r, _ENERGY_EPS, out=r)
    return p, metric


def gate_length(size: int, params: OfdmParams, n_symbols: int) -> int:
    """Samples `synchronize`'s coarse search reads of a size-sample buffer holding an n_symbols frame.

    Its starts run up to `last`: the buffer's length beyond one frame plus
    the refinement half-width, since a later peak refines past where the
    frame fits.  Their metric reads `last + fft_size` samples; below
    fft_size (last < 0) there is no such start.
    """
    return size - params.frame_samples(n_symbols) + _refine_window(params) + params.fft_size


def gate_metric(head: np.ndarray, params: OfdmParams):
    """The peak timing metric over every start of a head of at least fft_size samples.

    A 1-D head gives a float, an (R, L) array of heads an array of R peaks.
    """
    peak = np.max(_timing_metric(head, params.fft_size // 2)[1], axis=-1)
    return float(peak) if peak.ndim == 0 else peak


def gate_bound(head: np.ndarray, stream: np.ndarray, gains: np.ndarray, params: OfdmParams) -> np.ndarray:
    """For each gain g, a bound (see the module docstring) on `gate_metric(head + g * w)` over every circular
    head-length window w of stream, whose statistics are taken _BOUND_BLOCK starts at a time."""
    half = params.fft_size // 2

    def stats(x):  # x's largest |p| and the energy of each of its half-windows, as differences of running sums
        sums = [np.cumsum(v, out=v) for v in (np.conj(x[:-half]) * x[half:], np.square(x.real) + np.square(x.imag))]
        p, energies = (c[half - 1 :] - np.concatenate(([0.0], c[:-half])) for c in sums)
        return np.abs(p).max(), energies

    a, energies = stats(head)
    lead, trail = energies[:-half].max(), energies[half:].max()
    pi, e_min, e_max = 0.0, math.inf, 0.0
    for b in range(0, stream.size, _BOUND_BLOCK):
        p, energies = stats(stream.take(np.arange(b, b + _BOUND_BLOCK + 2 * half), mode="wrap"))
        pi, e_min, e_max = max(pi, p), min(e_min, energies.min()), max(e_max, energies.max())
    num = a + gains * (math.sqrt(lead * e_max) + math.sqrt(e_max * trail)) + np.square(gains) * pi
    root = gains * math.sqrt(e_min) - math.sqrt(trail)
    return np.divide(num, np.square(root), out=np.full(root.shape, math.inf), where=root > 0.0)


def synchronize(samples, params: OfdmParams, n_symbols: int) -> SyncResult:
    """Locate the start of an n_symbols frame, or fail when no usable preamble is found where it fits.

    The coarse timing metric peak over the starts in `gate_length` samples
    is the returned metric; success requires it to reach SYNC_THRESHOLD and
    the frame to fit from the start that cross-correlation with the known
    preamble refines it to.  The fractional frequency offset comes from the
    half-lag correlation phase; the coarse offset is removed from the
    matched-filter window only, not the buffer.
    """
    x = _as_samples(samples)
    head = min(x.size, gate_length(x.size, params, n_symbols))
    if head < params.fft_size:  # no start from which the frame fits
        return SyncResult(success=False, metric=0.0)

    p, metric = _timing_metric(x[:head], params.fft_size // 2)
    peak = int(np.argmax(metric))
    peak_metric = float(metric[peak])
    if peak_metric < SYNC_THRESHOLD:
        return SyncResult(success=False, metric=peak_metric)

    cfo_coarse = float(np.angle(p[peak]) / math.pi)

    # matched-filter refinement around the coarse peak; peak <= x.size - pre.size, so lo <= peak <= hi
    pre = _preamble(params)
    window = _refine_window(params)
    lo = max(0, peak - window)
    hi = min(x.size - pre.size, peak + window)
    seg = _derotate(x[lo : hi + pre.size], cfo_coarse, params.fft_size)
    xc = np.abs(np.correlate(seg, pre, mode="valid"))
    start = lo + int(np.argmax(xc))
    if start > x.size - params.frame_samples(n_symbols):
        return SyncResult(success=False, metric=peak_metric)

    # the half-lag phase at the refined start (start <= slack, a start of p) is the
    # cleanest offset estimate; at the exact start of a clean preamble it is identically zero
    cfo_sc = float(np.angle(p[start]) / math.pi)

    return SyncResult(
        success=True,
        metric=peak_metric,
        frame_start=start + params.preamble_samples,
        cfo_subcarriers=cfo_sc,
    )


def receive_frame(samples, params: OfdmParams, reference_symbols, decode: bool = True) -> RxResult:
    """Demodulate a frame and measure its EVM against the transmitted symbols.

    reference_symbols is the (n_symbols, n_data) matrix of unit-energy
    constellation points the transmitter sent (FrameBuffer.data_symbols);
    the EVM is the RMS distance of the equalized data symbols from it.
    The channel is estimated on the pilots of stream 0, the desired link's.
    Synchronization, which searches only the starts from which the frame
    fits, can fail; that propagates as a link-down result with no EVM.
    When decode is False the Viterbi stage is skipped and no payload is
    returned, which is considerably faster for EVM-only sweeps.  The
    estimated frequency offset is removed from the FFT windows only (the
    cyclic prefixes are skipped), and all symbols go through one FFT.
    """
    x = _as_samples(samples)
    ref = np.asarray(reference_symbols, dtype=np.complex128)
    if ref.ndim != 2:
        raise ValueError("reference_symbols must be (n_symbols, n_data)")
    n_symbols = ref.shape[0]

    sync = synchronize(x, params, n_symbols)
    if n_symbols == 0 or not sync.success:
        return RxResult(sync_success=False, sync_metric=sync.metric)
    needed = sync.frame_start + n_symbols * params.symbol_samples

    # (n_symbols, fft_size) view of the FFT windows, each starting past its CP
    cp = params.cp_length
    windows = x[sync.frame_start : needed].reshape(n_symbols, params.symbol_samples)[:, cp:]
    spectrum = _derotate(windows, sync.cfo_subcarriers, params.fft_size)
    np.fft.fft(spectrum, axis=1, out=spectrum)  # in place: _derotate's array is never the caller's samples

    maps = _subcarrier_maps(params)
    pilot_pos, data_pos = maps.pilot_pos, maps.data_pos
    pilots = _pilot_matrix(params, n_symbols, 0)
    rx_pilots = spectrum.take(maps.pilot_bins, axis=1)
    rx_data = spectrum.take(maps.data_bins, axis=1)

    # static channel: average the per-pilot LS estimates over the frame,
    # aligning each symbol's common phase first so any residual rotation
    # (e.g. from the frequency-offset corrector) cannot shrink the average
    h_per_symbol = rx_pilots / pilots
    align = np.angle(np.sum(h_per_symbol * np.conj(h_per_symbol[0])[None, :], axis=1))
    h_pilot = np.mean(h_per_symbol * np.exp(-1j * align)[:, None], axis=0)
    h_data = np.interp(data_pos, pilot_pos, h_pilot.real) + 1j * np.interp(data_pos, pilot_pos, h_pilot.imag)

    # per-symbol common phase from the pilots, then one-tap equalization
    cpe = np.angle(np.sum(rx_pilots * np.conj(h_pilot[None, :] * pilots), axis=1))
    y_eq = np.multiply(rx_data, 1.0 / h_data, out=rx_data)
    y_eq *= np.exp(-1j * cpe)[:, None]

    err = np.subtract(y_eq, ref).view(np.float64)  # |e|^2 is the sum of its two parts' squares
    evm = float(np.sqrt(np.sum(np.square(err, out=err)) / y_eq.size))

    payload = None
    if decode:
        # one zero-tailed code block per symbol (see build_frame), decoded as rows in lockstep
        llr = demap_16qam(y_eq.ravel()).reshape(n_symbols, -1)
        payload = fec_decode(llr).ravel()

    return RxResult(sync_success=True, sync_metric=sync.metric, evm_rms=evm, payload=payload)
