"""OFDM baseband transmitter and the combiner/attenuator rig.

The waveform mirrors an LTE-like 10 MHz configuration: 1024-point FFT at
15.36 MHz sampling (15 kHz subcarrier spacing), 600 active subcarriers
centered around an unused DC bin, comb pilots on every 8th active
subcarrier, 16QAM data, and a repeated-half preamble for timing metric
synchronization.  All processing is complex baseband.

Frames carry their transmitted data symbols so a receiver can compute a
reference (genie) EVM.  `impair` models the measurement rig: two adjustable
attenuators into a signal combiner plus receiver noise, with the interferer
free-running at an arbitrary (asynchronous) sample offset.
"""

import ctypes
import math
import operator
import sys
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fec import TAIL_BITS, fec_encode

BITS_PER_SYMBOL = 4  # 16QAM
_QAM_SCALE = 1.0 / math.sqrt(10.0)
_QAM_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0])
# 16QAM point of each 4-bit pattern (I0, I1, Q0, Q1) read as a binary number
_GRAY_LEVELS = np.array([1.0, 3.0, -1.0, -3.0])  # (1-2*u0)*(1+2*u1) for u0u1 = 00, 01, 10, 11
_QAM_POINTS = (_GRAY_LEVELS.repeat(4) + 1j * np.tile(_GRAY_LEVELS, 4)) * _QAM_SCALE
_U64 = (1 << 64) - 1  # splitmix64 works mod 2**64

# fixed waveform constants, not run seeds: they seed the pilot and preamble sequences
_PILOT_SEED = 0x0FD1
_PREAMBLE_SEED = 0x0FD2


@dataclass(frozen=True)
class OfdmParams:
    fft_size: int = 1024
    cp_length: int = 128
    active_subcarriers: int = 600
    pilot_spacing: int = 8
    sampling_rate_hz: float = 15.36e6
    preamble_boost_db: float = 3.0

    def __post_init__(self):
        if self.active_subcarriers >= self.fft_size:
            raise ValueError("active_subcarriers must be < fft_size")
        if self.cp_length >= self.fft_size:
            raise ValueError("cp_length must be < fft_size")
        if self.active_subcarriers % 2 != 0:
            raise ValueError("active_subcarriers must be even (symmetric around DC)")
        if self.pilot_spacing < 2 or self.active_subcarriers % self.pilot_spacing != 0:
            raise ValueError("pilot_spacing must be >= 2 and divide active_subcarriers")
        if self.fft_size % 2 != 0:
            raise ValueError("fft_size must be even")

    @property
    def symbol_samples(self) -> int:
        return self.fft_size + self.cp_length

    @property
    def preamble_samples(self) -> int:
        return self.fft_size

    @property
    def n_pilots(self) -> int:
        return self.active_subcarriers // self.pilot_spacing

    @property
    def n_data_subcarriers(self) -> int:
        return self.active_subcarriers - self.n_pilots

    def frame_samples(self, n_symbols: int) -> int:
        return self.preamble_samples + n_symbols * self.symbol_samples

    def payload_bits(self, n_symbols: int) -> int:
        """Payload size that exactly fills n_symbols after FEC.

        Each OFDM symbol carries one zero-tailed rate-1/2 code block: its
        4 coded bits per data subcarrier hold 2 * n_data_subcarriers input
        bits, of which TAIL_BITS are the tail (1,044 payload bits per symbol
        at the default numerology).
        """
        if n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        per_symbol = self.n_data_subcarriers * BITS_PER_SYMBOL // 2 - TAIL_BITS
        if per_symbol <= 0:
            raise ValueError("frame too small to carry the FEC tail")
        return n_symbols * per_symbol

    def data_power_share(self, n_symbols: int) -> float:
        """Average power of the data-symbol region of a unit-power frame.

        The preamble is boosted by preamble_boost_db before the whole frame
        is normalized to unit average power, so data samples carry
        T / (beta*N_pre + M) where T is the frame length, M the data-region
        length and beta the linear boost.
        """
        beta = 10.0 ** (self.preamble_boost_db / 10.0)
        m = n_symbols * self.symbol_samples
        t = self.preamble_samples + m
        return t / (beta * self.preamble_samples + m)


class _SubcarrierMaps(NamedTuple):
    bins: np.ndarray  # FFT bin of each active subcarrier, in logical order
    pilot_pos: np.ndarray  # pilot positions among the active subcarriers
    data_pos: np.ndarray  # data positions among the active subcarriers
    logical: np.ndarray  # signed subcarrier index of each active subcarrier
    pilot_bins: np.ndarray  # bins[pilot_pos]
    data_bins: np.ndarray  # bins[data_pos]


def _read_only(a: np.ndarray) -> np.ndarray:
    """Freeze a cached array so no caller can corrupt later frames through it."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def _subcarrier_maps(params: OfdmParams) -> _SubcarrierMaps:
    """FFT bin numbers of active subcarriers plus pilot/data positions."""
    half = params.active_subcarriers // 2
    n = params.fft_size
    # logical order: -half..-1 then +1..+half (DC unused)
    logical = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    bins = np.where(logical < 0, logical + n, logical)
    pilot_pos = np.arange(0, params.active_subcarriers, params.pilot_spacing)
    data_pos = np.flatnonzero(np.arange(params.active_subcarriers) % params.pilot_spacing)
    maps = (bins, pilot_pos, data_pos, logical, bins[pilot_pos], bins[data_pos])
    return _SubcarrierMaps(*(_read_only(a) for a in maps))


@lru_cache(maxsize=32)
def _pilot_matrix(params: OfdmParams, n_symbols: int, pilot_stream: int = 0) -> np.ndarray:
    """Fixed pseudo-random QPSK pilot sequence, one row per OFDM symbol.

    The sequence advances from symbol to symbol and is scrambled per
    transmitter (pilot_stream id, like cell-specific reference scrambling),
    so a co-channel transmitter running the same frame clock can never stay
    coherent on the victim's pilot bins across a frame.
    """
    rows = np.empty((n_symbols, params.n_pilots), dtype=np.complex128)
    for s in range(n_symbols):
        rng = np.random.default_rng(np.random.SeedSequence([_PILOT_SEED, pilot_stream, s]))
        q = rng.integers(0, 4, size=params.n_pilots)
        rows[s] = np.exp(1j * (math.pi / 4.0 + math.pi / 2.0 * q))
    return _read_only(rows)


@lru_cache(maxsize=8)
def _preamble(params: OfdmParams) -> np.ndarray:
    """Time-domain preamble: two identical halves, unit average power.

    Loading only even subcarriers makes the IFFT output periodic with
    period fft_size/2, which is what the half-lag timing metric detects.
    """
    maps = _subcarrier_maps(params)
    even = maps.logical % 2 == 0
    rng = np.random.default_rng(_PREAMBLE_SEED)
    q = rng.integers(0, 4, size=int(np.sum(even)))
    spectrum = np.zeros(params.fft_size, dtype=np.complex128)
    spectrum[maps.bins[even]] = np.exp(1j * (math.pi / 4.0 + math.pi / 2.0 * q))
    t = np.fft.ifft(spectrum)
    return _read_only(t / np.sqrt(np.mean(np.abs(t) ** 2)))


def map_16qam(bits) -> np.ndarray:
    """Gray-mapped 16QAM with unit average energy.

    Per axis, bit pair (u0, u1) maps to level (1-2*u0)*(1+2*u1); the four
    bits of a symbol are (I0, I1, Q0, Q1), so 0000 -> (1+1j)/sqrt(10).
    """
    # a uint8 array, as fec_encode gives, is indexed as it is: its bits' shifted sum stays under 16
    b = (bits if isinstance(bits, np.ndarray) and bits.dtype == np.uint8 else np.asarray(bits, dtype=np.int64)).ravel()
    if b.size % BITS_PER_SYMBOL != 0:
        raise ValueError(f"bit count must be a multiple of {BITS_PER_SYMBOL}")
    if b.size and (b.min() < 0 or b.max() > 1):
        raise ValueError("bits must be 0 or 1")
    return _QAM_POINTS[b[0::4] << 3 | b[1::4] << 2 | b[2::4] << 1 | b[3::4]]


def demap_16qam(symbols) -> np.ndarray:
    """Demap 16QAM symbols to one LLR per bit (positive means bit 0).

    The LLRs are exact min-distance differences over the four levels of
    each axis; the scale is arbitrary, which is fine for the
    max-correlation Viterbi decoder downstream.
    """
    y = np.asarray(symbols, dtype=np.complex128).ravel() / _QAM_SCALE
    out = np.empty((y.size, BITS_PER_SYMBOL))
    for col, axis in ((0, y.real), (2, y.imag)):
        # one contiguous array per level, in level order (-3, -1, +1, +3) <-> axis bit pairs (11, 10, 00, 01)
        d0, d1, d2, d3 = ((axis - level) ** 2 for level in _QAM_LEVELS)
        out[:, col] = np.minimum(d0, d1) - np.minimum(d2, d3)
        out[:, col + 1] = np.minimum(d0, d3) - np.minimum(d1, d2)
    return out.ravel()


@dataclass(frozen=True)
class FrameBuffer:
    """A transmitted frame: preamble followed by CP-prefixed OFDM symbols.

    data_symbols holds the unit-energy constellation points actually sent
    on the data subcarriers (one row per OFDM symbol); receivers use them
    as the EVM reference.
    """

    samples: np.ndarray
    params: OfdmParams
    n_symbols: int
    data_symbols: np.ndarray
    payload: np.ndarray

    def __post_init__(self):
        expect = self.params.frame_samples(self.n_symbols)
        if self.samples.size != expect:
            raise ValueError(f"frame length {self.samples.size} != expected {expect}")

    def body_stream(self) -> np.ndarray:
        """The frame without its preamble, renormalized to unit average power.

        This is what a victim receiver sees of an unsynchronized co-channel
        transmitter: a continuous run of data symbols.  Feeding this (rather
        than a full frame) to `impair` keeps the interferer from presenting
        a lock-able preamble of its own.
        """
        body = self.samples[self.params.preamble_samples :]
        return body * (1.0 / np.sqrt(np.mean(np.abs(body) ** 2)))


@cache
def _retain_freed_heap() -> None:
    """Keep freed buffers on the heap instead of handing them back to the OS.

    A waveform point or a decoded frame frees a few MB; glibc's adaptive
    trim threshold often returned them, to be faulted in again on the next
    point or frame (~2 ms each).  Every waveform path builds a frame first.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform.startswith("linux") else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: buffers below 32 MB come from the heap
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MB of freed heap


def build_frame(params: OfdmParams, payload_bits, pilot_stream: int = 0) -> FrameBuffer:
    """FEC-encode, map, and modulate a payload into a baseband frame.

    The payload must exactly fill a whole number of OFDM symbols (see
    OfdmParams.payload_bits).  Each symbol's share of it is encoded as its
    own zero-tailed code block, so block k is the coded bits of symbol k
    and decodes on its own.  The emitted frame has unit average sample
    power.  pilot_stream selects the transmitter's pilot scrambling;
    co-channel transmitters should use distinct ids.  The first call sets
    the process's heap policy (`_retain_freed_heap`).
    """
    _retain_freed_heap()
    payload = np.asarray(payload_bits, dtype=np.uint8).ravel()
    per_symbol = params.payload_bits(1)
    n_symbols = payload.size // per_symbol
    if n_symbols == 0 or payload.size % per_symbol != 0:
        good = params.payload_bits(max(1, round(payload.size / per_symbol)))
        raise ValueError(
            f"payload of {payload.size} bits does not fill whole OFDM symbols; "
            f"nearest valid size is {good} (see OfdmParams.payload_bits)"
        )

    coded = fec_encode(payload.reshape(n_symbols, per_symbol))
    syms = map_16qam(coded).reshape(n_symbols, params.n_data_subcarriers)

    # the active subcarriers in logical order, as (n_pilots, pilot_spacing): each pilot, then the data after it
    active = np.empty((n_symbols, params.n_pilots, params.pilot_spacing), dtype=np.complex128)
    active[:, :, 0] = _pilot_matrix(params, n_symbols, pilot_stream)
    active[:, :, 1:] = syms.reshape(n_symbols, params.n_pilots, -1)
    t, half = np.zeros((n_symbols, params.fft_size), dtype=np.complex128), params.active_subcarriers // 2
    t[:, -half:], t[:, 1 : half + 1] = np.split(active.reshape(n_symbols, -1), 2, axis=1)  # DC stays unused
    np.fft.ifft(t, axis=1, out=t)

    cp = params.cp_length
    samples = np.empty(params.frame_samples(n_symbols), dtype=np.complex128)
    body = samples[params.preamble_samples :]
    rows = body.reshape(n_symbols, params.symbol_samples)
    rows[:, :cp] = t[:, -cp:]
    rows[:, cp:] = t

    body_power = np.mean(np.abs(body) ** 2)
    boost = 10.0 ** (params.preamble_boost_db / 10.0)
    np.multiply(_preamble(params), math.sqrt(boost * body_power), out=samples[: params.preamble_samples])
    samples *= 1.0 / np.sqrt(np.mean(np.abs(samples) ** 2))  # complex / real already multiplies by the reciprocal

    return FrameBuffer(samples, params, n_symbols, syms, payload)


def _as_samples(x) -> np.ndarray:
    return x.samples if isinstance(x, FrameBuffer) else np.asarray(x, dtype=np.complex128)


def splitmix64(z):
    """SplitMix64's finaliser (Steele, Lea & Flood, OOPSLA 2014) of a uint64 array or an int, mod 2**64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _U64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _U64
    return z ^ (z >> 31)


def interferer_delay(seed, n: int):
    """`impair`'s delay d = splitmix64(seed) * n >> 64, uniform on [0, n): the delayed sample k is i[(k - d) mod n].

    seed is an int, or a uint64 array for n < 2**32, whose product is formed exactly in 32-bit halves.
    """
    z = splitmix64(seed if isinstance(seed, np.ndarray) else operator.index(seed))
    return ((z >> 32) * n + ((z & 0xFFFFFFFF) * n >> 32)) >> 32


def repeated_stream(stream: np.ndarray, extra: int) -> np.ndarray:
    """The stream, then `extra` samples more of it repeated: each circular window of extra + 1 is a slice."""
    if stream.size == 0:
        raise ValueError("interferer is empty: it has no sample to delay")
    copies, part = divmod(stream.size + extra, stream.size)
    return np.concatenate((stream,) * copies + (stream[:part],))


def delayed_interferer(interferer: np.ndarray, length: int) -> np.ndarray:
    """Every delay of the interferer, repeated or cut to length: row d, for d in [0, n], is i[(k - d) mod n].

    A read-only (n + 1, length) view of windows over `repeated_stream(interferer, length)`, the last
    window first.  It is the one definition of a delayed interferer; an empty interferer raises ValueError.
    """
    return sliding_window_view(repeated_stream(interferer, length), length)[::-1]


def impair(
    desired,
    interferer,
    atten_desired_db: float,
    atten_interferer_db: float = math.inf,
    noise_power_dbm: float = -math.inf,
    seed: int = 0,
    *,
    length: int | None = None,
) -> np.ndarray:
    """Combine attenuated desired and interferer signals plus receiver noise.

    Power accounting is relative to the 0 dBm unit-power reference: a frame
    attenuated by A dB arrives at -A dBm.  The interferer is added as row
    `interferer_delay(seed, len(interferer))` of
    `delayed_interferer(interferer, len(desired))`, modeling an
    unsynchronized transmitter.  Noise is circular complex Gaussian with
    total power noise_power_dbm, I then Q drawn from default_rng(seed),
    which is built only when noise is drawn.  A given seed always gives the
    same output.  A length in 0..len(desired) forms only the output's first
    `length` samples, bit for bit: I is drawn for every sample, then Q for these.
    """
    d = _as_samples(desired)
    if not 0 <= (n := d.size if length is None else length) <= d.size:
        raise ValueError(f"length {length} is not within 0..{d.size}, the desired signal's samples")
    out = d[:n] * 10.0 ** (-atten_desired_db / 20.0)

    if interferer is not None and atten_interferer_db != math.inf:
        i = _as_samples(interferer)
        gain = 10.0 ** (-atten_interferer_db / 20.0)
        out += delayed_interferer(i, n)[interferer_delay(seed, i.size)] * gain

    if noise_power_dbm != -math.inf:
        # consecutive draws are one stream: I for all d.size samples, then the Q that n of them need
        noise = np.random.default_rng(seed).standard_normal(d.size + n)
        noise *= math.sqrt(10.0 ** (noise_power_dbm / 10.0) / 2.0)
        out.real += noise[:n]
        out.imag += noise[d.size :]

    return out


def noise_power_for_subcarrier_snr(params: OfdmParams, snr_db: float, n_symbols: int) -> float:
    """Time-domain noise power (dBm-relative) hitting a per-subcarrier SNR target.

    For a unit-power frame the data bins carry data_power_share * N^2 / A
    each, while white noise of time power sigma^2 lands N*sigma^2 in every
    bin, so sigma^2 = share * N / (A * snr_lin).
    """
    if snr_db == math.inf:
        return -math.inf
    share = params.data_power_share(n_symbols)
    sigma2 = share * params.fft_size / (params.active_subcarriers * 10.0 ** (snr_db / 10.0))
    return 10.0 * math.log10(sigma2)


def write_iq(path, samples) -> None:
    """Dump samples as interleaved 32-bit little-endian float (I, Q) pairs."""
    _as_samples(samples).astype("<c8").tofile(path)
