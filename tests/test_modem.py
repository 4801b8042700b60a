import itertools
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavfd.phy import (
    SYNC_THRESHOLD,
    OfdmParams,
    build_frame,
    demap_16qam,
    fec_encode,
    gate_length,
    gate_metric,
    impair,
    map_16qam,
    noise_power_for_subcarrier_snr,
    receive_frame,
    synchronize,
    write_iq,
)
from uavfd.phy import receiver
from uavfd.phy.fec import TAIL_BITS
from uavfd.phy.modem import (
    BITS_PER_SYMBOL,
    _QAM_SCALE,
    _pilot_matrix,
    _preamble,
    _subcarrier_maps,
    delayed_interferer,
    interferer_delay,
    splitmix64,
)
from uavfd.phy.receiver import _derotate, _refine_window, _timing_metric

P = OfdmParams()


def rand_frame(params, n_symbols, seed, pilot_stream=0):
    rng = np.random.default_rng(seed)
    return build_frame(params, rng.integers(0, 2, params.payload_bits(n_symbols)), pilot_stream)


# ----------------------------------------------------------------- 16QAM


def test_qam_anchor_point():
    assert map_16qam([0, 0, 0, 0])[0] == pytest.approx((1 + 1j) / math.sqrt(10))


def test_qam_unit_average_energy():
    all_bits = np.array(list(itertools.product([0, 1], repeat=4))).ravel()
    syms = map_16qam(all_bits)
    assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, abs=1e-15)


def test_qam_exhaustive_round_trip():
    patterns = np.array(list(itertools.product([0, 1], repeat=4)))
    syms = map_16qam(patterns.ravel())
    # positive LLR means bit 0
    assert np.array_equal((demap_16qam(syms) < 0).reshape(-1, 4), patterns)


def test_qam_soft_signs_match_hard():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, 400)
    noisy = map_16qam(bits) + 0.02 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    soft = demap_16qam(noisy)
    # the noise stays far inside the decision regions, so every hard decision is the sent bit;
    # positive LLR means bit 0
    assert np.array_equal((soft < 0).astype(np.uint8), bits)


def _demap_by_distance_matrix(symbols):
    """The LLRs from an (N, 4) matrix of squared distances to the levels of each axis, columns sliced."""
    y = np.asarray(symbols, dtype=np.complex128).ravel() / _QAM_SCALE
    out = np.empty((y.size, BITS_PER_SYMBOL))
    for col, axis in ((0, y.real), (2, y.imag)):
        d2 = (axis[:, None] - np.array([-3.0, -1.0, 1.0, 3.0])[None, :]) ** 2
        out[:, col] = np.minimum(d2[:, 0], d2[:, 1]) - np.minimum(d2[:, 2], d2[:, 3])
        out[:, col + 1] = np.minimum(d2[:, 0], d2[:, 3]) - np.minimum(d2[:, 1], d2[:, 2])
    return out.ravel()


def test_demap_is_bit_for_bit_the_distance_matrix_formula():
    # an axis value at 0, ±2 or ±4 (in level units) is equally far from two levels: a tie of some LLR;
    # the ties, their float neighbours and the levels go in on both axes, then 14,700 noisy symbols
    ties = np.array([0.0, -0.0, 2.0, -2.0, 4.0, -4.0])
    values = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), [-3.0, -1.0, 1.0, 3.0]])
    grid = (values[:, None] + 1j * values[None, :]).ravel() * _QAM_SCALE
    assert np.isin(ties, (grid / _QAM_SCALE).real).all()  # every tie reaches the demapper exact
    rng = np.random.default_rng(28)
    noisy = map_16qam(rng.integers(0, 2, 4 * 14_700)) + 0.3 * ([1, 1j] @ rng.standard_normal((2, 14_700)))
    for symbols in (grid, noisy):
        assert demap_16qam(symbols).tobytes() == _demap_by_distance_matrix(symbols).tobytes()


def test_qam_requires_bit_multiple():
    with pytest.raises(ValueError):
        map_16qam([0, 1, 0])


@pytest.mark.parametrize("bits", [[0, 0, 0, 2], [0, 0, 0, -1], [1, 1, 1, 16], [0, 1, 0, 1, 0, 0, 3, 0]])
def test_qam_rejects_non_binary_bits(bits):
    with pytest.raises(ValueError, match="0 or 1"):
        map_16qam(bits)


def _reference_map_16qam(bits):
    """The per-axis Gray formula: bit pair (u0, u1) maps to level (1-2*u0)*(1+2*u1)."""
    g = np.asarray(bits, dtype=np.int64).reshape(-1, 4)
    i = (1 - 2 * g[:, 0]) * (1 + 2 * g[:, 1])
    q = (1 - 2 * g[:, 2]) * (1 + 2 * g[:, 3])
    return (i + 1j * q) * _QAM_SCALE


def test_qam_table_matches_formula_bit_for_bit():
    patterns = np.array(list(itertools.product([0, 1], repeat=4))).ravel()
    assert np.array_equal(map_16qam(patterns), _reference_map_16qam(patterns))
    coded = fec_encode(np.random.default_rng(24).integers(0, 2, P.payload_bits(28)))
    assert P.payload_bits(28) == 29_232
    assert np.array_equal(map_16qam(coded), _reference_map_16qam(coded))


# ----------------------------------------------------------------- framing


def test_frame_length_default_one_symbol():
    fb = rand_frame(P, 1, seed=0)
    assert fb.samples.size == 1024 + (1024 + 128) == 2176
    assert fb.n_symbols == 1


def test_empty_payload_is_rejected():
    with pytest.raises(ValueError, match="nearest valid size is 1044"):
        build_frame(P, [])


def test_preamble_halves_identical():
    pre = _preamble(P)
    half = P.fft_size // 2
    assert np.allclose(pre[:half], pre[half:], atol=1e-12)
    assert np.mean(np.abs(pre) ** 2) == pytest.approx(1.0)


def test_frame_unit_average_power():
    for seed in range(20):
        fb = rand_frame(P, 2, seed)
        assert np.mean(np.abs(fb.samples) ** 2) == pytest.approx(1.0, rel=1e-2)


def test_payload_size_mismatch_raises():
    with pytest.raises(ValueError):
        build_frame(P, np.zeros(17, dtype=np.uint8))


@pytest.mark.parametrize("size,nearest", [(1043, 1044), (1045, 1044), (2087, 2088), (2089, 2088)])
def test_payload_size_error_names_the_nearest_valid_size(size, nearest):
    with pytest.raises(ValueError, match=f"payload of {size} bits .* nearest valid size is {nearest} "):
        build_frame(P, np.zeros(size, dtype=np.uint8))


@pytest.mark.parametrize(
    "params", [P, OfdmParams(fft_size=256, cp_length=32, active_subcarriers=120), OfdmParams(pilot_spacing=4)]
)
def test_payload_bits_is_one_zero_tailed_block_per_symbol(params):
    per_symbol = 2 * params.n_data_subcarriers - TAIL_BITS
    for n in (1, 2, 28):
        assert params.payload_bits(n) == n * per_symbol
    if params == P:
        assert per_symbol == 1044
    with pytest.raises(ValueError, match="FEC tail"):
        OfdmParams(fft_size=8, cp_length=2, active_subcarriers=4, pilot_spacing=2).payload_bits(1)


def test_frame_codes_each_symbol_as_its_own_block():
    fb = rand_frame(P, 3, seed=25)
    blocks = fb.payload.reshape(3, P.payload_bits(1))
    coded = np.concatenate([fec_encode(block) for block in blocks])
    assert coded.size == 3 * BITS_PER_SYMBOL * P.n_data_subcarriers
    # noiseless points demap to the coded bits they carry (positive LLR means bit 0)
    assert np.array_equal((demap_16qam(fb.data_symbols) < 0).astype(np.uint8), coded)


@pytest.mark.parametrize(
    "fft,cp,active,spacing,n_sym",
    [(256, 32, 120, 8, 3), (512, 64, 300, 10, 2), (1024, 128, 600, 8, 1), (128, 16, 48, 4, 5)],
)
def test_frame_length_formula(fft, cp, active, spacing, n_sym):
    params = OfdmParams(fft_size=fft, cp_length=cp, active_subcarriers=active, pilot_spacing=spacing)
    fb = rand_frame(params, n_sym, seed=1)
    assert fb.samples.size == fft + n_sym * (fft + cp)
    assert fb.data_symbols.shape == (n_sym, params.n_data_subcarriers)


def test_params_validation():
    with pytest.raises(ValueError):
        OfdmParams(active_subcarriers=1024)
    with pytest.raises(ValueError):
        OfdmParams(cp_length=1024)
    with pytest.raises(ValueError):
        OfdmParams(pilot_spacing=7)  # does not divide 600


def test_pilot_rows_differ_between_symbols_and_streams():
    rows = _pilot_matrix(P, 4)
    assert rows.shape == (4, P.n_pilots)
    assert not np.allclose(rows[0], rows[1])
    other = _pilot_matrix(P, 4, pilot_stream=1)
    assert not np.allclose(rows[0], other[0])
    assert np.allclose(np.abs(rows), 1.0)


def test_cached_arrays_are_read_only():
    cached = [_preamble(P), _pilot_matrix(P, 3, 0), *_subcarrier_maps(P)]
    for a in cached:
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize(
    "params",
    [P, OfdmParams(fft_size=128, cp_length=16, active_subcarriers=72, pilot_spacing=6), OfdmParams(64, 8, 48, 2)],
)
def test_data_positions_are_the_active_subcarriers_without_the_pilots(params):
    maps = _subcarrier_maps(params)
    want = np.setdiff1d(np.arange(params.active_subcarriers), maps.pilot_pos)
    assert maps.data_pos.dtype == want.dtype and np.array_equal(maps.data_pos, want)
    assert maps.data_pos.size == params.n_data_subcarriers


def per_symbol_reference_frame(params, fb, pilot_stream):
    """Loop-per-symbol transmitter, independent of the vectorised build_frame."""
    half = params.active_subcarriers // 2
    logical = np.r_[-half:0, 1 : half + 1]
    bins = logical % params.fft_size
    is_pilot = np.arange(params.active_subcarriers) % params.pilot_spacing == 0
    pilots = _pilot_matrix(params, fb.n_symbols, pilot_stream)
    body = []
    for s in range(fb.n_symbols):
        spectrum = np.zeros(params.fft_size, dtype=np.complex128)
        spectrum[bins[is_pilot]] = pilots[s]
        spectrum[bins[~is_pilot]] = fb.data_symbols[s]
        t = np.fft.ifft(spectrum)
        body += [t[-params.cp_length :], t]
    body = np.concatenate(body)
    boost = 10.0 ** (params.preamble_boost_db / 10.0)
    frame = np.concatenate([_preamble(params) * math.sqrt(boost * np.mean(np.abs(body) ** 2)), body])
    return frame / np.sqrt(np.mean(np.abs(frame) ** 2))


@pytest.mark.parametrize("pilot_stream", [0, 1])
def test_build_frame_matches_per_symbol_reference(pilot_stream):
    fb = rand_frame(P, 3, seed=8, pilot_stream=pilot_stream)
    np.testing.assert_allclose(fb.samples, per_symbol_reference_frame(P, fb, pilot_stream), rtol=0, atol=1e-13)


def test_fft_round_trip_preserves_norm():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    back = np.fft.ifft(np.fft.fft(x))
    assert np.linalg.norm(back - x) / np.linalg.norm(x) < 1e-12
    assert np.linalg.norm(np.fft.fft(x)) / math.sqrt(1024) == pytest.approx(np.linalg.norm(x), rel=1e-9)


# ----------------------------------------------------------------- impair


def test_impair_pure_desired():
    fb = rand_frame(P, 1, seed=2)
    out = impair(fb, None, atten_desired_db=20.0)
    assert np.allclose(out, fb.samples * 0.1, atol=1e-15)


def test_impair_interferer_level():
    # 0 dBm transmit + -80 dB channel -> arrives at -80 dBm
    fb = rand_frame(P, 2, seed=3)
    fi = rand_frame(P, 2, seed=4, pilot_stream=1)
    out = impair(fb, fi.body_stream(), atten_desired_db=math.inf, atten_interferer_db=80.0, seed=1)
    assert 10 * math.log10(np.mean(np.abs(out) ** 2)) == pytest.approx(-80.0, abs=0.2)


def test_impair_equal_powers_double():
    fb = rand_frame(P, 2, seed=5)
    fi = rand_frame(P, 2, seed=6, pilot_stream=1)
    powers = []
    for seed in range(30):
        out = impair(fb, fi.body_stream(), 0.0, 0.0, seed=seed)
        powers.append(np.mean(np.abs(out) ** 2))
    assert np.mean(powers) == pytest.approx(2.0, rel=0.05)


def test_impair_noise_power():
    fb = rand_frame(P, 2, seed=7)
    out = impair(fb, None, atten_desired_db=math.inf, noise_power_dbm=-20.0, seed=0)
    assert 10 * math.log10(np.mean(np.abs(out) ** 2)) == pytest.approx(-20.0, abs=0.3)


def test_impair_draw_order_is_delay_then_i_then_q():
    fb = rand_frame(P, 1, seed=8)
    fi = rand_frame(P, 1, seed=9, pilot_stream=1)
    out = impair(fb, fi.body_stream(), 3.0, 10.0, -30.0, seed=77)
    # the delay is the seed's mix scaled to the interferer's length; the noise is I, then Q, of default_rng(seed)
    i = np.roll(fi.body_stream(), splitmix64(77) * fi.body_stream().size >> 64)
    i = np.tile(i, 2)[: fb.samples.size]
    rng = np.random.default_rng(77)
    noise = rng.standard_normal(fb.samples.size) + 1j * rng.standard_normal(fb.samples.size)
    ref = fb.samples * 10 ** (-3.0 / 20) + i * 10 ** (-10.0 / 20) + noise * math.sqrt(1e-3 / 2)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "interferer_kind, seed", [("body", 0), ("body", 1234), ("frame", 0), ("frame", 4321), ("long", 5)]
)
def test_impair_leaves_inputs_untouched(interferer_kind, seed):
    # the in-place scaling may only touch impair's own shifted copy of the interferer, whether it
    # is shorter than the desired frame (repeated), as long, or longer (cut)
    fb = rand_frame(P, 2, seed=25)
    fi = rand_frame(P, 3 if interferer_kind == "long" else 2, seed=26, pilot_stream=1)
    interferer = fi.body_stream() if interferer_kind == "body" else fi.samples
    desired_before, interferer_before = fb.samples.copy(), interferer.copy()
    out = impair(fb, interferer, 3.0, 10.0, -30.0, seed=seed)
    assert np.array_equal(fb.samples, desired_before)
    assert np.array_equal(interferer, interferer_before)
    assert not np.shares_memory(out, fb.samples) and not np.shares_memory(out, interferer)


@pytest.mark.parametrize("n", [1, 7, 1088, 32256])
def test_interferer_delay_is_the_delay_impair_applies(n):
    # a ramp interferer on a zero desired signal shorter than, as long as and longer than it:
    # output sample k is i[(k - delay) mod n], and so is sample k of row `delay` of the delay table
    ramp = np.arange(n, dtype=np.complex128)
    for length in [0, 1, n - 1, n, 2 * n + 3]:
        want = lambda d: ramp[(np.arange(length) - d) % n]
        table = delayed_interferer(ramp, length)
        assert table.shape == (n + 1, length) and not table.flags.writeable
        for seed in [0, 1, 77, 2**63 + 5, *range(1000, 1040)]:
            delay = interferer_delay(seed, n)
            assert delay == splitmix64(seed) * n >> 64 and 0 <= delay < n
            out = impair(np.zeros(length, complex), ramp, 0.0, 0.0, seed=seed)
            assert np.array_equal(out, want(delay)) and np.array_equal(table[delay], want(delay))
        assert all(np.array_equal(table[d], want(d)) for d in {0, n - 1, n})


@pytest.mark.parametrize("desired", [np.ones(5, complex), np.ones(0, complex)])
def test_impair_rejects_an_empty_interferer(desired):
    with pytest.raises(ValueError, match="interferer is empty"):
        impair(desired, np.zeros(0, complex), 0.0, 0.0)
    with pytest.raises(ValueError, match="interferer is empty"):
        delayed_interferer(np.zeros(0, complex), desired.size)
    # an interferer left out at infinite attenuation is never delayed
    assert np.array_equal(impair(desired, np.zeros(0, complex), 0.0, math.inf), desired)


@pytest.mark.parametrize("n", [1, 7, 1088, 32256, 2**32 - 1])
def test_interferer_delay_of_a_key_array_is_the_int_rule_per_key(n):
    # the array path forms splitmix64(key) * n >> 64 in 32-bit halves; the oracle is the Python-int product
    rng = np.random.default_rng(n)
    keys = np.r_[np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64), rng.integers(0, 2**64, 20_000, np.uint64)]
    delays = interferer_delay(keys, n)
    assert delays.dtype == np.uint64
    assert delays.tolist() == [splitmix64(k) * n >> 64 for k in keys.tolist()]
    assert delays.tolist()[:4] == [interferer_delay(k, n) for k in keys.tolist()[:4]]


def _reference_impair(desired, interferer, atten_desired_db, atten_interferer_db, noise_power_dbm, seed):
    """The rig as np.roll by the seed's delay, np.tile and a cut to length, then default_rng(seed)'s (2, n) noise."""
    d = np.asarray(desired, dtype=np.complex128)
    out = d * 10.0 ** (-atten_desired_db / 20.0)
    i = np.roll(interferer, splitmix64(seed) * interferer.size >> 64)
    if i.size != d.size:
        i = np.tile(i, int(np.ceil(d.size / i.size)))[: d.size]
    i *= 10.0 ** (-atten_interferer_db / 20.0)
    out += i
    noise = np.random.default_rng(seed).standard_normal((2, d.size))
    noise *= math.sqrt(10.0 ** (noise_power_dbm / 10.0) / 2.0)
    out.real += noise[0]
    out.imag += noise[1]
    return out


_RIG_DESIRED = rand_frame(P, 2, seed=31)
_RIG_STREAM = rand_frame(P, 5, seed=32, pilot_stream=1).body_stream()
_RIG_EXACT = _RIG_DESIRED.samples.size
_RIG_SHORT = _RIG_EXACT // 3 - 1  # under a third of the desired frame: the interferer wraps three or more times


def _seed_drawing_delay(length, delay):
    """The first seed from which impair takes this delay for an interferer of this length."""
    return next(s for s in itertools.count() if splitmix64(s) * length >> 64 == delay)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    length=st.one_of(
        st.integers(1, _RIG_SHORT),
        st.integers(1, _RIG_EXACT - 1),
        st.just(_RIG_EXACT),
        st.integers(_RIG_EXACT + 1, _RIG_STREAM.size),
    ),
)
@example(seed=_seed_drawing_delay(_RIG_SHORT, 0), length=_RIG_SHORT)
@example(seed=_seed_drawing_delay(_RIG_SHORT, _RIG_SHORT - 1), length=_RIG_SHORT)
@example(seed=_seed_drawing_delay(_RIG_EXACT, 0), length=_RIG_EXACT)
@example(seed=_seed_drawing_delay(_RIG_EXACT, _RIG_EXACT - 1), length=_RIG_EXACT)
@example(seed=_seed_drawing_delay(_RIG_STREAM.size, 0), length=_RIG_STREAM.size)
@example(seed=_seed_drawing_delay(_RIG_STREAM.size, _RIG_STREAM.size - 1), length=_RIG_STREAM.size)
@example(seed=_seed_drawing_delay(7, 6), length=7)
def test_impair_matches_roll_and_tile_reference(seed, length):
    # interferers shorter than the desired frame (repeated), as long, and longer (cut); the examples
    # pin the first and the last delay
    interferer = _RIG_STREAM[:length]
    out = impair(_RIG_DESIRED, interferer, 3.0, 10.0, -30.0, seed=seed)
    ref = _reference_impair(_RIG_DESIRED.samples, interferer, 3.0, 10.0, -30.0, seed)
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))


_HEAD = gate_length(_RIG_EXACT, P, 2)  # what the sync gate reads of a one-frame buffer


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    length=st.integers(1, _RIG_STREAM.size),
    n=st.integers(0, _RIG_EXACT),
    atten=st.floats(-40.0, 40.0),
)
@example(seed=_seed_drawing_delay(_HEAD // 3, 0), length=_HEAD // 3, n=_HEAD, atten=10.0)
@example(seed=_seed_drawing_delay(_HEAD // 3, _HEAD // 3 - 1), length=_HEAD // 3, n=_HEAD, atten=10.0)
@example(seed=_seed_drawing_delay(_HEAD, 0), length=_HEAD, n=_HEAD, atten=10.0)
@example(seed=_seed_drawing_delay(_HEAD, _HEAD - 1), length=_HEAD, n=_HEAD, atten=10.0)
@example(seed=_seed_drawing_delay(_RIG_STREAM.size, 0), length=_RIG_STREAM.size, n=_HEAD, atten=10.0)
@example(
    seed=_seed_drawing_delay(_RIG_STREAM.size, _RIG_STREAM.size - 1), length=_RIG_STREAM.size, n=_HEAD, atten=10.0
)
def test_impair_of_a_head_is_the_head_of_impair(seed, length, n, atten):
    # without noise impair draws nothing: the delay comes from the seed alone and ignores the desired
    # length, and each output sample reads only its own inputs: the waveform sweep gates each point on such a head
    interferer = _RIG_STREAM[:length]
    head = impair(_RIG_DESIRED.samples[:n], interferer, 0.0, atten, -math.inf, seed)
    full = impair(_RIG_DESIRED, interferer, 0.0, atten, -math.inf, seed)
    assert np.array_equal(head.view(np.int64), full[:n].view(np.int64))


def test_impair_deterministic():
    fb = rand_frame(P, 1, seed=8)
    fi = rand_frame(P, 1, seed=9, pilot_stream=1)
    a = impair(fb, fi.body_stream(), 3.0, 10.0, -30.0, seed=77)
    b = impair(fb, fi.body_stream(), 3.0, 10.0, -30.0, seed=77)
    assert np.array_equal(a, b)


def test_body_stream_unit_power():
    fb = rand_frame(P, 3, seed=10)
    s = fb.body_stream()
    assert s.size == 3 * P.symbol_samples
    assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------- IQ dump


def read_iq(path) -> np.ndarray:
    """Oracle for write_iq: interleaved little-endian float32 (I, Q) pairs back to complex samples."""
    flat = np.fromfile(path, dtype="<f4")
    assert flat.size % 2 == 0
    return flat[0::2].astype(np.float64) + 1j * flat[1::2].astype(np.float64)


def test_iq_round_trip(tmp_path):
    fb = rand_frame(P, 1, seed=11)
    path = tmp_path / "frame.iq"
    write_iq(path, fb)
    back = read_iq(path)
    assert np.allclose(back, fb.samples, atol=1e-6)


def test_iq_byte_layout(tmp_path):
    path = tmp_path / "pair.iq"
    write_iq(path, np.array([1.5 - 2.5j]))
    raw = path.read_bytes()
    assert len(raw) == 8
    i, q = struct.unpack("<ff", raw)
    assert (i, q) == (1.5, -2.5)


# ----------------------------------------------------------------- sync


@pytest.mark.parametrize("delay", [0, 1, 7, 500, 2111, 5000])
def test_sync_recovers_delay(delay):
    fb = rand_frame(P, 2, seed=12)
    buf = np.concatenate([np.zeros(delay, complex), fb.samples, np.zeros(32, complex)])
    s = synchronize(buf, P, 2)
    assert s.success
    assert abs(s.frame_start - P.preamble_samples - delay) <= 2


def test_sync_noise_only_fails():
    rng = np.random.default_rng(13)
    noise = (rng.standard_normal(9000) + 1j * rng.standard_normal(9000)) / math.sqrt(2)
    s = synchronize(noise, P, 2)
    assert not s.success


def test_sync_too_short_buffer_fails():
    assert not synchronize(np.zeros(100, complex), P, 2).success


def test_sync_fails_under_heavy_interference():
    # SIR -20 dB: the desired preamble drowns; sync must fail almost always
    fb = rand_frame(P, 2, seed=14)
    failures = 0
    for seed in range(100):
        fi = rand_frame(P, 2, seed=20_000 + seed, pilot_stream=1)
        mixed = impair(fb, fi.body_stream(), 0.0, -20.0, seed=seed)
        failures += not synchronize(mixed, P, 2).success
    assert failures > 90


def test_sync_cfo_estimate_clean():
    fb = rand_frame(P, 2, seed=15)
    s = synchronize(fb.samples, P, 2)
    assert s.success
    assert abs(s.cfo_subcarriers) < 1e-6 / (P.sampling_rate_hz / P.fft_size)


@pytest.mark.parametrize("n_rows", [1, 28])
def test_derotate_matches_full_index_formula(n_rows):
    # one complex exponential per column, counted from each row's own first sample: every row gets the
    # same phasor, whatever the window's position in the buffer (its constant phase is the pilots' job)
    rng = np.random.default_rng(28 + n_rows)
    for _ in range(20):
        cfo = rng.uniform(-0.5, 0.5)
        # receive_frame's FFT windows are fft_size wide; synchronize's matched-filter window is not a multiple of 32
        n_cols = int(rng.choice([P.fft_size, int(rng.integers(1, 3_000))]))
        rows = rng.standard_normal((n_rows, n_cols)) + 1j * rng.standard_normal((n_rows, n_cols))
        want = rows * np.exp(-2j * math.pi * cfo * np.arange(n_cols) / P.fft_size)
        np.testing.assert_allclose(_derotate(rows, cfo, P.fft_size), want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(_derotate(rows[0], cfo, P.fft_size), want[0], rtol=1e-12, atol=0)  # 1-D, as in sync


def _with_cfo(x, cfo_subcarriers):
    return x * np.exp(2j * math.pi * cfo_subcarriers * np.arange(x.size) / P.fft_size)


@pytest.mark.parametrize("cfo", [0.03, -0.2])
def test_receive_corrects_injected_cfo(cfo):
    fb = rand_frame(P, 4, seed=27)
    buf = np.concatenate([np.zeros(300, complex), fb.samples, np.zeros(200, complex)])
    mixed = impair(buf, None, 0.0, math.inf, noise_power_for_subcarrier_snr(P, 20.0, 4), seed=3)
    clean = receive_frame(mixed, P, fb.data_symbols, decode=False)
    shifted = _with_cfo(mixed, cfo)
    s = synchronize(shifted, P, 4)
    assert s.success
    assert abs(s.cfo_subcarriers - cfo) < 0.01
    rx = receive_frame(shifted, P, fb.data_symbols, decode=False)
    assert rx.sync_success
    assert abs(20 * math.log10(rx.evm_rms / clean.evm_rms)) < 0.5


@pytest.mark.parametrize("cfo", [0.0, 0.07, -0.3])
def test_a_phase_per_ofdm_symbol_moves_neither_evm_nor_payload(cfo):
    # the common-phase correction absorbs any constant phase of a whole symbol, CP included: the licence for
    # de-rotating each FFT window from its own first sample rather than from its place in the buffer
    n_symbols, lead = 6, 300
    fb = rand_frame(P, n_symbols, seed=31)
    fi = rand_frame(P, n_symbols, seed=32, pilot_stream=1).body_stream()
    buf = np.concatenate([np.zeros(lead, complex), fb.samples, np.zeros(200, complex)])
    mixed = _with_cfo(impair(buf, fi, 0.0, 20.0, noise_power_for_subcarrier_snr(P, 18.0, n_symbols), seed=5), cfo)
    turned = mixed.copy()
    body = turned[lead + P.preamble_samples : lead + fb.samples.size].reshape(n_symbols, P.symbol_samples)
    body *= np.exp(2j * math.pi * np.random.default_rng(33).uniform(0.0, 1.0, n_symbols))[:, None]
    base = receive_frame(mixed, P, fb.data_symbols, decode=True)
    rx = receive_frame(turned, P, fb.data_symbols, decode=True)
    assert base.sync_success and rx.sync_success
    assert rx.evm_rms == pytest.approx(base.evm_rms, rel=1e-12, abs=0.0)
    np.testing.assert_array_equal(rx.payload, base.payload)
    np.testing.assert_array_equal(rx.payload, fb.payload)


_OFFSET_FRAME = rand_frame(P, 2, seed=29)
_OFFSET_INTERFERER = rand_frame(P, 2, seed=30, pilot_stream=1).body_stream()


@settings(max_examples=30, deadline=None)
@given(k=st.integers(0, 5_000), seed=st.integers(0, 3))
def test_prepended_offset_shifts_sync_only(k, seed):
    nd = noise_power_for_subcarrier_snr(P, 15.0, 2)
    mixed = _with_cfo(impair(_OFFSET_FRAME, _OFFSET_INTERFERER, 0.0, 15.0, nd, seed=seed), 0.1)
    base = receive_frame(mixed, P, _OFFSET_FRAME.data_symbols, decode=False)
    moved_x = np.r_[np.zeros(k, complex), mixed]
    moved = receive_frame(moved_x, P, _OFFSET_FRAME.data_symbols, decode=False)
    assert base.sync_success and moved.sync_success
    assert synchronize(moved_x, P, 2).frame_start == synchronize(mixed, P, 2).frame_start + k
    assert moved.evm_rms == pytest.approx(base.evm_rms, rel=1e-12)


def test_sync_finds_a_preamble_at_the_last_start_of_the_buffer():
    # a preamble ending the buffer puts the coarse peak on the metric's last start, x.size - fft_size:
    # the edge of the refinement window and of the half-lag correlation read for the offset estimate
    for lead in range(400):
        x = np.r_[np.zeros(lead, complex), _preamble(P)]
        assert int(np.argmax(_timing_metric(x, P.fft_size // 2)[1])) == x.size - P.fft_size
        s = synchronize(x, P, 0)
        assert s.success
        assert s.frame_start - P.preamble_samples == x.size - P.fft_size


# ----------------------------------------------------------------- sync gate

_GATE_FRAME = rand_frame(P, 2, seed=33)
_GATE_INTERFERER = rand_frame(P, 2, seed=34, pilot_stream=1).body_stream()
_GATE_SHAPES = ("exact", "padded", "short")


def _gate_buffer(shape, rng):
    """An impaired frame, mostly near the sync threshold, in a buffer one frame long, padded, or short.

    A short buffer has a lead of 0-31 samples and loses 1-95 at its end.  With the 64-sample
    refinement half-width, a cut under 64 leaves feasible starts that often hold the preamble, and a
    longer cut leaves none.
    """
    sir = rng.uniform(-4.0, 0.0) if rng.random() < 0.8 else rng.uniform(-20.0, 20.0)
    mixed = impair(_GATE_FRAME, _GATE_INTERFERER, 0.0, sir, -30.0, seed=int(rng.integers(2**63)))
    if shape == "exact":
        return mixed
    if shape == "padded":
        lead = np.zeros(int(rng.integers(0, 300)), complex)
        return np.r_[lead, mixed, np.zeros(int(rng.integers(1, 300)), complex)]
    return np.r_[np.zeros(int(rng.integers(0, 32)), complex), mixed][: mixed.size - int(rng.integers(1, 96))]


@pytest.mark.parametrize("shape", _GATE_SHAPES)
def test_receive_frame_syncs_exactly_when_the_feasible_search_fits_a_frame(shape):
    # oracle: the peak of the full buffer's timing metric over the starts from which the frame fits, at
    # most slack + window; the frame fits from its true start in an exact or padded buffer, never in a short one
    n_symbols = _GATE_FRAME.data_symbols.shape[0]
    last = _refine_window(P) - P.frame_samples(n_symbols)  # plus x.size
    rng = np.random.default_rng(_GATE_SHAPES.index(shape))
    outcomes, near = set(), 0
    for _ in range(150):
        x = _gate_buffer(shape, rng)
        metric = _timing_metric(x, P.fft_size // 2)[1][: max(0, x.size + last + 1)]
        peak = float(metric.max()) if metric.size else 0.0
        passes = peak >= SYNC_THRESHOLD
        rx = receive_frame(x, P, _GATE_FRAME.data_symbols, decode=False)
        assert rx.sync_success == (passes and shape != "short")
        assert rx.sync_metric == peak
        head = gate_length(x.size, P, n_symbols)
        assert rx.sync_metric == (gate_metric(x[:head], P) if head >= P.fft_size else 0.0)
        outcomes.add((passes, rx.sync_success))
        near += abs(peak - SYNC_THRESHOLD) < 0.05
    assert near >= 30
    # every outcome the buffer shape allows occurs: a short buffer never syncs, even where a feasible start passes
    assert outcomes == ({(True, False), (False, False)} if shape == "short" else {(True, True), (False, False)})


def test_a_stronger_peak_where_the_frame_cannot_fit_does_not_capture_sync():
    # interference lowers the preamble's peak to about 0.61; a repeated-half decoy 1,500 samples into this
    # one-frame buffer peaks at about 0.95, but no frame fits from there
    fb = rand_frame(P, 2, seed=35)
    x = impair(fb, rand_frame(P, 2, seed=36, pilot_stream=1).body_stream(), 0.0, 0.0, -math.inf, seed=5)
    half = [1.0, 1.0j] @ np.random.default_rng(37).standard_normal((2, P.fft_size // 2))
    x[1500 : 1500 + P.fft_size] += 4.0 * np.r_[half, half]
    metric = _timing_metric(x, P.fft_size // 2)[1]
    feasible = metric[: _refine_window(P) + 1]
    assert SYNC_THRESHOLD <= feasible.max() < 0.7 < metric.max() and metric.argmax() > 1400
    s = synchronize(x, P, 2)
    assert s.success and s.frame_start == P.preamble_samples and s.metric == feasible.max()
    rx = receive_frame(x, P, fb.data_symbols, decode=False)
    assert rx.sync_success and rx.sync_metric == s.metric


@pytest.mark.parametrize("rows,length", [(1, 1024), (3, 1088), (8, 1088), (16, 1500)])
def test_a_gate_metric_row_is_the_1d_call_on_that_head(rows, length):
    rng = np.random.default_rng(rows * length)
    heads = np.array([_gate_buffer("exact", rng)[:length] for _ in range(rows)])
    heads[0] = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    batched = gate_metric(heads, P)
    assert batched.shape == (rows,)
    for head, m in zip(heads, batched.tolist()):
        one = gate_metric(head, P)
        assert isinstance(one, float) and m.hex() == one.hex()
    p, metric = _timing_metric(heads, P.fft_size // 2)
    for r, head in enumerate(heads):
        p1, metric1 = _timing_metric(head, P.fft_size // 2)
        assert np.array_equal(p[r].view(np.int64), p1.view(np.int64))
        assert np.array_equal(metric[r].view(np.int64), metric1.view(np.int64))


@pytest.mark.parametrize("n_symbols", [2, 28])
@pytest.mark.parametrize("slack", [0, 1, 777, 40_000])
def test_head_timing_metric_is_bit_identical_to_the_full_buffer_one(n_symbols, slack):
    rng = np.random.default_rng(slack + n_symbols)
    size = P.frame_samples(n_symbols) + slack
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    half = P.fft_size // 2
    last = slack + _refine_window(P)  # the last coarse start from which the frame can still fit
    p, metric = _timing_metric(x, half)
    assert gate_length(size, P, n_symbols) == last + 2 * half
    head_p, head_metric = _timing_metric(x[: last + 2 * half], half)
    assert head_metric.size == last + 1
    assert gate_metric(x[: last + 2 * half], P) == metric[: last + 1].max()
    assert np.array_equal(head_p.view(np.int64), p[: last + 1].view(np.int64))
    assert np.array_equal(head_metric.view(np.int64), metric[: last + 1].view(np.int64))


@pytest.mark.parametrize("block", [16, 2048])
def test_gate_bound_is_its_formula_over_statistics_taken_window_by_window(monkeypatch, block):
    # a small numerology keeps the explicit windows cheap; blocks of 16 starts split the stream 19 ways
    params, rng = OfdmParams(fft_size=64, cp_length=16, active_subcarriers=48), np.random.default_rng(block)
    half = params.fft_size // 2
    head = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    head[: 2 * half] *= np.linspace(3.0, 0.5, 2 * half)  # leading half-windows stronger than trailing ones
    stream = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    stream[5:25] *= 4.0  # the extremes sit near the stream's start, where circular windows wrap
    gains = np.geomspace(1e-3, 1e3, 50)
    monkeypatch.setattr(receiver, "_BOUND_BLOCK", block)

    def windows(x, starts, length):  # row s is x[(s + m) % x.size] for m < length
        return x[(np.asarray(starts)[:, None] + np.arange(length)) % x.size]

    def corr(w):
        return np.abs(np.sum(np.conj(w[:, :half]) * w[:, half:], axis=1))

    def energy(w):
        return np.sum(np.abs(w) ** 2, axis=1)

    starts = np.arange(head.size - 2 * half + 1)
    a = corr(windows(head, starts, 2 * half)).max()
    lead, trail = energy(windows(head, starts, half)).max(), energy(windows(head, starts + half, half)).max()
    pi, e = corr(windows(stream, range(stream.size), 2 * half)).max(), energy(windows(stream, range(stream.size), half))
    num = a + gains * (np.sqrt(lead * e.max()) + np.sqrt(e.max() * trail)) + gains**2 * pi
    root = gains * np.sqrt(e.min()) - np.sqrt(trail)
    want = np.full(gains.size, math.inf)
    want[root > 0.0] = num[root > 0.0] / root[root > 0.0] ** 2
    assert np.isinf(want).any() and np.isfinite(want).any()
    np.testing.assert_allclose(receiver.gate_bound(head, stream, gains, params), want, rtol=1e-12)


def _windowed_timing_metric(x, half):
    """Oracle: p[d] and |p[d]|/r[d] from an explicit sum over each start's own window."""
    p, r = [], []
    for d in range(x.size - 2 * half + 1):
        lead, trail = x[d : d + half], x[d + half : d + 2 * half]
        p.append(np.vdot(lead, trail))
        r.append(np.vdot(trail, trail).real)
    p, r = np.array(p), np.array(r)
    return p, np.abs(p) / np.maximum(r, receiver._ENERGY_EPS)


@pytest.mark.parametrize("shape", [(1024,), (1088,), (1089,), (1500,), (3000,), (4, 1300)])
def test_timing_metric_matches_the_windowed_sums(shape):
    rng = np.random.default_rng(shape[-1])
    x = np.reshape([_gate_buffer("padded", rng)[: shape[-1]] for _ in range(math.prod(shape[:-1]))], shape)
    x += 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    half = P.fft_size // 2
    p, metric = _timing_metric(x, half)
    starts = shape[-1] - 2 * half + 1
    assert p.shape == metric.shape == (*shape[:-1], starts)
    for row, p_row, metric_row in zip(x.reshape(-1, shape[-1]), p.reshape(-1, starts), metric.reshape(-1, starts)):
        want_p, want_metric = _windowed_timing_metric(row, half)
        np.testing.assert_allclose(p_row, want_p, rtol=1e-12, atol=0)
        np.testing.assert_allclose(metric_row, want_metric, rtol=0, atol=1e-12)


def test_timing_metric_of_an_all_zero_window_is_exactly_zero():
    signal = _gate_buffer("exact", np.random.default_rng(7))[:1500]
    x = np.r_[signal, np.zeros(1500, complex)]
    metric = _timing_metric(x, P.fft_size // 2)[1]
    assert metric[: signal.size].max() > 0.0
    assert np.all(metric[signal.size :] == 0.0)


def test_timing_metric_over_a_noise_tail_60_db_down_keeps_its_relative_accuracy():
    # both running sums carry the frame's rounding into a tail with a millionth of its power; the worst start
    # is about 3e-7 off, set by p's difference (the sliding r adds less)
    frame, half = rand_frame(P, 2, seed=38).samples, P.fft_size // 2
    rng = np.random.default_rng(38)
    x = np.r_[frame, 1e-3 * (rng.standard_normal(1500) + 1j * rng.standard_normal(1500)) / math.sqrt(2)]
    metric = _timing_metric(x, half)[1]
    want = _windowed_timing_metric(x, half)[1]
    assert metric.size == want.size == x.size - 2 * half + 1
    np.testing.assert_allclose(metric, want, rtol=1e-6, atol=0)


def test_a_silent_trailing_half_between_two_frames_reads_exactly_zero():
    frame, half = rand_frame(P, 2, seed=39).samples, P.fft_size // 2
    x = np.r_[frame, np.zeros(1500, complex), frame]
    p, metric = _timing_metric(x, half)
    silent = slice(frame.size - half, frame.size + 1500 - 2 * half + 1)  # the starts whose trailing half is all zeros
    assert metric[silent.start - 1] > 0.0
    assert np.all(p[silent] == 0.0) and np.all(metric[silent] == 0.0)
    np.testing.assert_allclose(metric, _windowed_timing_metric(x, half)[1], rtol=0, atol=1e-12)
    for length in (frame.size + 700, frame.size + 1500 + 2 * half, x.size - 1):
        head_p, head_metric = _timing_metric(x[:length], half)
        assert np.array_equal(head_p.view(np.int64), p[: head_p.size].view(np.int64))
        assert np.array_equal(head_metric.view(np.int64), metric[: head_metric.size].view(np.int64))


def test_timing_metric_of_a_strided_view_is_that_of_its_copy():
    x = np.repeat(rand_frame(P, 2, seed=40).samples, 2)[::2]
    assert not x.flags.c_contiguous
    for got, want in zip(_timing_metric(x, P.fft_size // 2), _timing_metric(x.copy(), P.fft_size // 2)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert synchronize(x, P, 2) == synchronize(x.copy(), P, 2)


# ----------------------------------------------------------------- receive


def test_loopback_exact():
    fb = rand_frame(P, 2, seed=16)
    rx = receive_frame(fb.samples, P, fb.data_symbols)
    assert rx.sync_success
    assert rx.evm_rms < 1e-6
    assert np.array_equal(rx.payload, fb.payload)


@pytest.mark.parametrize("lead", [0, 1, 777])
def test_receive_clean_frame_after_leading_zeros(lead):
    fb = rand_frame(P, 3, seed=23)
    x = np.r_[np.zeros(lead, complex), fb.samples]
    rx = receive_frame(x, P, fb.data_symbols, decode=False)
    assert rx.sync_success
    assert synchronize(x, P, 3).frame_start == lead + P.preamble_samples
    assert rx.evm_rms < 1e-12


@pytest.mark.parametrize("scale", [1e-17, 1e-100])
def test_a_scaled_frame_syncs_with_the_unscaled_metric(scale):
    # the timing metric is a ratio of sample products, so a frame at any level locks as it does at 0 dBm
    fb = rand_frame(P, 3, seed=24)
    unscaled = receive_frame(fb.samples, P, fb.data_symbols, decode=False)
    rx = receive_frame(fb.samples * scale, P, fb.data_symbols, decode=False)
    assert rx.sync_success and rx.sync_metric == pytest.approx(unscaled.sync_metric, rel=1e-12)
    assert rx.evm_rms < 1e-12


def test_receive_reports_sync_failure():
    rng = np.random.default_rng(17)
    noise = (rng.standard_normal(8000) + 1j * rng.standard_normal(8000)) / math.sqrt(2)
    fb = rand_frame(P, 2, seed=18)
    rx = receive_frame(noise, P, fb.data_symbols)
    assert not rx.sync_success
    assert rx.evm_rms is None and rx.payload is None


def test_receive_awgn_calibration_20db():
    fb = rand_frame(P, 14, seed=19)
    nd = noise_power_for_subcarrier_snr(P, 20.0, 14)
    e2 = []
    for seed in range(30):
        rx = receive_frame(impair(fb, None, 0.0, math.inf, nd, seed=seed), P, fb.data_symbols, decode=False)
        assert rx.sync_success
        e2.append(rx.evm_rms**2)
    derived = -10 * math.log10(np.mean(e2))
    assert derived == pytest.approx(20.0, abs=0.5)


def test_receive_interference_plus_noise_matches_analytic():
    # SIR 10 dB on top of SNR 30 dB: compare to linear combining
    fb = rand_frame(P, 14, seed=20)
    nd = noise_power_for_subcarrier_snr(P, 30.0, 14)
    e2 = []
    for seed in range(30):
        fi = rand_frame(P, 14, seed=30_000 + seed, pilot_stream=1)
        mixed = impair(fb, fi.body_stream(), 0.0, 10.0, nd, seed=seed)
        rx = receive_frame(mixed, P, fb.data_symbols, decode=False)
        assert rx.sync_success
        e2.append(rx.evm_rms**2)
    derived = -10 * math.log10(np.mean(e2))
    analytic = -10 * math.log10(10 ** (-1.0) + 10 ** (-3.0))
    assert derived == pytest.approx(analytic, abs=1.0)


def test_receive_decodes_through_noise():
    fb = rand_frame(P, 2, seed=21)
    nd = noise_power_for_subcarrier_snr(P, 15.0, 2)
    rx = receive_frame(impair(fb, None, 0.0, math.inf, nd, seed=5), P, fb.data_symbols)
    assert rx.sync_success
    assert np.array_equal(rx.payload, fb.payload)


def test_28_symbol_frame_decodes_exactly_at_30_db():
    fb = rand_frame(P, 28, seed=26)
    nd = noise_power_for_subcarrier_snr(P, 30.0, 28)
    rx = receive_frame(impair(fb, None, 0.0, math.inf, nd, seed=6), P, fb.data_symbols)
    assert rx.sync_success
    assert rx.payload.shape == (28 * 1044,)
    assert np.array_equal(rx.payload, fb.payload)


def _run_fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports this checkout's uavfd; return its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return proc.stdout


def test_the_first_frame_leaves_numpy_ma_unimported():
    # a CLI run pays every import before its first point; numpy.ma alone takes about 5 ms
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import uavfd.cli\n"
        "from uavfd import phy\n"
        "p = phy.OfdmParams()\n"
        "f = phy.build_frame(p, np.zeros(p.payload_bits(28), dtype=np.uint8))\n"
        "assert phy.receive_frame(f.samples, p, f.data_symbols, decode=False).sync_success\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _run_fresh(code).split() == ["False"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the heap policy is set through glibc's mallopt")
def test_decoded_frames_reuse_the_heap():
    # a fresh process that builds and decodes frames without the campaign rig: building a frame
    # sets the heap policy, so a frame's few MB of decode buffers are not faulted in again
    # (without it, about 900 minor faults per 28-symbol frame)
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from uavfd import phy\n"
        "p = phy.OfdmParams()\n"
        "bits = np.random.default_rng(0).integers(0, 2, p.payload_bits(28))\n"
        "def one():\n"
        "    frame = phy.build_frame(p, bits)\n"
        "    rx = phy.receive_frame(frame.samples, p, frame.data_symbols, decode=True)\n"
        "    assert np.array_equal(rx.payload, bits)\n"
        "one(); one()\n"
        "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(4): one()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n"
    )
    assert int(_run_fresh(code).split()[-1]) < 4 * 25


@pytest.mark.parametrize("k", [0, 13, 27])
def test_flipping_one_symbols_llrs_changes_only_its_payload_block(monkeypatch, k):
    fb = rand_frame(P, 28, seed=27)
    coded_per_symbol = BITS_PER_SYMBOL * P.n_data_subcarriers

    def flip_symbol_k(symbols):
        llr = demap_16qam(symbols)
        llr[coded_per_symbol * k : coded_per_symbol * (k + 1)] *= -1.0
        return llr

    monkeypatch.setattr(receiver, "demap_16qam", flip_symbol_k)
    rx = receive_frame(fb.samples, P, fb.data_symbols)
    wrong = np.flatnonzero(rx.payload != fb.payload)
    assert wrong.size > 0
    assert 1044 * k <= wrong.min() and wrong.max() < 1044 * (k + 1)


def test_receive_deterministic():
    fb = rand_frame(P, 2, seed=22)
    nd = noise_power_for_subcarrier_snr(P, 10.0, 2)
    mixed = impair(fb, None, 0.0, math.inf, nd, seed=9)
    r1 = receive_frame(mixed, P, fb.data_symbols)
    r2 = receive_frame(mixed, P, fb.data_symbols)
    assert r1.evm_rms == r2.evm_rms
    assert np.array_equal(r1.payload, r2.payload)
