"""Waveform-level OFDM modem: FEC, framing, impairment rig, receiver."""

from .fec import coded_length, fec_decode, fec_encode, payload_length
from .modem import (
    BITS_PER_SYMBOL,
    FrameBuffer,
    OfdmParams,
    build_frame,
    demap_16qam,
    impair,
    map_16qam,
    noise_power_for_subcarrier_snr,
    pilot_values,
    preamble,
    write_iq,
)
from .receiver import RxResult, SYNC_THRESHOLD, SyncResult, receive_frame, synchronize

__all__ = [
    "BITS_PER_SYMBOL",
    "FrameBuffer",
    "OfdmParams",
    "RxResult",
    "SYNC_THRESHOLD",
    "SyncResult",
    "build_frame",
    "coded_length",
    "demap_16qam",
    "fec_decode",
    "fec_encode",
    "impair",
    "map_16qam",
    "noise_power_for_subcarrier_snr",
    "payload_length",
    "pilot_values",
    "preamble",
    "receive_frame",
    "synchronize",
    "write_iq",
]
