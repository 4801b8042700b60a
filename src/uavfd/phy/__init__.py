"""Waveform-level OFDM modem: FEC, framing, impairment rig, receiver."""

from .fec import coded_length, fec_decode, fec_encode
from .modem import (
    FrameBuffer,
    OfdmParams,
    build_frame,
    demap_16qam,
    impair,
    map_16qam,
    noise_power_for_subcarrier_snr,
    write_iq,
)
from .receiver import RxResult, SYNC_THRESHOLD, SyncResult, gate_bound, gate_length, gate_metric, receive_frame
from .receiver import synchronize

__all__ = [
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
    "gate_bound",
    "gate_length",
    "gate_metric",
    "impair",
    "map_16qam",
    "noise_power_for_subcarrier_snr",
    "receive_frame",
    "synchronize",
    "write_iq",
]
