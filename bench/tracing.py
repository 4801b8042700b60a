"""Span tracer for the benchmark's traced run.

The tracer wraps the program's public functions from outside: each target
is replaced, in its defining module and in every `uavfd` module that
imported it, by a wrapper that records one span per call (name, parent
span, call id, start and end in integer nanoseconds).  Spans stay in flat
arrays in memory and are written out once, when the run ends.  Integer
clocks make self time exact: a span's self time is its duration minus the
part of it that its child spans cover, and with calls nested on one
thread that can never come out negative.
"""

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np


def _count_decoded_bits(counters, args, kwargs, result):
    counters["phy.fec.decoded_bits"] += result.size


def _count_sync_ok(counters, args, kwargs, result):
    counters["phy.receiver.sync_ok"] += bool(result.success)


def _count_fft_bytes(counters, args, kwargs, result):
    # computed from the array sizes (input read plus output written), not measured
    counters["phy.fft.bytes_computed"] += np.asarray(args[0]).nbytes + result.nbytes


def _count_csv_rows(counters, args, kwargs, result):
    counters["campaign.write_sweep_csv.rows"] += len(args[1] if len(args) > 1 else kwargs["records"])


# (span name, defining module, attribute, counter).  `np.fft.fft` and
# `np.fft.ifft` share one span name: together they are the FFT layer.
TARGETS = [
    ("phy.fec.fec_encode", "uavfd.phy.fec", "fec_encode", None),
    ("phy.fec.fec_decode", "uavfd.phy.fec", "fec_decode", _count_decoded_bits),
    ("phy.modem.build_frame", "uavfd.phy.modem", "build_frame", None),
    ("phy.modem.map_16qam", "uavfd.phy.modem", "map_16qam", None),
    ("phy.modem.demap_16qam", "uavfd.phy.modem", "demap_16qam", None),
    ("phy.modem.body_stream", "uavfd.phy.modem", "FrameBuffer.body_stream", None),
    ("phy.modem.impair", "uavfd.phy.modem", "impair", None),
    ("phy.receiver.synchronize", "uavfd.phy.receiver", "synchronize", _count_sync_ok),
    ("phy.receiver.receive_frame", "uavfd.phy.receiver", "receive_frame", None),
    ("phy.fft", "numpy.fft", "fft", _count_fft_bytes),
    ("phy.fft", "numpy.fft", "ifft", _count_fft_bytes),
    ("campaign.run_power_sweep", "uavfd.campaign", "run_power_sweep", None),
    ("campaign.run_capacity_sweep", "uavfd.campaign", "run_capacity_sweep", None),
    ("campaign.write_sweep_csv", "uavfd.campaign", "write_sweep_csv", _count_csv_rows),
    ("campaign.read_sweep_csv", "uavfd.campaign", "read_sweep_csv", None),
    ("campaign.mirror_symmetry", "uavfd.campaign", "mirror_symmetry", None),
    ("propagation.link_gain_db", "uavfd.propagation", "link_gain_db", None),
    ("propagation.fspl_db", "uavfd.propagation", "fspl_db", None),
    ("antenna.gain_db", "uavfd.antenna", "gain_db", None),
    ("geometry.distance", "uavfd.geometry", "distance", None),
    ("geometry.boresight_offset", "uavfd.geometry", "boresight_offset", None),
    ("metrics.cdf", "uavfd.metrics", "cdf", None),
    ("metrics.cdf_at", "uavfd.metrics", "cdf_at", None),
    ("metrics.sinr_analytic", "uavfd.metrics", "sinr_analytic", None),
    ("metrics.capacity_fd", "uavfd.metrics", "capacity_fd", None),
    ("placement.best_record", "uavfd.placement", "best_record", None),
    ("placement.feasible_region", "uavfd.placement", "feasible_region", None),
    ("cli.main", "uavfd.cli", "main", None),
]


class Tracer:
    """Records nested call spans on one thread; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.call_id = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._call = -1
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.t0)

    def begin_call(self) -> None:
        """Start a new benchmark-issued call: later spans share a fresh id."""
        self._call += 1

    def wrap(self, name: str, fn, counter=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stack, counters = self._stack, self.counters
        span_name, parent, t0, t1 = self.span_name, self.parent, self.t0, self.t1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            self.call_id.append(self._call)
            t1.append(0)
            stack.append(idx)
            t0.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each target where it is defined and wherever a `uavfd` module imported it.

        A target the program no longer defines is skipped; its metrics then read 0.
        """
        for name, module_name, attr, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                continue
            wrapper = self.wrap(name, original, counter)
            holders = [owner] + [
                m for key, m in sorted(sys.modules.items()) if key.startswith("uavfd") and m is not owner
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """Copies of the spans [lo, hi) (copies, so the tracer can keep appending)."""
        hi = len(self) if hi is None else hi
        return {
            "name": np.array(self.span_name[lo:hi], dtype=np.int32),
            "parent": np.array(self.parent[lo:hi], dtype=np.int32),
            "call_id": np.array(self.call_id[lo:hi], dtype=np.int32),
            "t0_ns": np.array(self.t0[lo:hi], dtype=np.int64),
            "t1_ns": np.array(self.t1[lo:hi], dtype=np.int64),
        }

    def save(self, path, **extra) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays(), **extra)


def self_times_ns(parent: np.ndarray, t0: np.ndarray, t1: np.ndarray, offset: int = 0) -> np.ndarray:
    """Duration of each span minus the part of it covered by its child spans.

    `parent` holds absolute span indices (-1 for a top-level span); `offset`
    is the absolute index of the first span in the arrays.
    """
    dur = t1 - t0
    covered = np.zeros_like(dur)
    child = np.flatnonzero(parent >= 0)
    p = parent[child] - offset
    lo = np.maximum(t0[child], t0[p])
    hi = np.minimum(t1[child], t1[p])
    np.add.at(covered, p, np.maximum(hi - lo, 0))
    return dur - covered


def summarize(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per span name: calls and self seconds; plus total top-level seconds."""
    a = tracer.arrays(lo, hi)
    self_ns = self_times_ns(a["parent"], a["t0_ns"], a["t1_ns"], offset=lo)
    n = len(tracer.names)
    calls = np.bincount(a["name"], minlength=n)
    self_s = np.bincount(a["name"], weights=self_ns, minlength=n) / 1e9
    top = a["parent"] < 0
    return {
        "calls": {name: int(calls[i]) for i, name in enumerate(tracer.names)},
        "self_s": {name: float(self_s[i]) for i, name in enumerate(tracer.names)},
        "top_level_s": float(np.sum(a["t1_ns"][top] - a["t0_ns"][top])) / 1e9,
    }
