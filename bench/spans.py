"""Outside-in span tracing of the phaseqrng layers.

The program has no tracing of its own, so this module wraps the public
functions of each layer from outside: it replaces the module (or class)
attribute with a wrapper that records a span, and also replaces every
by-name import of the same function in the package (``cli.simulate`` is
``sim.simulate``).  Each span records its name, start, end, parent and item
or byte counts; the spans stay in memory and are written out as JSON when
the traced workload ends.

Run as a child process, one workload per process:

    PYTHONPATH=src python3 bench/spans.py --mode time --spans-out t.json \\
        cli pipeline --config configs/pipeline.json --out out/bits.qrng

``cli ARGS`` calls ``phaseqrng.cli.main(ARGS)`` and ``bulk ARGS`` calls
``bulk.main(ARGS)``, both in this process.  ``--mode time`` records span
times; ``--mode memory`` runs the same workload under ``tracemalloc``,
resetting the peak at every span boundary, and records each span's peak
traced memory.  The two are separate processes so that the allocation
tracking cannot distort the times.  ``--battery BITS N LEN`` then times each
SP 800-22 test function on the N sequences of LEN bits in the bit file
BITS, with tracemalloc off.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
import tracemalloc


def _samples_out(args, kwargs, result):
    return {"samples": len(result)}


def _extract_counts(args, kwargs, result):
    block = args[0]
    return {"bits_in": len(block) * block.adc_bits, "bits_out": result.count}


def _nist_counts(args, kwargs, result):
    return {"bits": args[1] * args[2]}


def _autocorr_counts(args, kwargs, result):
    return {"samples": len(args[0])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _written_bytes(args, kwargs, result):
    return {"bytes": result}


def _bit_array_counts(args, kwargs, result):
    return {"bits": result.size}


# Span name = layer module + attribute path inside it; the count function
# maps (args, kwargs, result) of one call to the work that call did.
SPANS = {
    "sim.simulate": _samples_out,
    "sim.simulate_stability": None,
    "calib.fit_variance_vs_power": None,
    "entropy.entropy_report": None,
    "extract.ToeplitzSeed.generate": None,
    "extract.extract_stream": _extract_counts,
    "stats.nist_subset": _nist_counts,
    "stats.autocorrelation": _autocorr_counts,
    "io.read_samples": _file_bytes,
    "io.write_bits": _written_bytes,
    "io.write_report": _written_bytes,
    "model.SampleBlock.variance_volts": None,
    "model.BitStream.as_bit_array": _bit_array_counts,
}


class Tracer:
    """Span recorder; with ``memory`` set, also each span's traced peak."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, func, name: str, count):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(span)
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced

    def _enter(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        if self.memory:
            if parent is not None:
                parent["peak"] = max(parent["peak"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        span = {
            "name": name,
            "parent": parent["id"] if parent is not None else None,
            "id": len(self.spans),
            "counts": {},
            "peak": 0,
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span["peak"] = max(span["peak"], tracemalloc.get_traced_memory()[1])
            if self._stack:
                parent = self._stack[-1]
                parent["peak"] = max(parent["peak"], span["peak"])
            tracemalloc.reset_peak()


def install(tracer: Tracer, extra_modules=()) -> None:
    """Wrap every function in SPANS, including its by-name imports."""
    modules = [
        m for n, m in list(sys.modules.items())
        if n == "phaseqrng" or n.startswith("phaseqrng.")
    ] + list(extra_modules)
    for name, count in SPANS.items():
        layer, *path = name.split(".")
        owner = importlib.import_module(f"phaseqrng.{layer}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        raw = vars(owner)[path[-1]]
        if isinstance(raw, classmethod):
            setattr(owner, path[-1], classmethod(tracer.wrap(raw.__func__, name, count)))
            continue
        traced = tracer.wrap(raw, name, count)
        setattr(owner, path[-1], traced)
        if isinstance(owner, type):
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, attr, traced)


def time_battery(bits_path: str, n_sequences: int, seq_len: int) -> dict:
    """Milliseconds per sequence of each SP 800-22 test function."""
    from phaseqrng import io as qio, stats

    arr = qio.read_bits(bits_path).as_bit_array()
    if arr.size < n_sequences * seq_len:
        raise SystemExit(f"battery timing: {bits_path} holds too few bits")
    seqs = [arr[i * seq_len : (i + 1) * seq_len] for i in range(n_sequences)]
    out = {}
    for _, func, _ in stats.NIST_SUBSET_TESTS:
        t0 = time.perf_counter()
        for seq in seqs:
            func(seq)
        out[func.__name__] = (time.perf_counter() - t0) * 1e3 / n_sequences
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="traced run of one workload")
    parser.add_argument("--mode", choices=("time", "memory"), required=True)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--battery", nargs=3, metavar=("BITS", "N", "LEN"))
    parser.add_argument("target", choices=("cli", "bulk"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    t0 = time.perf_counter()
    if opts.target == "cli":
        import phaseqrng.cli as entry
    else:
        import bulk as entry
    import_s = time.perf_counter() - t0

    tracer = Tracer(memory=opts.mode == "memory")
    install(tracer, [entry])
    if tracer.memory:
        tracemalloc.start()
    t1 = time.perf_counter()
    rc = entry.main(opts.args)
    wall_s = time.perf_counter() - t1
    if tracer.memory:
        tracemalloc.stop()

    result = {
        "rc": rc,
        "import_s": import_s,
        "wall_s": wall_s,
        "spans": tracer.spans,
        "battery": {},
    }
    if opts.battery:
        bits, n, length = opts.battery
        result["battery"] = time_battery(bits, int(n), int(length))
    with open(opts.spans_out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
