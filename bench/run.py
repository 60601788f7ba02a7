"""phaseqrng benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload pipeline_ref --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

  pipeline_ref     phaseqrng pipeline --config configs/pipeline.json --seed S
  stability_drift  phaseqrng stability --config configs/stability.json --seed S
  extract_bulk     bench/bulk.py on a sample file generated here from S

Every workload run is its own child process, run serially, so ``wall_s`` and
``peak_rss_mb`` (the child's ``ru_maxrss``) are what a user of the command
sees.  After the first run, runs repeat while the next one would still end
within ``--seconds``; each metric is the median over runs.  ``throughput``
is extracted Mbit/s for ``pipeline_ref`` and ``extract_bulk`` and report
points/s for ``stability_drift``.  ``setup_s`` is the median of three child
processes that only start the interpreter and ``import phaseqrng.cli``,
which every command pays.

Every run's outputs are checked (exit code, artifacts read back through
``phaseqrng.io``, CSV shapes, bit counts, the fitted noise coefficients, the
same sha256 as the first run); a run failing any check counts in ``failed``.

``--trace 1`` makes one checked untraced run and then two traced runs with
``spans.py``: one for span times and one for ``tracemalloc`` peaks plus
per-test battery timing.  It reports the ``per_layer`` metrics, and exits
with an error if a span the workload must reach was never entered or if the
spans cover less than 95% of the traced run.

The last line of standard output is the result JSON; the line before it is a
JSON detail record with provenance, every run and the quartiles.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
# Children still running this long after start are killed.
TOTAL_BUDGET_S = 170.0
MIN_COVERAGE = 0.95
# Criterion 1 allows 2% on the fixed seed of the acceptance test.  Across
# seeds the pipeline's 10-point sweep scatters the fitted ac by about 0.9%
# rms (2.8% at --seed 2), so a stream-independent check needs a wider band;
# 5% still catches a fit that is broken rather than unlucky.
FIT_TOLERANCE = 0.05
BULK_SAMPLES = 1_500_000


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


@dataclass
class Run:
    rc: int
    wall_s: float
    peak_rss_mb: float
    log: Path
    problems: list[str] = field(default_factory=list)
    work: float = 0.0
    digest: str = ""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(argv: list[str], log: Path, deadline: float) -> Run:
    """Run one child to completion; its own wall time and ru_maxrss.

    The child is killed at ``deadline`` (a ``time.perf_counter`` value) so
    the whole benchmark ends in time even if the program hangs.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT, env=child_env()
        )
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, usage.ru_maxrss / 1024.0, log)


def log_tail(log: Path, n: int = 5) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return " | ".join(lines[-n:])


def sha256_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def finite_floats(rows: list[list[str]], start_col: int = 0) -> bool:
    return all(math.isfinite(float(v)) for row in rows for v in row[start_col:])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One named input set: how to run it, check it and count its work."""

    name: str
    config_name: str
    target: str  # "cli" or "bulk", see spans.py
    expected_spans: frozenset[str]
    battery: tuple[str, int, int] | None = None  # (bits file, n, seq_len)

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.config = ROOT / "configs" / self.config_name
        self.cfg = json.loads(self.config.read_text())

    def prepare(self) -> None:
        """Set-up outside the timed runs."""

    def cleanup(self) -> None:
        """Remove what prepare() made."""

    def args(self) -> list[str]:
        raise NotImplementedError

    def argv(self) -> list[str]:
        if self.target == "cli":
            return [sys.executable, "-m", "phaseqrng", *self.args()]
        return [sys.executable, str(BENCH / "bulk.py"), *self.args()]

    def check(self, run: Run) -> None:
        """Fill run.problems, run.work and run.digest from the outputs."""
        raise NotImplementedError


class PipelineRef(Workload):
    name = "pipeline_ref"
    config_name = "pipeline.json"
    target = "cli"
    expected_spans = frozenset({
        "sim.simulate", "calib.fit_variance_vs_power", "entropy.entropy_report",
        "extract.ToeplitzSeed.generate", "extract.extract_stream",
        "io.write_bits", "io.write_report", "stats.autocorrelation",
        "stats.nist_subset", "model.SampleBlock.variance_volts",
        "model.BitStream.as_bit_array",
    })

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        pipe = self.cfg["pipeline"]
        self.bits = out / "bits.qrng"
        self.battery = (
            str(self.bits), int(pipe.get("n_sequences", 100)),
            int(pipe.get("seq_len_bits", 100_000)),
        )

    def args(self) -> list[str]:
        return ["pipeline", "--config", str(self.config), "--out", str(self.bits),
                "--seed", str(self.seed)]

    def check(self, run: Run) -> None:
        import bulk
        from phaseqrng import io as qio, stats
        from phaseqrng.model import variance_coefficients

        p = run.problems
        if run.rc not in (0, 2):
            p.append(f"exit code {run.rc}: {log_tail(run.log)}")
            return
        base = str(self.bits)
        bits = qio.read_bits(self.bits)
        report = qio.read_report(base + ".report")
        n_output = int(self.cfg["pipeline"]["n_output_bits"])
        if bits.count < n_output:
            p.append(f"{bits.count} bits < n_output_bits {n_output}")

        header, rows = read_csv(Path(base + ".autocorr.csv"))
        if header != ["lag", "r_raw", "r_extracted"] or len(rows) != 101:
            p.append(f"autocorr.csv shape {header} x {len(rows)}")
        elif [int(r[0]) for r in rows] != list(range(101)) or not finite_floats(rows, 1):
            p.append("autocorr.csv values")

        header, rows = read_csv(Path(base + ".nist.csv"))
        if header != ["test", "pass_rate", "uniformity_pvalue"] or len(rows) != 10:
            p.append(f"nist.csv shape {header} x {len(rows)}")
        elif [r[0] for r in rows] != [r["test"] for r in report["nist"]]:
            p.append("nist.csv rows differ from the report")
        else:
            # Exit code 2 is the documented statistical-failure outcome: some
            # SP 800-22 pass rate fell below the band.  It must agree with the
            # battery rows, whatever the random stream gave.
            lo = stats.pass_rate_band(self.battery[1])[0]
            below = any(float(r[1]) < lo for r in rows)
            if below != (run.rc == 2):
                p.append(f"exit code {run.rc} but a pass rate below band is {below}")

        want = variance_coefficients(*bulk.operating_point(self.cfg))
        for key, ref in zip(("ac", "aq", "f"), want):
            err = abs(report["fit"][key] - ref) / ref
            if err > FIT_TOLERANCE:
                p.append(f"fit {key} off by {err:.2%}")

        run.work = bits.count / 1e6
        run.digest = sha256_files(sorted(self.out.glob("bits.qrng*")))


class StabilityDrift(Workload):
    name = "stability_drift"
    config_name = "stability.json"
    target = "cli"
    expected_spans = frozenset({
        "sim.simulate", "sim.simulate_stability", "model.SampleBlock.variance_volts",
    })

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        self.csv = out / "stability.csv"

    def args(self) -> list[str]:
        return ["stability", "--config", str(self.config), "--out", str(self.csv),
                "--seed", str(self.seed)]

    def check(self, run: Run) -> None:
        p = run.problems
        if run.rc != 0:
            p.append(f"exit code {run.rc}: {log_tail(run.log)}")
            return
        stab = self.cfg["stability"]
        n_points = math.floor(stab["total_time"] / stab["report_interval"]) + 1
        header, rows = read_csv(self.csv)
        if len(header) != 7 or len(rows) != n_points or any(len(r) != 7 for r in rows):
            p.append(f"stability.csv shape {len(header)} x {len(rows)}")
        elif not finite_floats(rows):
            p.append("stability.csv values")
        run.work = len(rows)
        run.digest = sha256_files([self.csv])


class ExtractBulk(Workload):
    name = "extract_bulk"
    config_name = "pipeline.json"
    target = "bulk"
    expected_spans = frozenset({
        "io.read_samples", "entropy.entropy_report", "extract.ToeplitzSeed.generate",
        "extract.extract_stream", "io.write_bits", "io.write_report",
        "stats.nist_subset", "stats.autocorrelation",
        "model.SampleBlock.variance_volts", "model.BitStream.as_bit_array",
    })

    def __init__(self, seed: int, out: Path):
        import bulk

        super().__init__(seed, out)
        self.samples = out.parent / "samples.qrng"
        self.bits = out / "bits.qrng"
        self.battery = (str(self.bits), bulk.N_SEQUENCES, bulk.SEQ_LEN_BITS)

    def prepare(self) -> None:
        """Seeded Gaussian codes at the config's operating point."""
        import numpy as np

        import bulk
        from phaseqrng import io as qio
        from phaseqrng.model import SampleBlock, variance_coefficients

        laser, chain = bulk.operating_point(self.cfg)
        ac, aq, f = variance_coefficients(laser, chain)
        p = laser.power_p
        sigma = math.sqrt(ac * p**2 + aq * p + f)
        n_codes = 1 << chain.adc_bits
        adc_scale = 2.0 * chain.adc_range_sigmas * sigma / n_codes
        rng = np.random.default_rng([self.seed, 0xB01C])
        volts = rng.normal(0.0, sigma, BULK_SAMPLES)
        codes = np.clip(np.rint(volts / adc_scale), -(n_codes // 2), n_codes // 2 - 1)
        block = SampleBlock(
            samples=codes.astype(np.int16), adc_bits=chain.adc_bits,
            sample_rate_hz=chain.sample_rate_hz, adc_scale=adc_scale,
            origin="imported", rng_seed=self.seed,
        )
        qio.write_samples(block, self.samples)

    def cleanup(self) -> None:
        self.samples.unlink(missing_ok=True)

    def args(self) -> list[str]:
        return ["--config", str(self.config), "--samples", str(self.samples),
                "--out", str(self.bits), "--extractor-seed", str(self.seed)]

    def check(self, run: Run) -> None:
        from phaseqrng import io as qio

        p = run.problems
        if run.rc != 0:
            p.append(f"exit code {run.rc}: {log_tail(run.log)}")
            return
        _, n_seq, seq_len = self.battery
        bits = qio.read_bits(self.bits)
        report = qio.read_report(str(self.bits) + ".report")
        if bits.count < n_seq * seq_len:
            p.append(f"{bits.count} bits < {n_seq} x {seq_len}")
        if len(report["nist"]) != 10:
            p.append(f"{len(report['nist'])} battery rows")
        ac = report["autocorrelation"]
        if len(ac["r_raw"]) != 101 or len(ac["r_extracted"]) != 101:
            p.append("autocorrelation is not 101 lags")
        run.work = bits.count / 1e6
        run.digest = sha256_files(sorted(self.out.glob("bits.qrng*")))


WORKLOADS = {w.name: w for w in (PipelineRef, StabilityDrift, ExtractBulk)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Session:
    """The child processes of one benchmark invocation, logged under ``logs``."""

    def __init__(self, wl: Workload, logs: Path, deadline: float):
        self.wl = wl
        self.logs = logs
        self.deadline = deadline

    def measure(self, seconds: float) -> list[Run]:
        """Serial runs: one, then more while the next fits in ``seconds``."""
        wl = self.wl
        runs: list[Run] = []
        while True:
            shutil.rmtree(wl.out, ignore_errors=True)
            wl.out.mkdir()
            run = spawn(wl.argv(), self.logs / f"run{len(runs)}.log", self.deadline)
            try:
                wl.check(run)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                run.problems.append(f"{type(exc).__name__}: {exc}")
            if runs and run.digest != runs[0].digest:
                run.problems.append("output sha256 differs from the first run")
            runs.append(run)
            spent = sum(r.wall_s for r in runs)
            if spent + statistics.median(r.wall_s for r in runs) > seconds:
                return runs

    def setup_times(self) -> list[float]:
        times = []
        for i in range(SETUP_REPEATS):
            argv = [sys.executable, "-c", "import phaseqrng.cli"]
            run = spawn(argv, self.logs / f"setup{i}.log", self.deadline)
            if run.rc != 0:
                raise BenchError(f"import phaseqrng.cli failed: {log_tail(run.log)}")
            times.append(run.wall_s)
        return times

    def traced(self, mode: str) -> tuple[dict, Run]:
        wl = self.wl
        shutil.rmtree(wl.out, ignore_errors=True)
        wl.out.mkdir()
        spans_out = self.logs / f"spans-{mode}.json"
        argv = [sys.executable, str(BENCH / "spans.py"), "--mode", mode,
                "--spans-out", str(spans_out)]
        if mode == "memory" and wl.battery is not None:
            argv += ["--battery", *map(str, wl.battery)]
        argv += [wl.target, *wl.args()]
        run = spawn(argv, self.logs / f"trace-{mode}.log", self.deadline)
        if run.rc != 0 or not spans_out.is_file():
            raise BenchError(f"traced run ({mode}) failed: {log_tail(run.log)}")
        return json.loads(spans_out.read_text()), run


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, self time, durations, summed counts, peak."""
    children_s: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children_s[s["parent"]] = children_s.get(s["parent"], 0.0) + s["end"] - s["start"]
    agg: dict[str, dict] = {}
    for s in spans:
        a = agg.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "durs": [], "peak": 0})
        dur = s["end"] - s["start"]
        a["calls"] += 1
        a["self_s"] += dur - children_s.get(s["id"], 0.0)
        a["durs"].append(dur)
        a["peak"] = max(a["peak"], s["peak"])
        for k, v in s["counts"].items():
            a[k] = a.get(k, 0) + v
    return agg


def per_layer(wl: Workload, timing: dict, memory: dict, traced_wall: float,
              untraced_wall: float) -> dict[str, float]:
    from phaseqrng import stats
    from spans import SPANS

    agg = aggregate(timing["spans"])
    missing = sorted(wl.expected_spans - agg.keys())
    if missing:
        raise BenchError(f"wrapped functions never reached: {', '.join(missing)}")
    top_s = sum(s["end"] - s["start"] for s in timing["spans"] if s["parent"] is None)
    coverage = top_s / timing["wall_s"]
    if coverage < MIN_COVERAGE:
        raise BenchError(f"spans cover {coverage:.1%} of the traced run")

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    def rate(name: str, key: str, scale: float) -> float:
        t = get(name, "self_s")
        return get(name, key) / scale / t if t > 0 else 0.0

    sim = "sim.simulate"
    ext = "extract.extract_stream"
    m = {
        f"{sim}.calls": get(sim, "calls"),
        f"{sim}.samples": get(sim, "samples"),
        f"{sim}.self_s": get(sim, "self_s"),
        f"{sim}.msamples_per_s": rate(sim, "samples", 1e6),
        f"{sim}.call_p50_ms": statistics.median(agg[sim]["durs"]) * 1e3 if sim in agg else 0.0,
        f"{ext}.bits_in": get(ext, "bits_in"),
        f"{ext}.bits_out": get(ext, "bits_out"),
        f"{ext}.mbit_in_per_s": rate(ext, "bits_in", 1e6),
        f"{ext}.mbit_out_per_s": rate(ext, "bits_out", 1e6),
        "stats.nist_subset.mbit_per_s": rate("stats.nist_subset", "bits", 1e6),
        "model.SampleBlock.variance_volts.calls": get("model.SampleBlock.variance_volts", "calls"),
        "cli.import_s": timing["import_s"],
        "cli.self_s": timing["wall_s"] - top_s,
        "cli.coverage": coverage,
        "trace_overhead_s": traced_wall - untraced_wall,
    }
    for name in ("io.read_samples", "io.write_bits", "io.write_report"):
        m[f"{name}.bytes"] = get(name, "bytes")
    for name in SPANS:
        m[f"{name}.self_s"] = get(name, "self_s")
    for name, a in aggregate(memory["spans"]).items():
        m[f"{name}.peak_traced_mb"] = a["peak"] / 2**20
    for name in SPANS:
        m.setdefault(f"{name}.peak_traced_mb", 0.0)
    for _, func, _ in stats.NIST_SUBSET_TESTS:
        m[f"stats.{func.__name__}.ms_per_seq"] = memory["battery"].get(func.__name__, 0.0)
    return m


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": statistics.median(values), "q3": q3}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(wl: Workload, runs: list[Run]) -> dict:
    import numpy
    import scipy

    src = sorted((SRC / "phaseqrng").glob("*.py"))
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": sha256_files(src),
        "config_sha256": hashlib.sha256(wl.config.read_bytes()).hexdigest(),
        "run_count": len(runs),
        "output_sha256": sorted({r.digest for r in runs}),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def bench(opts: argparse.Namespace) -> tuple[dict, dict]:
    deadline = time.perf_counter() + TOTAL_BUDGET_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import phaseqrng

    if Path(phaseqrng.__file__).resolve().parent != SRC / "phaseqrng":
        raise BenchError(f"imported phaseqrng from {phaseqrng.__file__}, not {SRC}")

    logs = WORK / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    shutil.rmtree(logs, ignore_errors=True)
    logs.mkdir(parents=True)
    wl = WORKLOADS[opts.workload](opts.seed, logs / "out")
    wl.prepare()

    session = Session(wl, logs, deadline)
    if opts.trace:
        setup, runs = [], session.measure(0.0)
    else:
        setup, runs = session.setup_times(), session.measure(opts.seconds)
    walls = [r.wall_s for r in runs]
    samples = {
        "wall_s": walls,
        "throughput": [r.work / r.wall_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
    }
    if setup:
        samples["setup_s"] = setup
        wanted = spec["end_to_end"]
        values = {k: statistics.median(v) for k, v in samples.items()}
    else:
        wanted = spec["per_layer"]
        timing, trun = session.traced("time")
        memory, _ = session.traced("memory")
        values = per_layer(wl, timing, memory, trun.wall_s, statistics.median(walls))
    missing = {m["name"] for m in wanted} ^ values.keys()
    if missing:
        raise BenchError(f"metric set differs from BENCHMARK.json: {sorted(missing)}")

    failed = sum(1 for r in runs if r.problems)
    detail = {
        "provenance": provenance(wl, runs),
        "failed_ratio": failed / len(runs),
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "runs": [
            {"rc": r.rc, "wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb,
             "work": r.work, "sha256": r.digest, "problems": r.problems}
            for r in runs
        ],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    (logs / "detail.json").write_text(json.dumps(detail, indent=1))
    shutil.rmtree(wl.out, ignore_errors=True)
    wl.cleanup()
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="phaseqrng benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not 0 <= opts.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")

    needed = [ROOT / "BENCHMARK.json", SRC / "phaseqrng" / "cli.py",
              ROOT / "configs" / WORKLOADS[opts.workload].config_name]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a phaseqrng checkout, missing {', '.join(absent)}",
              file=sys.stderr)
        return 2
    try:
        detail, result = bench(opts)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
