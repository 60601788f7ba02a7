"""Time-domain simulator: variance bookkeeping, fringes, drift scenarios."""

import hashlib
import itertools
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter, welch

from phaseqrng import extract, runs, sim
from phaseqrng.calib import find_quadrature
from phaseqrng.model import (
    LaserNoiseModel,
    SignalChainConfig,
    VarianceFit,
    phase_difference_variance,
    predicted_variance,
)
from phaseqrng.sim import (
    NS_ELECTRONIC,
    NS_FRINGE,
    NS_PHASE,
    NS_STABILITY,
    SimulationRun,
    _analog_chain,
    _filter_gains,
    derive_seed,
    model_sigma,
    simulate,
    simulate_stability,
    simulate_variances,
)
from phaseqrng.stats import autocorrelation

from conftest import (
    AC_REF, AQ_REF, CONFIGS, CONV_GAIN, DELAY_TD, F_REF, make_ref_model, on_threads,
)

P_REF = 2.47e-4


def _chain(**kw):
    defaults = dict(
        delay_td=DELAY_TD,
        conversion_gain_a=CONV_GAIN,
        electronic_noise_f=F_REF,
        tia_cutoff_hz=500e6,
        adc_bits=8,
        adc_range_sigmas=5.0,
        sample_rate_hz=500e6,
    )
    defaults.update(kw)
    return SignalChainConfig(**defaults)


def _run(duration=4e-5, seed=11, **kw):
    chain_kw = {k: v for k, v in kw.items() if k in SignalChainConfig.__dataclass_fields__}
    run_kw = {k: v for k, v in kw.items() if k not in chain_kw}
    return SimulationRun(
        model=make_ref_model(P_REF),
        chain=_chain(**chain_kw),
        duration=duration,
        seed=seed,
        **run_kw,
    )


# ---------------------------------------------------------------------------
# determinism and seed derivation
# ---------------------------------------------------------------------------


def test_simulation_is_bit_exact_reproducible():
    a = simulate(_run(seed=1234))
    b = simulate(_run(seed=1234))
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.adc_scale == b.adc_scale
    assert a.rng_seed == 1234


def test_different_seeds_give_different_samples():
    a = simulate(_run(seed=1))
    b = simulate(_run(seed=2))
    assert (a.samples != b.samples).any()


def test_derive_seed_matches_seed_sequence_oracle():
    expected = int(np.random.SeedSequence([77, 3, 9]).generate_state(1, np.uint64)[0])
    assert derive_seed(77, 3, 9) == expected
    assert derive_seed(77, 3, 9) == derive_seed(77, 3, 9)
    assert derive_seed(77, 3, 9) != derive_seed(77, 3, 10)
    assert 0 <= derive_seed(2**64 - 1, 2**64 - 1) < 2**64


# ---------------------------------------------------------------------------
# variance bookkeeping
# ---------------------------------------------------------------------------


def test_measured_variance_matches_prediction():
    block = simulate(_run(duration=2e-3, seed=31))  # 10^6 samples
    fit = VarianceFit(ac=AC_REF, aq=AQ_REF, f=F_REF, r_squared=1.0)
    expected = predicted_variance(fit, P_REF)
    assert block.variance_volts() == pytest.approx(expected, rel=0.01)


def test_zero_power_leaves_only_electronic_noise():
    run = SimulationRun(
        model=LaserNoiseModel(quantum_diffusion_q=0.0, classical_diffusion_c=0.0, power_p=0.0),
        chain=_chain(),
        duration=4e-4,
        seed=17,
    )
    # with no phase draws, no worker thread starts, even a chunk in
    running = threading.active_count()
    stream = sim.code_stream(run)
    next(stream.chunks)
    assert threading.active_count() == running
    stream.chunks.close()
    block = simulate(run)
    assert block.variance_volts() == pytest.approx(F_REF, rel=0.05)


def test_extremum_collapses_to_electronic_floor():
    # at quadrature_offset = pi/2 the first-order phase-to-intensity
    # conversion vanishes; only F (plus a tiny second-order term) survives
    quad = simulate(_run(duration=2e-4, seed=23))
    ext = simulate(_run(duration=2e-4, seed=23, quadrature_offset=math.pi / 2))
    assert ext.variance_volts() == pytest.approx(F_REF, rel=0.10)
    assert quad.variance_volts() / ext.variance_volts() > 5.0


def test_offset_scales_variance_by_cos_squared():
    offset = 0.5
    quad = simulate(_run(duration=4e-4, seed=29))
    tilted = simulate(_run(duration=4e-4, seed=29, quadrature_offset=offset))
    expected = (quad.variance_volts() - F_REF) * math.cos(offset) ** 2 + F_REF
    assert tilted.variance_volts() == pytest.approx(expected, rel=0.03)


def test_adc_scale_follows_model_sigma():
    block = simulate(_run(duration=4e-5, seed=37))
    fit = VarianceFit(ac=AC_REF, aq=AQ_REF, f=F_REF, r_squared=1.0)
    sigma = math.sqrt(predicted_variance(fit, P_REF))
    assert block.adc_scale == pytest.approx(2 * 5.0 * sigma / 256, rel=0.05)


SWEEP_POWERS = np.geomspace(1e-5, 1e-3, 5).tolist()
OFFSETS = np.linspace(0.0, math.pi / 2, 5).tolist()
TONE = (80e6, 5e-3)


@pytest.mark.parametrize("tones", [(), (TONE,)])
def test_adc_range_tracks_measured_sigma(tones):
    # the range is range_sigmas * sigma from the model; over powers, offsets
    # and an rf tone it must match the sigma the block itself measures
    for i, (power, offset) in enumerate(itertools.product(SWEEP_POWERS, OFFSETS)):
        run = replace(
            _run(duration=1e-4, seed=300 + i, quadrature_offset=offset, rf_tones=tones),
            model=make_ref_model(power),
        )
        block = simulate(run)
        sigma_range = block.adc_scale * 2**8 / (2 * 5.0)
        assert sigma_range == pytest.approx(
            math.sqrt(block.variance_volts()), rel=0.02
        ), (power, offset)


@pytest.mark.parametrize("sample_rate_hz", [500e6, 5e9])
def test_electronic_noise_is_ar1_at_output_rate(sample_rate_hz):
    n, ovs = 200_000, 8
    run = SimulationRun(
        model=LaserNoiseModel(quantum_diffusion_q=0.0, classical_diffusion_c=0.0, power_p=0.0),
        chain=_chain(sample_rate_hz=sample_rate_hz),
        duration=n / sample_rate_hz,
        oversample_factor=ovs,
        seed=19,
    )
    block = simulate(run)
    # one-pole filter (1 - alpha) = exp(-2 pi fc dt), decimated by ovs
    r = math.exp(-2 * math.pi * 500e6 / (sample_rate_hz * ovs)) ** ovs
    var_se = F_REF * math.sqrt(2 * (1 + r * r) / (n * (1 - r * r)))
    assert block.variance_volts() == pytest.approx(F_REF, abs=4 * var_se)
    r_se = math.sqrt((1 - r * r) / n)
    assert autocorrelation(block.volts(), max_lag=1)[1] == pytest.approx(r, abs=4 * r_se)


def _direct_form_chain(run, n_samples):
    """The analog chain with the pole run at the internal rate, then
    decimated, and the electronic AR(1) through a second filter.

    Returns the decimated voltage about the DC, and the DC.
    """
    model, chain, ovs = run.model, run.chain, run.oversample_factor
    dt, alpha, rho, kappa_d, L = _filter_gains(chain, ovs)
    n_settle = int(math.ceil(8.0 / (2.0 * math.pi * chain.tia_cutoff_hz * dt)))
    n_steps = n_settle + n_samples * ovs
    s = phase_difference_variance(model, L * dt)
    rng = np.random.default_rng(derive_seed(run.seed, NS_PHASE))
    theta = np.cumsum(rng.normal(0.0, math.sqrt(s / L), size=L + n_steps))
    amp = (math.sqrt(chain.conversion_gain_a) * model.power_p
           * math.sqrt(chain.delay_td / (L * dt)) / math.sqrt(kappa_d))
    v = amp * np.sin(theta[L:] - theta[:-L] + chain.quadrature_offset)
    dc = amp * math.sin(chain.quadrature_offset) * math.exp(-s / 2.0)
    for freq, amplitude in run.rf_tones:
        t = (np.arange(n_steps) + L) * dt
        v += amplitude * np.sin(2.0 * math.pi * freq * t)
    filtered, _ = lfilter([alpha], [1.0, -rho], v, zi=[rho * dc])
    out = filtered[n_settle::ovs] - dc
    f = chain.electronic_noise_f
    if f > 0:
        r = rho**ovs
        e = np.random.default_rng(derive_seed(run.seed, NS_ELECTRONIC)).standard_normal(n_samples)
        e[0] *= math.sqrt(f)
        e[1:] *= math.sqrt(f * (1.0 - r * r))
        out += lfilter([1.0], [1.0, -r], e)
    return out, dc


@pytest.mark.parametrize("ovs", [4, 8, 16])
# r = rho^ovs = 1.87e-3 at the reference cutoff, 0.999 at 80 kHz
@pytest.mark.parametrize("tia_cutoff_hz", [500e6, 8e4])
def test_analog_chain_matches_direct_form(ovs, tia_cutoff_hz):
    n = 20_000
    cases = itertools.product([F_REF, 0.0], [(), (TONE,)], [0.0, 1.2])
    for f, tones, offset in cases:
        run = _run(duration=n / 500e6, seed=37, oversample_factor=ovs, rf_tones=tones,
                   tia_cutoff_hz=tia_cutoff_hz, electronic_noise_f=f,
                   quadrature_offset=offset)
        expected, dc = _direct_form_chain(run, n)
        # both round at the scale of the DC, which is 0 at quadrature
        tol = 1e-12 * (model_sigma(run) + abs(dc))
        # each chunk is a view that the next chunk overwrites
        chunks = [x.copy() for x in _analog_chain(run, n)]
        np.testing.assert_allclose(np.concatenate(chunks), expected, rtol=0, atol=tol,
                                   err_msg=str((f, tones, offset)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3000),
    offset=st.floats(0.0, math.pi / 2),
    power=st.sampled_from(SWEEP_POWERS),
    tones=st.sampled_from([(), (TONE,)]),
    seed=st.integers(0, 2**64 - 1),
)
def test_simulate_is_prefix_invariant(n, offset, power, tones, seed):
    # a run's samples are the first samples of the same run made twice as
    # long: no sample depends on a statistic of the whole block
    run = replace(
        _run(duration=n / 500e6, seed=seed, quadrature_offset=offset, rf_tones=tones),
        model=make_ref_model(power),
    )
    short = simulate(run)
    long = simulate(replace(run, duration=2 * run.duration))
    assert len(long) == 2 * len(short)
    assert long.adc_scale == short.adc_scale
    np.testing.assert_array_equal(long.samples[: len(short)], short.samples)


LENGTHS = (2, 7, sim._CHUNK_ROWS - 5, sim._CHUNK_ROWS + 3, 9001)


@pytest.mark.parametrize("ovs, power, tones, chain, lengths", [
    (4, P_REF, (), {}, LENGTHS),  # L = 1
    (16, P_REF, (TONE,), {}, LENGTHS),  # L = 4
    (8, 0.0, (TONE,), {}, LENGTHS),  # no phase steps: the chunks hold the tone
    (4, P_REF, (TONE,), {"delay_td": 3e-9}, LENGTHS),  # L = 6, longer than a row
    # r ~ 0.999: about 7958 settle rows, so the AR(1) state and the first
    # output sample's stationary draw land in the second default chunk
    (4, P_REF, (), {"tia_cutoff_hz": 8e4}, (2, 9001)),
], ids=["ovs4", "ovs16-tone", "zero-power-tone", "long-delay-tone", "slow-filter"])
def test_simulate_is_independent_of_the_chunk_size(monkeypatch, ovs, power, tones,
                                                   chain, lengths):
    # steps 1-5 run a chunk of output rows at a time; one row per chunk puts
    # the DC pad, the L-step phase history, the tone's time index and the
    # AR(1) state across every edge, and 9001 samples span three default
    # chunks
    default = sim._CHUNK_ROWS
    for n in lengths:
        run = replace(
            _run(duration=n / 500e6, seed=n, oversample_factor=ovs, rf_tones=tones,
                 **chain),
            model=make_ref_model(power),
        )
        monkeypatch.setattr(sim, "_CHUNK_ROWS", default)
        expected = simulate(run).samples
        for rows in (1, 3):
            monkeypatch.setattr(sim, "_CHUNK_ROWS", rows)
            np.testing.assert_array_equal(simulate(run).samples, expected,
                                          err_msg=f"n={n}, {rows} rows per chunk")


def test_simulate_peak_memory_does_not_grow_with_oversampling():
    # one pass from phase to code: a run holds its int16 codes (2 bytes a
    # sample) and chunk buffers whose size is set by ovs, not by the length
    lengths = (200_000, 1_000_000)
    for ovs in (4, 16):
        peaks = []
        for n in lengths:
            run = _run(duration=n / 500e6, seed=5, oversample_factor=ovs)
            tracemalloc.start()
            try:
                simulate(run)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        growth = (peaks[1] - peaks[0]) / (lengths[1] - lengths[0])
        assert growth <= 2.1, (ovs, growth)
        allowance = 4 * sim._CHUNK_ROWS * ovs * 8  # four float64 internal-rate chunks
        for n, peak in zip(lengths, peaks):
            assert peak - 2 * n <= allowance, (ovs, n, peak)


# ---------------------------------------------------------------------------
# the phase draws' helper thread: one per streamed run or point loop, gone
# when it ends
# ---------------------------------------------------------------------------

# 20000 samples are five default chunks; the digest was recorded with every
# phase draw made on the calling thread
FIVE_CHUNKS = 20_000 / 500e6
FIVE_CHUNKS_SHA256 = "8a765996ba37e2e41b743d29b399b08ce4b35ad04f585a4f2458db7178d21133"


def test_a_failed_phase_draw_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    run = _run(duration=FIVE_CHUNKS, seed=41)
    real_default_rng, helper_draws = np.random.default_rng, []

    class FailingGenerator:
        """A generator whose third draw off its maker's thread fails."""

        def __init__(self, seed):
            self._rng, self._maker = real_default_rng(seed), threading.get_ident()

        def standard_normal(self, out):
            if threading.get_ident() != self._maker:
                helper_draws.append(out.size)
                if len(helper_draws) == 3:
                    time.sleep(0.2)  # the caller is waiting for this chunk
                    raise RuntimeError("third chunk's draw failed")
            return self._rng.standard_normal(out=out)

    running = threading.active_count()
    monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
    [error] = on_threads(lambda: simulate(run), 1, timeout=30.0)
    assert isinstance(error, RuntimeError) and "third chunk" in str(error)
    assert len(helper_draws) == 3  # the phase draws, none after the failure
    assert threading.active_count() == running
    monkeypatch.undo()
    codes = simulate(run).samples
    assert hashlib.sha256(codes.tobytes()).hexdigest() == FIVE_CHUNKS_SHA256


def test_a_closed_or_dropped_code_stream_leaves_no_thread():
    running = threading.active_count()
    stream = sim.code_stream(_run(duration=FIVE_CHUNKS, seed=42))
    next(stream.chunks)
    assert threading.active_count() == running + 1  # the helper, a chunk ahead
    stream.chunks.close()
    assert threading.active_count() == running
    stream = sim.code_stream(_run(duration=FIVE_CHUNKS, seed=43))
    next(stream.chunks)
    del stream
    assert threading.active_count() == running


def test_a_failed_pipeline_main_run_leaves_no_thread(monkeypatch):
    cfg = runs.load_config(CONFIGS / "pipeline.json")
    cfg = replace(
        cfg,
        sweep=runs.SweepConfig(powers=(3e-5, 1e-4, 3e-4, 1e-3), samples_per_point=50_000),
        pipeline=runs.PipelineConfig(n_output_bits=200_000, n_sequences=1,
                                     seq_len_bits=1500),
    )
    real_samples_to_bits, calls = extract.samples_to_bits, []

    def failing_samples_to_bits(codes, adc_bits):
        calls.append(codes.size)
        if len(calls) == 3:
            raise RuntimeError("the extractor failed partway")
        return real_samples_to_bits(codes, adc_bits)

    monkeypatch.setattr(extract, "samples_to_bits", failing_samples_to_bits)
    running = threading.active_count()
    with pytest.raises(RuntimeError, match="partway") as failure:
        runs.pipeline(cfg)
    # the failure's traceback still holds the run's frames, and the helper
    # is gone all the same
    assert failure.traceback and threading.active_count() == running


def test_callers_on_several_threads_get_the_serial_codes(monkeypatch):
    # three callers and their helpers on two cores, switching often, with
    # a hand-off every 64 rows: a chunk read before its draws were in, or
    # drawn over while in use, moves a code
    monkeypatch.setattr(sim, "_CHUNK_ROWS", 64)
    seeds = iter([51, 52, 53])
    expected = {seed: simulate(_run(duration=FIVE_CHUNKS, seed=seed)).samples
                for seed in (51, 52, 53)}

    def call():
        seed = next(seeds)
        return seed, simulate(_run(duration=FIVE_CHUNKS, seed=seed)).samples

    running, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = on_threads(call, 3)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seed for seed, _ in results) == [51, 52, 53]
    for seed, codes in results:
        np.testing.assert_array_equal(codes, expected[seed], err_msg=str(seed))
    assert threading.active_count() == running


@pytest.mark.parametrize("n, chain", [
    (1, {}),
    (sim._CHUNK_ROWS - 1, {}),
    (sim._CHUNK_ROWS + 1, {}),
    (20_000, {}),  # five chunks
    # about 7958 settle rows: the settle spans the first chunk
    (2, {"tia_cutoff_hz": 8e4, "oversample_factor": 4}),
    (5000, {"tia_cutoff_hz": 8e4, "oversample_factor": 4}),
], ids=["one", "chunk-less-1", "chunk-plus-1", "five-chunks", "slow-2", "slow-5000"])
def test_each_generator_draws_exactly_what_the_kept_samples_need(monkeypatch, n, chain):
    # a surplus draw on the last chunk moves no code, so no digest sees it
    run = _run(duration=n / 500e6, seed=61, **chain)
    drawn = _count_draws(monkeypatch)
    assert len(simulate(run)) == n
    assert drawn == _kept_draws(run)


def _count_draws(monkeypatch) -> dict:
    """Normals drawn per generator seed from here on, filled in as they are drawn."""
    real_default_rng, drawn = np.random.default_rng, {}

    class CountingGenerator:
        def __init__(self, seed):
            self._rng, self._seed = real_default_rng(seed), seed

        def standard_normal(self, out):
            drawn[self._seed] = drawn.get(self._seed, 0) + out.size
            return self._rng.standard_normal(out=out)

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    return drawn


def _kept_draws(run) -> dict:
    """The normals per seed that ``run``'s kept samples need: the L-step
    history, then every internal step up to the last kept sample, and one
    electronic normal a sample."""
    n = int(round(run.duration * run.chain.sample_rate_hz))
    ovs = run.oversample_factor
    dt, _, _, _, L = _filter_gains(run.chain, ovs)
    n_settle = int(math.ceil(8.0 / (2.0 * math.pi * run.chain.tia_cutoff_hz * dt)))
    drawn = {derive_seed(run.seed, NS_ELECTRONIC): n}
    if run.model.power_p > 0:
        drawn[derive_seed(run.seed, NS_PHASE)] = L + n_settle + 1 + (n - 1) * ovs
    return drawn


# a point loop over two powers with a dead point between, the 80 kHz chain
# whose settle spans the first chunk, and two samples (the fewest a variance
# takes) at a low output rate, all in one draw; every other point spans three
# default chunks
LOOP_RUN = _run(duration=9001 / 500e6, seed=71, oversample_factor=4)
LOOP_VARIANTS = [
    (make_ref_model(P_REF), _chain()),
    (make_ref_model(0.0), _chain()),
    (make_ref_model(4 * P_REF), _chain(quadrature_offset=0.3)),
    (make_ref_model(P_REF), _chain(tia_cutoff_hz=8e4)),
    (make_ref_model(P_REF), _chain(sample_rate_hz=2 * 500e6 / 9001, delay_td=2e-5)),
]


def _loop_points(namespace):
    return [replace(LOOP_RUN, model=model, chain=chain,
                    seed=derive_seed(LOOP_RUN.seed, namespace, i))
            for i, (model, chain) in enumerate(LOOP_VARIANTS)]


def test_a_point_loop_gives_each_point_its_own_variance_bit_for_bit(monkeypatch):
    # one draw worker serves the loop, drawing each point's first chunk
    # while the point before finishes; each point must read as if simulated
    # alone, and draw no normal more
    points = _loop_points(NS_STABILITY)
    assert [len(simulate(sub)) for sub in points] == [9001] * 4 + [2]
    expected = [simulate(sub).variance_volts() for sub in points]
    drawn = _count_draws(monkeypatch)
    assert simulate_variances(LOOP_RUN, NS_STABILITY, LOOP_VARIANTS) == expected
    assert drawn == {k: v for sub in points for k, v in _kept_draws(sub).items()}


def test_point_loops_on_several_threads_get_the_serial_variances(monkeypatch):
    # two loops and their workers on two cores, switching often, with a
    # hand-off every 64 rows: a point that read another point's draws, or a
    # buffer drawn over while in use, moves a variance
    monkeypatch.setattr(sim, "_CHUNK_ROWS", 64)
    expected = {ns: [simulate(sub).variance_volts() for sub in _loop_points(ns)]
                for ns in (NS_STABILITY, NS_FRINGE)}
    namespaces = iter(expected)

    def call():
        ns = next(namespaces)
        return ns, simulate_variances(LOOP_RUN, ns, LOOP_VARIANTS)

    running, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = on_threads(call, 2, timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert dict(results) == expected
    assert threading.active_count() == running


def test_a_point_loop_starts_one_draw_worker_and_ends_it(monkeypatch):
    import concurrent.futures

    real_pool, made = concurrent.futures.ThreadPoolExecutor, []

    def counting_pool(*args, **kwargs):
        made.append(real_pool(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting_pool)
    running = threading.active_count()
    simulate_variances(LOOP_RUN, NS_STABILITY, LOOP_VARIANTS)
    assert len(made) == 1
    assert threading.active_count() == running


def test_a_failed_draw_in_a_point_loop_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    # point 2's first draw is made on the worker while point 1 finishes
    failing = derive_seed(derive_seed(LOOP_RUN.seed, NS_STABILITY, 2), NS_PHASE)
    real_default_rng, failed_off_caller = np.random.default_rng, []

    class FailingGenerator:
        def __init__(self, seed):
            self._rng, self._seed = real_default_rng(seed), seed
            self._maker = threading.get_ident()

        def standard_normal(self, out):
            if self._seed == failing:
                failed_off_caller.append(threading.get_ident() != self._maker)
                raise RuntimeError("point 2's draw failed")
            return self._rng.standard_normal(out=out)

    running = threading.active_count()
    monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
    [error] = on_threads(
        lambda: simulate_variances(LOOP_RUN, NS_STABILITY, LOOP_VARIANTS), 1)
    assert isinstance(error, RuntimeError) and "point 2" in str(error)
    assert failed_off_caller == [True]
    assert threading.active_count() == running


def test_samples_are_centred_and_in_range():
    block = simulate(_run(duration=2e-4, seed=41))
    assert abs(float(block.samples.mean())) < 0.5
    assert block.samples.min() >= -128
    assert block.samples.max() <= 127


def test_saturation_is_rare_at_five_sigma():
    block = simulate(_run(duration=2e-3, seed=43))  # 10^6 samples
    assert block.saturation_fraction() < 1e-5


def test_sample_count_follows_duration():
    block = simulate(_run(duration=4e-5))
    assert len(block) == round(4e-5 * 500e6)


def test_rf_tone_appears_in_spectrum():
    tone_hz, amp = 80e6, 5e-3
    clean = simulate(_run(duration=4e-4, seed=47))
    spur = simulate(_run(duration=4e-4, seed=47, rf_tones=((tone_hz, amp),)))
    assert spur.variance_volts() > clean.variance_volts()
    freqs, pxx = welch(spur.volts(), fs=500e6, nperseg=2048)
    peak_hz = freqs[1:][np.argmax(pxx[1:])]  # skip the DC bin
    assert abs(peak_hz - tone_hz) < 2 * (freqs[1] - freqs[0])


# ---------------------------------------------------------------------------
# oversampling and autocorrelation
# ---------------------------------------------------------------------------


def test_oversampling_raises_lag1_autocorrelation():
    at_band = simulate(_run(duration=4e-4, seed=501))
    over = simulate(
        SimulationRun(
            model=make_ref_model(P_REF),
            chain=_chain(sample_rate_hz=5e9),
            duration=4e-5,
            seed=502,
        )
    )
    r_band = autocorrelation(at_band.volts(), max_lag=1)[1]
    r_over = autocorrelation(over.volts(), max_lag=1)[1]
    assert abs(r_band) < 0.2
    assert r_over > 0.5
    assert r_over / max(abs(r_band), 1e-12) > 5.0


# ---------------------------------------------------------------------------
# fringe scans
# ---------------------------------------------------------------------------


def _quantum_only_run(seed=53):
    model = LaserNoiseModel(
        quantum_diffusion_q=AQ_REF / (CONV_GAIN * DELAY_TD),
        classical_diffusion_c=0.0,
        power_p=P_REF,
    )
    return SimulationRun(
        model=model, chain=_chain(electronic_noise_f=0.0), duration=6e-5, seed=seed
    )


def _fringe_scan(run, phis):
    # (phi, variance) at each interferometer phase, as runs.calibrate scans
    variances = simulate_variances(run, NS_FRINGE, [
        (run.model, replace(run.chain, quadrature_offset=phi - math.pi / 2))
        for phi in phis
    ])
    return list(zip(phis, variances))


@pytest.mark.parametrize(
    "offset",
    [-math.pi / 2, math.pi / 2, -math.pi / 2 + 0.005, -math.pi / 2 - 0.005,
     math.pi / 2 + 0.005, math.pi / 2 - 0.005],
)
def test_adc_range_holds_at_fringe_extremum(offset):
    # with F = 0 the first-order term vanishes at an extremum; the range must
    # still track the second-order sigma.  The signal there is -cos(dtheta),
    # chi-square shaped, so its 5-sigma tail clips ~4e-3 of the codes, not
    # the Gaussian 6e-7
    base = _quantum_only_run(seed=61)
    block = simulate(
        replace(base, chain=replace(base.chain, quadrature_offset=offset), duration=4e-4)
    )
    sigma_range = block.adc_scale * 2**8 / (2 * 5.0)
    assert sigma_range == pytest.approx(math.sqrt(block.variance_volts()), rel=0.05)
    assert block.saturation_fraction() < 1e-2


def test_fringe_scan_peaks_at_quadrature():
    phis = list(np.linspace(0.0, math.pi, 9))
    fringe = _fringe_scan(_quantum_only_run(), phis)
    assert len(fringe) == 9
    assert [p for p, _ in fringe] == phis
    variances = [v for _, v in fringe]
    step = phis[1] - phis[0]
    assert abs(phis[int(np.argmax(variances))] - math.pi / 2) <= step / 2 + 1e-12
    # recovered operating point within 0.05 rad of the true quadrature
    assert find_quadrature(fringe) == pytest.approx(math.pi / 2, abs=0.05)


def test_fringe_scan_is_symmetric_about_quadrature():
    phis = list(np.linspace(0.0, math.pi, 9))
    fringe = dict(_fringe_scan(_quantum_only_run(seed=59), phis))
    v_max = max(fringe.values())
    for k in (2, 3):  # interior pairs phi and pi - phi
        lo, hi = phis[k], phis[8 - k]
        assert abs(fringe[lo] - fringe[hi]) / v_max < 0.05


def test_fringe_scan_flat_without_interference():
    # electronic noise only: no optical signal, no fringe contrast
    run = SimulationRun(
        model=LaserNoiseModel(quantum_diffusion_q=0.0, classical_diffusion_c=0.0, power_p=0.0),
        chain=_chain(),
        duration=4e-5,
        seed=61,
    )
    fringe = _fringe_scan(run, list(np.linspace(0.0, math.pi, 9)))
    variances = np.array([v for _, v in fringe])
    # no phase dependence at all: every point is the electronic floor within
    # estimator noise (a contrast-vs-noise rejection on sampled data is
    # exercised with exact constant values in the calibration tests)
    assert variances.max() / variances.min() - 1.0 < 0.05


# ---------------------------------------------------------------------------
# stability scenarios
# ---------------------------------------------------------------------------


def _stability(run, total_time, report_interval, phase_drift_rate=0.0,
               power_drift=None, recalibration_period=None):
    return simulate_stability(run, phase_drift_rate, power_drift,
                              recalibration_period, total_time, report_interval)


def test_stability_without_drift_is_flat():
    points = _stability(_run(seed=67), total_time=300.0, report_interval=30.0)
    assert len(points) == 11
    variances = np.array([p.variance for p in points])
    assert variances.std() / variances.mean() < 0.05
    entropies = np.array([p.min_entropy for p in points])
    assert entropies.max() - entropies.min() < 0.1


def test_stability_drift_degrades_variance():
    # pi radians per 10 minutes without recalibration: after 5 minutes the
    # operating point sits at the extremum and only the floor F remains
    points = _stability(
        _run(seed=71), total_time=300.0, report_interval=30.0,
        phase_drift_rate=math.pi / 600.0,
    )
    assert points[-1].variance < 0.8 * points[0].variance
    assert points[-1].variance == pytest.approx(F_REF, rel=0.15)
    assert points[-1].min_entropy < points[0].min_entropy - 1.0


def test_stability_recalibration_holds_variance():
    # same drift, but a 2-minute servo recal; reporting on the recal cadence
    # shows every measurement back at >= 90% of the initial maximum
    points = _stability(
        _run(seed=73), total_time=1200.0, report_interval=120.0,
        phase_drift_rate=math.pi / 600.0, recalibration_period=120.0,
    )
    v0 = points[0].variance
    assert all(p.variance >= 0.9 * v0 for p in points)


def test_stability_recalibration_bounds_entropy_swing():
    points = _stability(
        _run(seed=79), total_time=600.0, report_interval=60.0,
        phase_drift_rate=math.pi / 1800.0, recalibration_period=60.0,
    )
    entropies = [p.min_entropy for p in points]
    assert max(entropies) - min(entropies) < 1.0


def test_stability_power_drift_applies():
    points = _stability(
        _run(seed=83), total_time=200.0, report_interval=20.0,
        power_drift=lambda t: 1.0 + 0.5 * (t > 100.0),
    )
    early = points[0].variance
    late = points[-1].variance
    # 1.5x power raises the variance (AQ*P dominates at the reference point)
    assert late > early * 1.2


def test_stability_reports_applied_phase():
    points = _stability(
        _run(seed=89), total_time=100.0, report_interval=10.0, phase_drift_rate=1e-3
    )
    assert points[0].applied_phi2 == pytest.approx(math.pi / 2)
    assert points[-1].applied_phi2 == pytest.approx(math.pi / 2 + 0.1)


def test_stability_recalibration_after_last_report_is_the_free_run():
    run = _run(duration=1e-5, seed=101)
    drift = dict(total_time=300.0, report_interval=30.0, phase_drift_rate=math.pi / 600.0)
    free = _stability(run, **drift)
    late = _stability(run, recalibration_period=300.5, **drift)
    assert late == free


def test_stability_point_is_one_seeded_simulate():
    run = _run(duration=1e-5, seed=103)
    points = _stability(
        run, total_time=100.0, report_interval=10.0, phase_drift_rate=1e-3,
        power_drift=lambda t: 1.0 + 1e-3 * t,
    )
    for k, point in enumerate(points):
        t = point.time
        sub = replace(
            run,
            model=replace(run.model, power_p=run.model.power_p * (1.0 + 1e-3 * t)),
            chain=replace(
                run.chain, quadrature_offset=run.chain.quadrature_offset + 1e-3 * t
            ),
            seed=derive_seed(run.seed, NS_STABILITY, k),
        )
        assert point.variance == simulate(sub).variance_volts()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_run_validation():
    with pytest.raises(ValueError):
        _run(duration=0.0)
    with pytest.raises(ValueError):
        _run(oversample_factor=3)
    with pytest.raises(ValueError):
        _run(seed=-1)
    with pytest.raises(ValueError):
        _run(seed=2**64)
    with pytest.raises(ValueError, match="shorter than the interferometer delay"):
        _run(delay_td=100e-12, oversample_factor=4)


def test_a_run_shorter_than_the_delay_is_a_prefix_of_a_longer_run():
    # the L-step phase history is drawn before the first chunk, so two
    # samples at 5 GS/s, 0.4 ns in all, need no 540 ps of run
    run = _run(duration=2 / 5e9, seed=71, sample_rate_hz=5e9)
    assert run.duration < run.chain.delay_td
    short = simulate(run).samples
    assert short.size == 2
    np.testing.assert_array_equal(
        simulate(replace(run, duration=5000 / 5e9)).samples[:2], short
    )
    # at 500 MS/s a duration under the delay is under one sample
    with pytest.raises(ValueError, match="shorter than one output sample"):
        simulate(_run(duration=1e-10))


def test_silent_chain_rejected():
    run = SimulationRun(
        model=LaserNoiseModel(quantum_diffusion_q=0.0, classical_diffusion_c=0.0, power_p=0.0),
        chain=_chain(electronic_noise_f=0.0),
        duration=4e-5,
        seed=97,
    )
    with pytest.raises(ValueError, match="silent"):
        simulate(run)
