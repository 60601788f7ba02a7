"""Toeplitz extractor: GF(2) algebra against the explicit matrix, stream plumbing."""

import hashlib
import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from phaseqrng import extract
from phaseqrng.extract import ToeplitzSeed, extract_stream, samples_to_bits
from phaseqrng.model import EntropyReport, SampleBlock
from phaseqrng.sim import CodeStream

from conftest import hash_bits, on_threads, toeplitz_matrix, toeplitz_product


def _seed_from_bits(bits, n_in, n_out):
    return ToeplitzSeed(
        bits=np.asarray(bits, dtype=np.uint8), n_in=n_in, n_out=n_out, seed_rng=0
    )


def _report(ratio, bits=8):
    h = ratio * bits if ratio * bits > 0 else 0.1
    return EntropyReport(
        qcnr=3.38,
        sigma_sq_total=1.0,
        sigma_sq_quantum=0.77,
        min_entropy_bits=min(h + 1e-9, bits),
        samples_bits=bits,
        extraction_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# matrix construction (the oracle in conftest)
# ---------------------------------------------------------------------------


def test_matrix_layout_from_seed():
    # n_in=4, n_out=3: column = seed[0:3], row = seed[2:6], shared corner seed[2]
    seed = _seed_from_bits([1, 0, 1, 0, 1, 1], n_in=4, n_out=3)
    t = toeplitz_matrix(seed)
    expected = np.array(
        [
            [1, 0, 1, 1],
            [0, 1, 0, 1],
            [1, 0, 1, 0],
        ],
        dtype=np.uint8,
    )
    np.testing.assert_array_equal(t, expected)
    np.testing.assert_array_equal(t[:, 0], [1, 0, 1])  # first column, top-down
    np.testing.assert_array_equal(t[0, :], [1, 0, 1, 1])  # first row


def test_matrix_is_constant_along_diagonals():
    seed = ToeplitzSeed.generate(17, 11, seed_rng=99)
    t = toeplitz_matrix(seed)
    for i in range(1, 11):
        np.testing.assert_array_equal(t[i, 1:], t[i - 1, : t.shape[1] - 1])


def test_hash_worked_example():
    seed = _seed_from_bits([1, 0, 1, 0, 1, 1], n_in=4, n_out=3)
    x = np.array([1, 1, 0, 0], dtype=np.uint8)
    # hand computation: row i of T dotted with x, mod 2
    expected = (toeplitz_matrix(seed) @ x) % 2
    np.testing.assert_array_equal(expected, [1, 1, 1])
    np.testing.assert_array_equal(hash_bits(seed, x), [1, 1, 1])


def test_zero_input_hashes_to_zero():
    seed = ToeplitzSeed.generate(64, 40, seed_rng=5)
    out = hash_bits(seed, np.zeros(64, dtype=np.uint8))
    assert not out.any()


# ---------------------------------------------------------------------------
# seed validation / generation
# ---------------------------------------------------------------------------


def test_seed_bit_count_enforced():
    with pytest.raises(ValueError, match="n_in \\+ n_out - 1"):
        _seed_from_bits([1, 0, 1], n_in=4, n_out=3)


def test_seed_rejects_n_out_above_n_in():
    with pytest.raises(ValueError, match="n_out cannot exceed n_in"):
        ToeplitzSeed.generate(4, 5, seed_rng=0)


def test_seed_rejects_non_binary_bits():
    with pytest.raises(ValueError):
        _seed_from_bits([2, 0, 1, 0, 1, 1], n_in=4, n_out=3)


def test_seed_generation_is_reproducible():
    a = ToeplitzSeed.generate(128, 64, seed_rng=42)
    b = ToeplitzSeed.generate(128, 64, seed_rng=42)
    c = ToeplitzSeed.generate(128, 64, seed_rng=43)
    np.testing.assert_array_equal(a.bits, b.bits)
    assert (a.bits != c.bits).any()


# ---------------------------------------------------------------------------
# GF(2) algebra
# ---------------------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_hash_is_gf2_linear(data):
    rng_seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(rng_seed)
    n_in = int(data.draw(st.integers(min_value=2, max_value=64)))
    n_out = int(data.draw(st.integers(min_value=1, max_value=n_in)))
    seed = ToeplitzSeed.generate(n_in, n_out, seed_rng=rng_seed)
    x = rng.integers(0, 2, n_in, dtype=np.uint8)
    y = rng.integers(0, 2, n_in, dtype=np.uint8)
    lhs = hash_bits(seed, x ^ y)
    rhs = hash_bits(seed, x) ^ hash_bits(seed, y)
    np.testing.assert_array_equal(lhs, rhs)


def test_fft_route_matches_matrix_oracle():
    rng = np.random.default_rng(20260219)
    for _ in range(200):
        n_in = int(rng.integers(1, 65))
        n_out = int(rng.integers(1, n_in + 1))
        seed = ToeplitzSeed.generate(n_in, n_out, seed_rng=int(rng.integers(2**32)))
        x = rng.integers(0, 2, n_in, dtype=np.uint8)
        fast = hash_bits(seed, x)
        slow = (toeplitz_matrix(seed).astype(np.int64) @ x) % 2
        np.testing.assert_array_equal(fast, slow)


def test_next_fast_len_matches_scipy():
    # the transform length, and so the FFT's rounding, is SciPy's for real input
    targets = range(1, 20_001)
    assert [extract._next_fast_len(t) for t in targets] == [
        next_fast_len(t, real=True) for t in targets
    ]


# ---------------------------------------------------------------------------
# sample serialisation
# ---------------------------------------------------------------------------


def test_samples_to_bits_twos_complement_lsb_first():
    bits = samples_to_bits(np.array([1, -1, -128], dtype=np.int16), 8)
    assert bits.size == 24
    np.testing.assert_array_equal(bits[0:8], [1, 0, 0, 0, 0, 0, 0, 0])  # +1
    np.testing.assert_array_equal(bits[8:16], [1, 1, 1, 1, 1, 1, 1, 1])  # -1 -> 0xFF
    np.testing.assert_array_equal(bits[16:24], [0, 0, 0, 0, 0, 0, 0, 1])  # -128 -> 0x80


def test_samples_to_bits_narrow_adc():
    bits = samples_to_bits(np.array([-4, 3], dtype=np.int16), 3)
    assert bits.size == 6
    np.testing.assert_array_equal(bits, [0, 0, 1, 1, 1, 0])  # -4 -> 100b, 3 -> 011b
    # every width at its extreme codes, against integer two's complement
    for adc_bits in range(1, 17):
        lo, hi = -(1 << (adc_bits - 1)), (1 << (adc_bits - 1)) - 1
        codes = [lo, min(lo + 1, hi), -1, 0, hi]
        expected = [c % (1 << adc_bits) >> i & 1 for c in codes for i in range(adc_bits)]
        np.testing.assert_array_equal(
            samples_to_bits(np.array(codes, dtype=np.int16), adc_bits), expected,
            err_msg=f"adc_bits={adc_bits}")


# ---------------------------------------------------------------------------
# stream extraction
# ---------------------------------------------------------------------------


def _stream_block(codes, bits=8):
    return SampleBlock(
        samples=np.asarray(codes, dtype=np.int16),
        adc_bits=bits,
        sample_rate_hz=500e6,
        adc_scale=1e-4,
        origin="simulated",
        rng_seed=77,
    )


def test_extract_stream_output_count():
    # 1000 samples * 8 bits = 8000 raw bits -> 15 full blocks of 512, tail dropped
    rng = np.random.default_rng(1)
    block = _stream_block(rng.integers(-128, 128, 1000))
    seed = ToeplitzSeed.generate(512, 256, seed_rng=9)
    report = _report(0.51)
    out = extract_stream(block, report, seed)
    assert out.count == (8000 // 512) * 256
    assert out.provenance["seed_rng"] == "9" or out.provenance["seed_rng"] == 9


def test_extract_stream_matches_per_block_hash():
    rng = np.random.default_rng(2)
    block = _stream_block(rng.integers(-128, 128, 64))
    seed = ToeplitzSeed.generate(128, 64, seed_rng=11)
    report = _report(0.5)
    out = extract_stream(block, report, seed).as_bit_array()
    raw = samples_to_bits(block.samples, 8).reshape(4, 128)
    expected = (raw.astype(np.int64) @ toeplitz_matrix(seed).T) % 2
    np.testing.assert_array_equal(out, expected.reshape(-1))


def _check_chunks_match_per_block_hash(monkeypatch, adc_bits, chunk_rows, n_blocks=600,
                                       workers=0):
    # workers > 0: that many threads hash the same block at once
    monkeypatch.setattr(extract, "_CHUNK_ROWS", chunk_rows)
    n_in, n_out = 100, 37
    half = 1 << (adc_bits - 1)
    rng = np.random.default_rng(adc_bits)
    block = _stream_block(rng.integers(-half, half, n_blocks * n_in // adc_bits + 3),
                          bits=adc_bits)
    seed = ToeplitzSeed.generate(n_in, n_out, seed_rng=13)

    def call():
        return extract_stream(block, _report(0.37, bits=adc_bits), seed)

    outs = on_threads(call, workers) if workers else [call()]
    raw = samples_to_bits(block.samples, adc_bits)
    assert raw.size // n_in == n_blocks
    blocks = raw[: n_blocks * n_in].reshape(n_blocks, n_in).astype(np.int64)
    expected = (blocks @ toeplitz_matrix(seed).T % 2).astype(np.uint8)
    for out in outs:
        assert out.count == n_blocks * n_out
        assert out.bits == np.packbits(expected, bitorder="little").tobytes()


@pytest.mark.parametrize("chunk_blocks", [64, 8])
@pytest.mark.parametrize("adc_bits", [7, 12])
def test_extract_stream_chunks_match_per_block_hash(monkeypatch, adc_bits, chunk_blocks):
    # 100 input bits a block, 6 blocks an FFT row: buffers of 64 or 8 rows
    # end mid-sample at 7 and at 12 bits, and 600 blocks span several
    # buffers, the last one partial
    assert extract._digits_per_row(100, extract._next_fast_len(136)) == 6
    _check_chunks_match_per_block_hash(monkeypatch, adc_bits, chunk_blocks)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("chunk_blocks", [64, 8])
@pytest.mark.parametrize("adc_bits", [7, 12])
def test_extract_stream_chunks_match_per_block_hash_on_workers(monkeypatch, adc_bits,
                                                               chunk_blocks, workers):
    # as above, called from 1 to 8 threads at once on one block and one seed:
    # each call keeps its own buffers, so every thread gets the same bytes
    _check_chunks_match_per_block_hash(monkeypatch, adc_bits, chunk_blocks,
                                       workers=workers)


class _ChunkFailure(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 3])
def test_extract_stream_raises_a_worker_error_without_hanging(monkeypatch, workers):
    # on each of 1 or 3 threads calling at once, the second buffer's inverse
    # FFT fails: each caller gets its own exception and returns, and a later
    # call is not disturbed by the buffers the failed ones left behind
    block = _stream_block(np.random.default_rng(6).integers(-128, 128, 600 * 100 // 8))
    seed = ToeplitzSeed.generate(100, 37, seed_rng=13)
    expected = extract_stream(block, _report(0.37), seed)
    local, irfft = threading.local(), np.fft.irfft

    def failing_irfft(*args, **kwargs):
        calls = local.__dict__.setdefault("calls", itertools.count())
        if next(calls) == 1:
            raise _ChunkFailure(threading.get_ident())
        return irfft(*args, **kwargs)

    monkeypatch.setattr(extract.np.fft, "irfft", failing_irfft)
    raised = on_threads(lambda: extract_stream(block, _report(0.37), seed), workers)
    assert all(isinstance(exc, _ChunkFailure) for exc in raised), raised
    assert len({exc.args for exc in raised}) == workers  # one a thread, its own
    monkeypatch.setattr(extract.np.fft, "irfft", irfft)
    assert extract_stream(block, _report(0.37), seed) == expected


@pytest.mark.parametrize("digits", [1, 2, 5])
@pytest.mark.parametrize("adc_bits", [7, 12])
def test_extract_stream_matches_per_block_hash_at_any_digit_count(monkeypatch, adc_bits,
                                                                  digits):
    # one block a row is the plain hash; at 2 and 5 blocks a row, 603 blocks
    # end in a short last row of 1 and 3 blocks, in a partial last buffer
    monkeypatch.setattr(extract, "_digits_per_row", lambda n_in, n: digits)
    _check_chunks_match_per_block_hash(monkeypatch, adc_bits, 8, n_blocks=603)


def _check_all_ones_hash_is_exact(n_in, n_out, n_blocks):
    # an all-ones seed and an all-ones input: every count is n_in, and every
    # packed row is at the largest value its digits can take
    seed = _seed_from_bits(np.ones(n_in + n_out - 1), n_in, n_out)
    block = _stream_block(np.full(-(-n_blocks * n_in // 16), -1), bits=16)
    out = extract_stream(block, _report(n_out / n_in, bits=16), seed)
    x = np.ones((len(block) * 16 // n_in, n_in), np.uint8)
    expected = (toeplitz_product(seed, x) % 2).astype(np.uint8)
    assert out.bits == np.packbits(expected, bitorder="little").tobytes()


@pytest.mark.parametrize("n_out", [2878, 4096])
def test_packed_rows_are_exact_at_the_worst_case_of_n_in_4096(n_out):
    n_in = 4096
    assert extract._digits_per_row(n_in, extract._next_fast_len(n_in + n_out - 1)) == 3
    _check_all_ones_hash_is_exact(n_in, n_out, 6)  # two full rows of 3 blocks


# the largest n_in at which an FFT row for n_out = 1 carries K blocks: past
# it, the error bound allows fewer
LARGEST_N_IN = {2: 2_097_151, 3: 16_383, 4: 1_831, 5: 300, 6: 127, 7: 63, 8: 31,
                9: 30, 11: 15, 15: 7, 23: 3, 49: 1}


@pytest.mark.parametrize("digits, n_in", LARGEST_N_IN.items())
def test_packed_rows_are_exact_at_the_largest_n_in_of_each_digit_count(digits, n_in):
    fast_len = extract._next_fast_len
    assert extract._digits_per_row(n_in, fast_len(n_in)) == digits
    assert extract._digits_per_row(n_in + 1, fast_len(n_in + 1)) < digits
    # a full row and a short one (more where a row is a few bits)
    _check_all_ones_hash_is_exact(n_in, 1, max(digits + 1, 16 // n_in))


def test_extract_stream_hashes_on_the_calling_thread_at_one_worker(monkeypatch):
    # the extractor starts no thread: every buffer is hashed by the caller
    threads, hash_rows = [], extract._hash_rows

    def recording_hash_rows(*args):
        threads.append(threading.get_ident())
        hash_rows(*args)

    block = _stream_block(np.random.default_rng(8).integers(-128, 128, 600 * 100 // 8))
    seed = ToeplitzSeed.generate(100, 37, seed_rng=13)
    expected = extract_stream(block, _report(0.37), seed)
    monkeypatch.setattr(extract, "_hash_rows", recording_hash_rows)
    running = threading.active_count()
    assert extract_stream(block, _report(0.37), seed) == expected
    assert threading.active_count() == running
    # one buffer of 8 rows of 6 blocks at a time, the last one partial
    assert threads == [threading.get_ident()] * -(-600 // (extract._CHUNK_ROWS * 6))


@given(seed=st.integers(0, 2**32 - 1), adc_bits=st.sampled_from([7, 12]),
       n_cuts=st.integers(0, 40), ones=st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_extract_stream_of_chunks_equals_that_of_one_block(seed, adc_bits, n_cuts, ones):
    # the first ``ones`` chunks one code each, then edges anywhere: mid-block
    # and, at 7 and 12 bits, mid-sample; bits, count and provenance are those
    # of the same codes in one SampleBlock
    rng = np.random.default_rng(seed)
    half = 1 << (adc_bits - 1)
    codes = rng.integers(-half, half, 600 * 100 // adc_bits + 3).astype(np.int16)
    edges = sorted({*range(ones), *rng.integers(0, codes.size, n_cuts).tolist()})
    chunks = [codes[a:b] for a, b in zip([0, *edges], [*edges, codes.size])]
    stream = CodeStream(iter(chunks), codes.size, adc_bits, adc_scale=1e-4)
    tseed = ToeplitzSeed.generate(100, 37, seed_rng=13)
    report = _report(0.37, bits=adc_bits)
    assert extract_stream(stream, report, tseed) == extract_stream(
        _stream_block(codes, bits=adc_bits), report, tseed)


def test_extract_stream_peak_memory_grows_only_by_the_packed_output():
    seed = ToeplitzSeed.generate(1024, 512, seed_rng=3)
    rng = np.random.default_rng(4)
    peaks, sizes = [], []
    for n_blocks in (300, 1200):
        block = _stream_block(rng.integers(-128, 128, n_blocks * 128))
        tracemalloc.start()
        try:
            out = extract_stream(block, _report(0.51), seed)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(len(out.bits))
    # the peak is one chunk's hash beside the packed output so far; the
    # unpacked bits of four times the input would be several MB more
    assert peaks[1] - peaks[0] <= sizes[1] - sizes[0] + 65536, (peaks, sizes)


def test_extract_stream_peak_memory_is_the_in_flight_blocks_and_the_output():
    # at n_in 4096, 8 rows of 3 blocks are in flight: their spectra, padded
    # rows and staged bits, beside the packed output, are all the hash keeps
    n_in, n_out = 4096, 2048
    seed = ToeplitzSeed.generate(n_in, n_out, seed_rng=3)
    block = _stream_block(np.random.default_rng(5).integers(-128, 128, 200 * n_in // 8))
    n = next_fast_len(n_in + n_out - 1, real=True)
    in_flight = 8 * ((n // 2 + 1) * 16 + n * 8 + 3 * n_in)
    tracemalloc.start()
    try:
        out = extract_stream(block, _report(0.51), seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.bits) == 200 * n_out // 8
    assert peak - len(out.bits) <= in_flight + 2**20, (peak, len(out.bits), in_flight)


def test_extract_stream_hands_over_its_output_read_only():
    seed = ToeplitzSeed.generate(1024, 512, seed_rng=3)
    out = extract_stream(_stream_block(np.arange(-128, 128).repeat(16)), _report(0.51), seed)
    assert isinstance(out.bits, memoryview)  # the hash's own output, not a copy
    with pytest.raises(TypeError):
        out.bits[0] = 1
    with pytest.raises(ValueError):
        out.bits.obj[0] = 1  # nor through the array under it


def test_extract_stream_deterministic():
    rng = np.random.default_rng(3)
    codes = rng.integers(-128, 128, 2048)
    seed = ToeplitzSeed.generate(1024, 512, seed_rng=21)
    report = _report(0.51)
    a = extract_stream(_stream_block(codes), report, seed)
    b = extract_stream(_stream_block(codes), report, seed)
    assert a.bits == b.bits
    assert a.provenance == b.provenance


def test_extract_stream_empty_input():
    seed = ToeplitzSeed.generate(128, 64, seed_rng=0)
    out = extract_stream(_stream_block([]), _report(0.5), seed)
    assert out.count == 0


def test_extract_stream_short_input_discards_partial_block():
    # 10 samples * 8 bits = 80 raw bits < n_in=128: nothing to hash
    seed = ToeplitzSeed.generate(128, 64, seed_rng=0)
    out = extract_stream(_stream_block(list(range(10))), _report(0.5), seed)
    assert out.count == 0


def test_extract_stream_enforces_entropy_budget():
    seed = ToeplitzSeed.generate(128, 96, seed_rng=0)  # asks for 0.75
    with pytest.raises(ValueError, match="exceeds entropy budget"):
        extract_stream(_stream_block(list(range(32))), _report(0.5), seed)


def test_extract_stream_enforces_sample_width():
    seed = ToeplitzSeed.generate(128, 32, seed_rng=0)
    block = _stream_block([0, 1, 2, 3], bits=12)
    with pytest.raises(ValueError, match="does not match entropy report"):
        extract_stream(block, _report(0.5, bits=8), seed)


def test_extract_stream_provenance_identifies_inputs():
    rng = np.random.default_rng(4)
    codes = rng.integers(-128, 128, 256)
    seed = ToeplitzSeed.generate(256, 128, seed_rng=55)
    out = extract_stream(_stream_block(codes), _report(0.51), seed)
    seed_sha256 = hashlib.sha256(seed.bits.tobytes()).hexdigest()
    assert out.provenance["seed_sha256"] == seed_sha256
    assert len(out.provenance["source_sha256"]) == 64
    # different source data -> different source hash
    out2 = extract_stream(_stream_block(codes[::-1].copy()), _report(0.51), seed)
    assert out2.provenance["source_sha256"] != out.provenance["source_sha256"]


def test_constant_input_still_produces_output_but_fails_stats():
    # the extractor is deterministic: biased input in, bits out; quality
    # control is the statistics layer's job
    from phaseqrng.stats import serial_test

    block = _stream_block([37] * 4096)
    seed = ToeplitzSeed.generate(1024, 512, seed_rng=8)
    out = extract_stream(block, _report(0.51), seed)
    assert out.count == (4096 * 8 // 1024) * 512
    arr = out.as_bit_array()
    # every hashed block is identical
    blocks = arr.reshape(-1, 512)
    assert (blocks == blocks[0]).all()
    p1, p2 = serial_test(arr, m=8)
    assert p1 < 1e-6 or p2 < 1e-6
