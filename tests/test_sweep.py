import hashlib

import numpy as np
import pytest

from lbpstego import analysis, sweep, synth
from lbpstego.analysis import Reference, emit_csv
from lbpstego.codec import HEADER_BYTES, StegoParams, capacity
from lbpstego.image import GrayImage, PgmFile, save_pgm
from lbpstego.sweep import (
    METHOD_NAMES,
    check_cells,
    crop_payload_to_rate,
    embed_at_rate,
    payload_bits,
    pdh_correlation,
    run_sweep,
)


@pytest.fixture(scope="module")
def cover():
    rng = np.random.default_rng(100)
    return GrayImage(rng.integers(10, 246, (60, 60), dtype=np.uint8))


@pytest.fixture(scope="module")
def payload():
    rng = np.random.default_rng(101)
    return GrayImage(rng.integers(0, 256, (40, 40), dtype=np.uint8))


def test_crop_tracks_rate(cover, payload):
    params = StegoParams(1)
    cap = capacity(cover, params)
    for rate in (10, 25, 50, 100):
        cropped = crop_payload_to_rate(payload, cover, params, rate)
        stream = HEADER_BYTES + cropped.width * cropped.height
        # row granularity: realized rate within one payload row of the request
        assert stream <= cap * rate / 100.0 + payload.width + HEADER_BYTES
        assert cropped.width == payload.width

    with pytest.raises(ValueError):
        crop_payload_to_rate(payload, cover, params, 0)


def test_payload_bits_tile_when_short():
    payload = GrayImage(np.array([[0b10100000]], dtype=np.uint8))
    bits = payload_bits(payload, 20)
    assert list(bits[:8]) == [1, 0, 1, 0, 0, 0, 0, 0]
    assert list(bits[8:16]) == [1, 0, 1, 0, 0, 0, 0, 0]


def test_rate_zero_returns_cover(cover, payload):
    for method in METHOD_NAMES:
        stego, bits = embed_at_rate(cover, payload, method, 0)
        assert stego == cover and bits == 0


@pytest.mark.parametrize("method", METHOD_NAMES)
@pytest.mark.parametrize("rate", [-5, 100.5, float("nan")])
def test_every_method_refuses_a_rate_outside_0_to_100(cover, payload, method, rate):
    with pytest.raises(ValueError, match=r"rates must lie in \(0, 100\]"):
        embed_at_rate(cover, payload, method, rate)


def test_unknown_method_rejected(cover, payload):
    with pytest.raises(ValueError):
        embed_at_rate(cover, payload, "hugo", 10)


def _outcome(call):
    """(type, message) of the ValueError ``call()`` raises, or None if it returns."""
    try:
        call()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "payload_shape, methods, rates, mu",
    [
        ((2, 10), ["lsb1", "proposed"], [50, 10], 1),
        ((1, 60), ["proposed"], [100], 1),  # exactly full at every rate
        ((1, 61), ["proposed", "lsb1", "lsbmr"], [10, 50], 1),  # one byte over
        ((1, 125), ["lsbm", "proposed"], [30, 20], 2),
        ((1, 65536), ["proposed"], [0, 10], 4),
        ((1, 65536), ["lsb2", "lsbmr"], [10], 1),  # baseline cells do not fail on size
        ((1, 61), ["zzz", "proposed"], [10], 1),
        ((1, 61), ["aaa", "proposed"], [10], 1),
        ((2, 10), ["proposed"], [10], 9),
        ((2, 10), ["lsb1"], [10], 9),
    ],
)
def test_check_cells_raises_what_the_first_failing_cell_raises(tmp_path, payload_shape, methods, rates, mu):
    """Asked on a cover, or on its header alone, ``check_cells`` raises exactly
    when, and what, the cover's sweep would raise."""
    cover = synth.smooth_cover((24, 24), seed=1)  # 64 blocks
    payload = GrayImage(np.full(payload_shape, 7, dtype=np.uint8))
    expected = _outcome(lambda: run_sweep([("c.pgm", cover)], payload, methods, rates, mu=mu))
    assert _outcome(lambda: check_cells(cover, payload, methods, rates, mu)) == expected
    save_pgm(tmp_path / "c.pgm", cover)
    with PgmFile(tmp_path / "c.pgm") as header:
        assert _outcome(lambda: check_cells(header, payload, methods, rates, mu)) == expected


def test_pdh_correlation_bounds(cover):
    assert pdh_correlation(cover, cover) == 1.0
    inverted = GrayImage(255 - cover.pixels)
    assert -1.0 <= pdh_correlation(cover, inverted) <= 1.0


def test_pdh_correlation_of_a_flat_histogram():
    """A row 0,255,0,254,...,0,1,0,0 holds each difference -255..255 once, so
    its histogram has no variance: it correlates 1.0 with itself and 0.0 with
    any other histogram."""
    row = np.zeros((1, 512), dtype=np.uint8)
    row[0, 1:510:2] = np.arange(255, 0, -1)
    flat = GrayImage(row)
    assert (analysis.pd_histogram(flat) == 1).all()
    changed = row.copy()
    changed[0, -1] = 1
    assert pdh_correlation(flat, flat) == 1.0
    assert pdh_correlation(flat, GrayImage(changed)) == 0.0


def test_pdh_correlation_is_the_analysis_metric():
    """``analysis`` defines every metric; ``sweep`` only names it, so the
    bench can trace it per cell as ``sweep.pdh_correlation``."""
    assert sweep.pdh_correlation is analysis.pdh_correlation


def test_sweep_rows_sorted_and_deterministic(cover, payload):
    covers = [("b.pgm", cover), ("a.pgm", cover)]
    rows = run_sweep(covers, payload, ["lsbm", "proposed"], [20, 10], mu=1, seed=4)
    keys = [(r.image, r.method, r.rate) for r in rows]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2]))
    again = run_sweep(covers, payload, ["lsbm", "proposed"], [20, 10], mu=1, seed=4)
    assert emit_csv(rows) == emit_csv(again)


def test_pdh_correlation_takes_a_reference(cover):
    others = [cover, GrayImage(255 - cover.pixels), GrayImage(cover.pixels ^ 1)]
    ref = Reference(cover)
    for b in others:
        assert repr(pdh_correlation(ref, b)) == repr(pdh_correlation(cover, b))


def test_each_cover_sweeps_as_if_alone(payload):
    """A sweep over three covers is the three one-cover sweeps joined in order,
    so no cover's statistics reach another cover's cells."""
    rng = np.random.default_rng(102)
    covers = [
        ("a.pgm", synth.smooth_cover((48, 48), seed=5)),
        ("b.pgm", synth.textured_cover((48, 48), seed=6)),
        ("c.pgm", GrayImage(rng.integers(0, 256, (48, 48), dtype=np.uint8))),
    ]
    args = (payload, ["proposed", "lsbmr", "lsb2"], [10, 60])
    joined = [row for one in covers for row in run_sweep([one], *args, mu=2, seed=3)]
    assert emit_csv(run_sweep(covers[::-1], *args, mu=2, seed=3)) == emit_csv(joined)


def test_sweep_covers_all_cells(cover, payload):
    rows = run_sweep([("x.pgm", cover)], payload, ["proposed", "lsb1"], [10, 50], mu=2, seed=0)
    cells = {(r.method, r.rate) for r in rows}
    assert cells == {("proposed", 10), ("proposed", 50), ("lsb1", 10), ("lsb1", 50)}
    psnr_rows = [r for r in rows if r.metric == "psnr"]
    assert len(psnr_rows) == 4


# SHA-256 of emit_csv(run_sweep(...)) for every method at rates 10 and 100,
# keyed by (mu, seed); pins each metric value to the last CSV digit and the row order.
SWEEP_CSV_DIGESTS = {
    (1, 0): "d84c3388840ca60373ad50f8c207e42c42953d0ff9f4438b738aed4826c810bb",
    (1, 7): "d3efaebb361ee10d02aa34af5b973c6de497ff7bf0cbdf5d5bba3c837dd99cdc",
    (3, 0): "4c84c02b3b0970a0a9440daae34e3264223f7cdbb68b7dad75198840934bfb5e",
    (3, 7): "269bdc3af12bcf51f0b3e8bac302b145321a36df10c1d683d232d7a82f7a47a0",
}

# The same at rates 10, 30, 50 and 100, where each method's stegos at
# successive rates share their rows: pins the values across ascending rates.
SWEEP_CSV_DIGESTS_FOUR_RATES = {
    (1, 0): "6878e735f92d530a4432c8c705ab7b8b37a20c2eec16e4680c59e3acefc0b549",
    (3, 7): "883a3065044179f0830a4634526a84522445d127ccda9880b6e22c6362aad6ec",
}


def sweep_csv_digest(rates, mu, seed) -> str:
    """SHA-256 of the sweep CSV over an edge-level and a random cover, every method."""
    rng = np.random.default_rng(2024)
    levels = np.array([0, 1, 254, 255, 128], dtype=np.uint8)
    covers = [
        ("edges.pgm", GrayImage(rng.choice(levels, (36, 40), p=[0.22, 0.22, 0.22, 0.22, 0.12]))),
        ("random.pgm", GrayImage(rng.integers(0, 256, (42, 51), dtype=np.uint8))),
    ]
    payload = GrayImage(rng.integers(0, 256, (30, 10), dtype=np.uint8))
    csv = emit_csv(run_sweep(covers, payload, METHOD_NAMES, rates, mu=mu, seed=seed))
    assert len(csv.splitlines()) == 1 + 2 * 7 * len(rates) * 12
    return hashlib.sha256(csv.encode("ascii")).hexdigest()


@pytest.mark.parametrize("mu, seed", sorted(SWEEP_CSV_DIGESTS))
def test_sweep_csv_matches_golden_digest(mu, seed):
    assert sweep_csv_digest([10, 100], mu, seed) == SWEEP_CSV_DIGESTS[mu, seed]


@pytest.mark.parametrize("mu, seed", sorted(SWEEP_CSV_DIGESTS_FOUR_RATES))
def test_four_rate_sweep_csv_matches_golden_digest(mu, seed):
    assert sweep_csv_digest([10, 30, 50, 100], mu, seed) == SWEEP_CSV_DIGESTS_FOUR_RATES[mu, seed]
