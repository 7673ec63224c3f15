import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from helpers import malformed_idx_pair
from lssvmlim.errors import DataError
from lssvmlim.mixture import MixtureModel, mixture_stats, sample
from lssvmlim.mnist import (
    _moments,
    add_white_noise,
    class_stats,
    discrepancy_by_scaling,
    discrepancy_stats,
    load_idx,
    write_idx,
)


def tiny_pair(tmp_path, pixels=None, labels=None):
    if pixels is None:
        pixels = np.array([[0, 255], [255, 0], [0, 128], [255, 64]], dtype=np.uint8)
    if labels is None:
        labels = np.array([3, 7], dtype=np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx(pixels, labels, ip, lp)
    return ip, lp


def test_crafted_two_image_file(tmp_path):
    ip, lp = tiny_pair(tmp_path)
    X, y = load_idx(ip, lp, 3, 7)
    assert X.shape == (4, 2)
    np.testing.assert_allclose(X[:, 0], [0.0, 1.0, 0.0, 1.0])
    np.testing.assert_allclose(X[:, 1], [1.0, 0.0, 128 / 255, 64 / 255])
    np.testing.assert_array_equal(y, [-1.0, 1.0])


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(16, 10), dtype=np.uint8)
    labels = rng.choice(np.array([3, 7], dtype=np.uint8), size=10)
    ip, lp = tiny_pair(tmp_path, pixels, labels)
    X, y = load_idx(ip, lp, 3, 7)
    ip2, lp2 = tmp_path / "imgs2.idx", tmp_path / "labs2.idx"
    write_idx(np.rint(X * 255).astype(np.uint8), np.where(y < 0, 3, 7), ip2, lp2)
    assert ip.read_bytes() == ip2.read_bytes()
    assert lp.read_bytes() == lp2.read_bytes()


def test_gzip_transparent(tmp_path):
    ip, lp = tiny_pair(tmp_path)
    gz_ip, gz_lp = tmp_path / "imgs.idx.gz", tmp_path / "labs.idx.gz"
    gz_ip.write_bytes(gzip.compress(ip.read_bytes()))
    gz_lp.write_bytes(gzip.compress(lp.read_bytes()))
    a = load_idx(ip, lp, 3, 7)
    b = load_idx(gz_ip, gz_lp, 3, 7)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_wrong_magic(tmp_path):
    ip, lp = tiny_pair(tmp_path)
    blob = bytearray(ip.read_bytes())
    blob[3] = 0x99
    bad = tmp_path / "bad.idx"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="magic 0x"):
        load_idx(bad, lp, 3, 7)
    with pytest.raises(DataError, match="magic 0x"):
        load_idx(ip, ip, 3, 7)  # image magic where labels expected


def test_truncated_file(tmp_path):
    ip, lp = tiny_pair(tmp_path)
    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(ip.read_bytes()[:-3])
    with pytest.raises(DataError, match="more bytes"):
        load_idx(trunc, lp, 3, 7)
    header_only = tmp_path / "hdr.idx"
    header_only.write_bytes(ip.read_bytes()[:10])
    with pytest.raises(DataError, match="more bytes"):
        load_idx(header_only, lp, 3, 7)


@pytest.mark.parametrize(
    "case, named",
    [("zero-pixels", "4 images of 0 x 28 pixels hold no pixels"),
     ("huge-header", "expected 79228162458924105385300197375 more bytes, got 0"),
     ("overstated-size", "expected 17179344900 more bytes, got 64"),
     ("truncated-gzip", "end-of-stream marker"),
     ("corrupt-gzip", "while decompressing data")],
    ids=["zero-pixels", "huge-header", "overstated-size", "truncated-gzip", "corrupt-gzip"],
)
def test_malformed_file_is_a_data_error(tmp_path, case, named):
    # a header is compared with what the file holds, not trusted to size a read
    ip, lp = malformed_idx_pair(tmp_path, case)
    with pytest.raises(DataError, match=named):
        load_idx(ip, lp, 8, 9)


def test_count_mismatch(tmp_path):
    ip, _ = tiny_pair(tmp_path)
    lp3 = tmp_path / "labs3.idx"
    with open(lp3, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, 3))
        fh.write(bytes([1, 2, 3]))
    with pytest.raises(DataError, match="images but 3 labels"):
        load_idx(ip, lp3, 3, 7)


def test_class_stats_two_identical_images_per_class():
    img_a = np.full(9, 0.25)
    img_b = np.full(9, 0.75)
    images = np.column_stack([img_a, img_a, img_b, img_b])
    stats = class_stats(images, np.array([-1.0, -1.0, 1.0, 1.0]))
    assert (stats.p, stats.c1) == (9, 0.5)
    assert stats.mean_gap_sq == pytest.approx(9 * 0.5**2, rel=1e-15)
    assert stats.trace1 == stats.trace2 == 0.0
    assert stats.tr_c1c1 == stats.tr_c1c2 == stats.tr_c2c2 == 0.0
    assert stats.mean_gap_quad == (0.0, 0.0)


def test_load_idx_missing_class(tmp_path):
    ip, lp = tiny_pair(tmp_path, np.zeros((4, 3)), np.array([1, 1, 2]))
    with pytest.raises(DataError, match="no samples labeled 7"):
        load_idx(ip, lp, 1, 7)
    with pytest.raises(ValueError, match="the two digits must differ"):
        load_idx(ip, lp, 1, 1)


def test_load_idx_refuses_a_missing_first_digit_and_class_stats_single_images(tmp_path):
    ip, lp = tiny_pair(tmp_path, np.zeros((4, 3)), np.array([1, 1, 2]))
    with pytest.raises(DataError, match="no samples labeled 7"):
        load_idx(ip, lp, 7, 1)
    with pytest.raises(ValueError, match="need at least two samples per class"):
        class_stats(np.zeros((4, 2)), np.array([-1.0, 1.0]))


def test_write_idx_refuses_images_that_are_not_square(tmp_path):
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    with pytest.raises(ValueError, match="cannot infer square image size from p=5"):
        write_idx(np.zeros((5, 2)), np.array([1, 2]), ip, lp)
    assert not ip.exists() and not lp.exists()


def test_class_stats_recovers_synthetic_moments():
    # statistics estimated from a Gaussian dump are close to the generator's.
    # Over 300 draws at other seeds the relative standard deviation was
    # 0.6-1.9% for the traces, the trace products and ||mu2 - mu1||^2, and
    # 2.7% and 3.9% for the two quadratic forms, whose mean gap is estimated
    # too; each bound is at least 4 of those deviations
    p = 16
    rng = np.random.default_rng(1)
    mu1 = rng.uniform(0, 1, p)
    mu2 = rng.uniform(0, 1, p)
    A = rng.standard_normal((p, p)) / 4
    cov2 = A @ A.T
    model = MixtureModel(p, mu1, mu2, 0.04 * np.eye(p), cov2, c1=0.5)
    X, labels = sample(model, 4000, 4000, seed=2)
    est, true = class_stats(X, labels), model.stats
    assert (est.p, est.c1) == (p, 0.5)
    for name in ("trace1", "trace2", "tr_c1c1", "tr_c1c2", "tr_c2c2", "mean_gap_sq"):
        assert getattr(est, name) == pytest.approx(getattr(true, name), rel=0.08), name
    assert est.mean_gap_quad == pytest.approx(true.mean_gap_quad, rel=0.16)


def test_class_stats_covariances_are_valid_mixture_inputs():
    rng = np.random.default_rng(3)
    images = rng.uniform(0, 1, size=(25, 60))
    labels = np.repeat([-1.0, 1.0], 30)
    # a model of the same moments passes the symmetry and eigenvalue tests,
    # which class_stats skips, and has the same statistics bit for bit
    (mu_a, cov_a), (mu_b, cov_b) = (_moments(images[:, labels == d]) for d in (-1, 1))
    assert np.array_equal(cov_a, cov_a.T)
    model = MixtureModel(25, mu_a, mu_b, cov_a, cov_b, c1=0.5)
    assert class_stats(images, labels) == model.stats


def test_class_stats_holds_one_class_copy_at_a_time():
    # each class's columns are copied once and centred in place: the peak is
    # 0.57x the image bytes, against 1.55x with both classes' copies held and
    # np.cov's two more of one class
    rng = np.random.default_rng(4)
    images = rng.uniform(0, 1, size=(64, 4000))
    labels = np.repeat([-1.0, 1.0], 2000)
    before = images.copy()
    tracemalloc.start()
    try:
        stats = class_stats(images, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * images.nbytes
    assert np.array_equal(images, before)
    a, b = images[:, :2000], images[:, 2000:]
    expected = mixture_stats(a.mean(1), b.mean(1), np.cov(a, ddof=1), np.cov(b, ddof=1), 0.5)
    for name in ("trace1", "trace2", "tr_c1c1", "tr_c1c2", "tr_c2c2", "mean_gap_sq"):
        assert getattr(stats, name) == pytest.approx(getattr(expected, name), rel=1e-12), name
    assert stats.mean_gap_quad == pytest.approx(expected.mean_gap_quad, rel=1e-12)


def test_discrepancy_stats_identical_classes():
    p = 6
    m = MixtureModel(p, np.zeros(p), np.zeros(p), np.eye(p), np.eye(p), c1=0.5)
    assert discrepancy_stats(m.stats) == (0.0, 0.0, 0.0)


def test_discrepancy_stats_hand_example():
    p = 4
    m = MixtureModel(p, np.zeros(p), np.zeros(p), np.eye(p), 2 * np.eye(p), c1=0.5)
    m2, t2, s2 = discrepancy_stats(m.stats)
    assert m2 == 0.0
    assert t2 == pytest.approx(4.0, rel=1e-14)  # (tr I)^2 / p = 16 / 4
    assert s2 == pytest.approx(1.0, rel=1e-14)  # tr(I) / p = 4 / 4


def test_white_noise_identity_for_infinite_snr():
    images = np.full((4, 3), 0.5)
    assert add_white_noise(images, np.inf, 0) is images


@pytest.mark.parametrize("snr_db", [1e10, 1e300])
def test_white_noise_at_huge_snr_leaves_the_pixels_unchanged(snr_db):
    # the noise variance underflows to zero, as at +inf
    images = np.random.default_rng(3).uniform(0, 1, size=(16, 20))
    assert np.array_equal(add_white_noise(images.copy(), snr_db, seed=4), images)


def test_white_noise_zero_db_matches_signal_power():
    rng = np.random.default_rng(4)
    images = rng.uniform(0, 1, size=(64, 400))
    power = float(np.mean(images**2))
    noisy = add_white_noise(images.copy(), 0.0, seed=5)
    resid = noisy - images
    assert np.var(resid) == pytest.approx(power, rel=0.05)


def test_white_noise_zero_signal():
    noisy = add_white_noise(np.zeros((4, 5)), 0.0, seed=6)
    assert np.all(noisy == 0.0)


@pytest.mark.parametrize("order", ["C", "F"])
def test_white_noise_is_the_full_noise_array_added_in_place(order):
    # the noise is drawn 64 rows at a time from one generator and added to
    # X in place: bit for bit the one full-size draw it replaced, with a
    # traced peak of one block, where the full-size draw held a copy of X
    images = np.asarray(np.random.default_rng(12).uniform(0, 1, size=(200, 500)), order=order)
    flat = images.ravel(order="K")
    noise = np.random.default_rng(13).standard_normal(images.shape)
    noise *= np.sqrt(float(flat @ flat) / flat.size * 10.0 ** (-10.0 / 10.0))
    expected = noise + images
    tracemalloc.start()
    try:
        noisy = add_white_noise(images, 10.0, seed=13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert noisy is images
    assert np.array_equal(noisy, expected)
    assert peak < images.nbytes / 2  # one 64-row block is 0.32 of it


def test_white_noise_two_seeds_differ_by_twice_the_power():
    rng = np.random.default_rng(7)
    images = rng.uniform(0, 1, size=(64, 400))
    power = float(np.mean(images**2))
    a = add_white_noise(images.copy(), 0.0, seed=8)
    b = add_white_noise(images.copy(), 0.0, seed=9)
    diff_var = np.var(a - b)
    se_band = 3 * 2 * power / np.sqrt(a.size)
    assert abs(diff_var - 2 * power) < se_band + 0.01 * power


def _rescaled_discrepancies(X, y):
    # the triple recomputed from class moments of the rescaled images
    factors = {"unit": 1.0, "raw": 255.0, "mean": 1.0 / float(np.mean(X)),
               "rms": 1.0 / float(np.sqrt(np.mean(X**2)))}
    return {name: discrepancy_stats(class_stats(X * f, y)) for name, f in factors.items()}


def test_discrepancy_by_scaling_matches_the_rescaled_images():
    rng = np.random.default_rng(10)
    images = rng.uniform(0, 1, size=(9, 40))
    labels = np.repeat([-1.0, 1.0], 20)
    triples = discrepancy_by_scaling(images, class_stats(images, labels))
    expected = _rescaled_discrepancies(images, labels)
    assert list(triples) == ["unit", "raw", "mean", "rms"]
    for name, triple in triples.items():
        np.testing.assert_allclose(triple, expected[name], rtol=1e-12, err_msg=name)
    assert triples["unit"] == discrepancy_stats(class_stats(images, labels))
