import numpy as np
import pytest
from block_oracle import lbp_code
from hypothesis import given, settings
from hypothesis import strategies as st

from lbpstego.image import GrayImage
from lbpstego.lbp import NEIGHBOR_OFFSETS, PACK, lbp_codes


def block_image(center, ring):
    """3x3 image with ``ring`` values in NEIGHBOR_OFFSETS order around the center."""
    px = np.zeros((3, 3), dtype=np.int64)
    px[1, 1] = center
    for (dr, dc), v in zip(NEIGHBOR_OFFSETS, ring):
        px[1 + dr, 1 + dc] = v
    return GrayImage(px)


def test_offset_table_shape():
    assert len(set(NEIGHBOR_OFFSETS)) == 8
    assert all(off != (0, 0) and set(off) <= {-1, 0, 1} for off in NEIGHBOR_OFFSETS)


def test_all_equal_gives_full_pattern():
    img = GrayImage(np.full((3, 3), 100, dtype=np.uint8))
    assert lbp_code(img, 1, 1) == 0xFF


def test_center_below_everything_gives_zero():
    img = block_image(0, [255] * 8)
    assert lbp_code(img, 1, 1) == 0x00


def test_worked_example():
    # center 5 vs (right, ur, up, ul, left, ll, down, lr) = (3,7,5,2,9,5,1,6)
    img = block_image(5, [3, 7, 5, 2, 9, 5, 1, 6])
    assert lbp_code(img, 1, 1) == 0xB6


@pytest.mark.parametrize("row,col", [(0, 1), (1, 0), (2, 1), (1, 2), (0, 0)])
def test_border_center_rejected(row, col):
    img = GrayImage(np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(IndexError):
        lbp_code(img, row, col)


@settings(max_examples=80)
@given(
    st.lists(st.integers(0, 200), min_size=9, max_size=9),
    st.integers(0, 55),
)
def test_shift_invariance(values, offset):
    """Adding a constant to all 9 pixels leaves the code unchanged."""
    base = GrayImage(np.array(values, dtype=np.int64).reshape(3, 3))
    shifted = GrayImage(base.pixels.astype(np.int64) + offset)
    assert lbp_code(base, 1, 1) == lbp_code(shifted, 1, 1)


@settings(max_examples=80)
@given(st.integers(0, 255), st.lists(st.integers(0, 255), min_size=8, max_size=8))
def test_code_depends_only_on_comparison_signs(center, ring):
    """Replacing each neighbor by another value on the same side of the center
    (>= vs <) cannot change the code."""
    img = block_image(center, ring)
    # center < v forces center <= 254, so center + 1 stays a legal intensity
    substitute = [center if center >= v else center + 1 for v in ring]
    img2 = block_image(center, substitute)
    assert lbp_code(img, 1, 1) == lbp_code(img2, 1, 1)


@pytest.mark.parametrize("repeated", [False, True], ids=["centers_n", "centers_n_by_8"])
def test_eight_blocks_compare_row_by_row(repeated):
    """With exactly 8 blocks, (8,) centers against (8, 8) neighbors would also
    broadcast along the neighbor axis without error; each row must still be
    its own block's pattern, for (n,) centers and for (n, 8) repeated ones."""
    rng = np.random.default_rng(9)
    centers = rng.integers(0, 256, 8).astype(np.uint8)
    neighbors = rng.integers(0, 256, (8, 8)).astype(np.uint8)
    given_centers = np.repeat(centers[:, None], 8, axis=1) if repeated else centers
    codes = lbp_codes(given_centers, neighbors)
    assert codes.shape == (8,)
    for i in range(8):
        img = block_image(int(centers[i]), [int(v) for v in neighbors[i]])
        assert int(codes[i]) == lbp_code(img, 1, 1)
    # On these values the careless broadcast gives other codes, so this test
    # tells the two apart.
    careless = np.greater_equal(centers, neighbors).view("<u8").reshape(-1) * PACK >> 56
    assert not np.array_equal(codes, careless)


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    centers = rng.integers(0, 256, 50)
    neighbors = rng.integers(0, 256, (50, 8))
    codes = lbp_codes(centers, neighbors)
    for i in range(50):
        img = block_image(int(centers[i]), [int(v) for v in neighbors[i]])
        assert int(codes[i]) == lbp_code(img, 1, 1)


def packed_reference(centers, neighbors):
    """The pattern codes as ``>> 56`` of the packed product, cast to uint8."""
    c = centers[:, None] if centers.ndim == 1 else centers
    ge = np.ascontiguousarray(np.greater_equal(c, neighbors))
    return (ge.view("<u8").reshape(-1) * PACK >> np.uint64(56)).astype(np.uint8)


@pytest.mark.parametrize("repeated", [False, True], ids=["centers_n", "centers_n_by_8"])
@pytest.mark.parametrize("n, seed", [(0, 0), (1, 1), (8, 9), (37, 2), (1000, 3), (4099, 4)])
def test_codes_equal_the_shifted_product(n, seed, repeated):
    """The top-byte view gives the same codes as the shift-and-cast of the
    packed product, for no block, one block, the 8-block broadcast trap, and
    other counts."""
    rng = np.random.default_rng(seed)
    centers = rng.integers(0, 256, n).astype(np.uint8)
    neighbors = rng.integers(0, 256, (n, 8)).astype(np.uint8)
    neighbors[::3, ::2] = centers[::3, None]  # ties count as 1
    given_centers = np.repeat(centers[:, None], 8, axis=1) if repeated else centers
    codes = lbp_codes(given_centers, neighbors)
    assert codes.dtype == np.uint8 and codes.shape == (n,)
    assert np.array_equal(codes, packed_reference(centers, neighbors))
