"""Closed-form RS reference over the (rows, groups per row, group size) layout,
the oracle for ``analysis.rs_analysis``'s column kernel."""

import numpy as np

from lbpstego.image import GrayImage


def rs_closed_form(img: GrayImage, mask) -> dict[str, float]:
    """Flip every group with one int16 expression per mask, then compare smoothness."""
    mask = np.asarray(mask, dtype=np.int64)
    n = int(mask.size)
    per_row = img.width // n
    groups = img.pixels[:, : per_row * n].astype(np.int16).reshape(img.height, per_row, n)
    base = np.abs(np.diff(groups, axis=-1)).sum(axis=-1)
    fractions = []
    for m in (mask, -mask):
        # F1(x) = x ^ 1 and F-1(x) = F1(x + 1) - 1 (Fridrich, Goljan & Du 2001),
        # saturating at 0/255; columns with mask 0 come through unchanged.
        neg, flip = (m < 0).astype(np.int16), np.abs(m).astype(np.int16)
        flipped = np.clip(((groups + neg) ^ flip) - neg, 0, 255)
        after = np.abs(np.diff(flipped, axis=-1)).sum(axis=-1)
        fractions += [float(np.count_nonzero(c) / base.size) for c in (after > base, after < base)]
    r_m, s_m, r_neg_m, s_neg_m = fractions
    return {
        "rs_r_m": r_m,
        "rs_s_m": s_m,
        "rs_r_neg_m": r_neg_m,
        "rs_s_neg_m": s_neg_m,
        "rs_diff_m": abs(r_m - s_m),
        "rs_diff_neg_m": abs(r_neg_m - s_neg_m),
    }
