"""Blind grayscale image steganography preserving local binary patterns."""

from .analysis import (
    ImageTooSmallError,
    MetricRow,
    Reference,
    bit_rate,
    emit_csv,
    histogram,
    histogram_l1,
    pd_histogram,
    psnr,
    quality_index,
    rs_analysis,
)
from .baselines import BaselineMethod, baseline_embed, baseline_extract
from .codec import (
    CapacityError,
    CorruptStreamError,
    CoverTooSmallError,
    StegoParams,
    capacity,
    embed,
    extract,
    max_payload_bytes,
)
from .image import GrayImage, PgmError, PgmFile, load_pgm, read_pgm, save_pgm, write_pgm
from .lbp import NEIGHBOR_OFFSETS

__all__ = [
    "BaselineMethod",
    "CapacityError",
    "CorruptStreamError",
    "CoverTooSmallError",
    "GrayImage",
    "ImageTooSmallError",
    "MetricRow",
    "NEIGHBOR_OFFSETS",
    "PgmError",
    "PgmFile",
    "Reference",
    "StegoParams",
    "baseline_embed",
    "baseline_extract",
    "bit_rate",
    "capacity",
    "embed",
    "emit_csv",
    "extract",
    "histogram",
    "histogram_l1",
    "load_pgm",
    "max_payload_bytes",
    "pd_histogram",
    "psnr",
    "quality_index",
    "read_pgm",
    "rs_analysis",
    "save_pgm",
    "write_pgm",
]
