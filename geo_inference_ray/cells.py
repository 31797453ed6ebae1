"""Spatial cell encoders: hex grid (H3-res-7/9 analog) and S2 level-12.

All vectorized numpy over Arrow columns; used inside ``map_batches`` with
``batch_format="pyarrow"`` (zero-copy).  The hex encoders live in
:mod:`geo_inference_ray.synth` because they must mirror the DuckDB oracle
SQL term-for-term; this module re-exports them and adds a genuine S2
curve implementation (public algorithm: S2 geometry library docs —
face/(u,v) gnomonic projection, quadratic (s,t) transform, Hilbert
curve position; implemented from the published description, no code
reuse).

S2 ids use the canonical 64-bit layout: 3 face bits, 2*level Hilbert
position bits, then a trailing 1 ("lsb") marking the level.  Returned as
uint64.  The DuckDB oracle mirrors the whole path exactly (same-libm
trig + a recursive-CTE Hilbert walk over the tables below — see
__ray_entry__._s2_sql); unit tests additionally pin hierarchy and
locality properties + golden values.
"""

from __future__ import annotations

import numpy as np

from .synth import HEX7_SIZE, HEX9_SIZE, hex_cell, hex_cell_center  # noqa: F401

S2_LEVEL = 12
_MAX_LEVEL = 30

# Hilbert sub-cell traversal tables (canonical S2 ordering).
# posToIJ[orientation][position] -> ij ; ijToPos is its per-orientation inverse.
_POS_TO_IJ = np.array([
    [0, 1, 3, 2],
    [0, 2, 3, 1],
    [3, 2, 0, 1],
    [3, 1, 0, 2],
], dtype=np.int64)
_IJ_TO_POS = np.zeros((4, 4), dtype=np.int64)
for _o in range(4):
    for _p in range(4):
        _IJ_TO_POS[_o, _POS_TO_IJ[_o, _p]] = _p
_SWAP_MASK = 0x1
_INVERT_MASK = 0x2
# orientation change when descending into sub-cell at position p
_POS_TO_ORIENTATION = np.array(
    [_SWAP_MASK, 0, 0, _INVERT_MASK + _SWAP_MASK], dtype=np.int64)


def _hilbert_steps():
    """The per-bit Hilbert walk, four levels at a time: index
    ``orientation << 8 | i4 << 4 | j4`` (four bits each of i and j,
    MSB first) -> the four positions packed MSB first, and the
    orientation after them.  1024 entries."""
    idx = np.arange(1024)
    orientation, i4, j4 = idx >> 8, (idx >> 4) & 15, idx & 15
    pos = np.zeros(1024, dtype=np.uint64)
    for k in range(3, -1, -1):
        p = _IJ_TO_POS[orientation, ((i4 >> k) & 1) * 2 + ((j4 >> k) & 1)]
        pos = (pos << np.uint64(2)) | p.astype(np.uint64)
        orientation = orientation ^ _POS_TO_ORIENTATION[p]
    return pos, orientation


_STEP_POS, _STEP_ORIENTATION = _hilbert_steps()


def _latlon_to_xyz(lat_deg: np.ndarray, lon_deg: np.ndarray):
    lat = np.deg2rad(lat_deg)
    lon = np.deg2rad(lon_deg)
    cl = np.cos(lat)
    return cl * np.cos(lon), cl * np.sin(lon), np.sin(lat)


def _xyz_to_face_uv(x, y, z):
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(ax >= ay, np.where(ax >= az, 0, 2), np.where(ay >= az, 1, 2))
    face = face + np.where(
        np.choose(face, [x, y, z]) < 0, 3, 0)
    # (u, v) per face, canonical S2 face frames:
    # +x (y/x, z/x), +y (-x/y, z/y), +z (-x/z, -y/z),
    # -x (z/x, y/x), -y (z/y, -x/y), -z (-y/z, -x/z)
    den = np.choose(face, [x, y, z, x, y, z])
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.choose(face, [y, -x, -x, z, z, -y]) / den
        v = np.choose(face, [z, z, -y, y, -x, -x]) / den
    return face.astype(np.int64), u, v


def _uv_to_st(u):
    """Quadratic projection (S2's default ST transform).  Branch arguments
    are clamped to >=0 before sqrt; np.where picks the valid branch."""
    pos = np.maximum(1.0 + 3.0 * u, 0.0)
    neg = np.maximum(1.0 - 3.0 * u, 0.0)
    return np.where(u >= 0, 0.5 * np.sqrt(pos), 1.0 - 0.5 * np.sqrt(neg))


def s2_cell(lat_deg: np.ndarray, lon_deg: np.ndarray,
            level: int = S2_LEVEL) -> np.ndarray:
    """lat/lon degrees -> canonical S2 cell id at ``level`` (uint64)."""
    x, y, z = _latlon_to_xyz(np.asarray(lat_deg, float),
                             np.asarray(lon_deg, float))
    face, u, v = _xyz_to_face_uv(x, y, z)
    n = 1 << level
    i = np.clip((_uv_to_st(u) * n).astype(np.int64), 0, n - 1)
    j = np.clip((_uv_to_st(v) * n).astype(np.int64), 0, n - 1)
    # Hilbert position: walk four bits at a time from the MSB, tracking
    # orientation; i and j get ``pad`` zero bits below so the level is
    # a multiple of 4, and the pad's positions are shifted off after
    pad = -level % 4
    i, j = i << pad, j << pad
    orientation = face & _SWAP_MASK
    pos = np.zeros(len(x), dtype=np.uint64)
    for k in range(level + pad - 4, -1, -4):
        step = (orientation << 8) | (((i >> k) & 15) << 4) | ((j >> k) & 15)
        pos = (pos << np.uint64(8)) | _STEP_POS[step]
        orientation = _STEP_ORIENTATION[step]
    pos = pos >> np.uint64(2 * pad)
    shift = np.uint64(2 * (_MAX_LEVEL - level))
    cell = (face.astype(np.uint64) << np.uint64(61)) \
        | (pos << np.uint64(shift + np.uint64(1))) \
        | (np.uint64(1) << shift)
    return cell


def s2_parent(cell: np.ndarray, level_to: int) -> np.ndarray:
    """Parent cell id at a coarser level (canonical lsb handling:
    ``(id & -new_lsb) | new_lsb``)."""
    cell = np.asarray(cell, dtype=np.uint64)
    new_lsb = np.uint64(1) << np.uint64(2 * (_MAX_LEVEL - level_to))
    return (cell & ~(new_lsb - np.uint64(1))) | new_lsb


def s2_level_of(cell: np.ndarray) -> np.ndarray:
    """Level encoded by the trailing set bit."""
    cell = np.asarray(cell, dtype=np.uint64)
    lsb = cell & (~cell + np.uint64(1))
    return (_MAX_LEVEL - (np.log2(lsb.astype(np.float64)) / 2)).astype(np.int64)
