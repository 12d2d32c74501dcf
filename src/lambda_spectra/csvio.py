"""CSV serialization of spectra and descriptor curves.

Schemas (UTF-8, LF line endings, decimal point, 12 significant digits):

    spectrum:   delta_mhz,transmission
    descriptor: delta_1photon_mhz,A,B,C,D,phi_rad,gamma_tilde_khz,delta0_khz,
                residual_rms,converged,gain_flag

A descriptor row writes its fitted `LineshapeParams` (D and phi derived
from A and B) beside its detuning and fit diagnostics.  Export is
byte-deterministic for identical inputs, and refuses (ValueError) a
spectrum whose grid would not load back; load rejects wrong headers
(SchemaMismatch), text that is not UTF-8 and malformed rows or a grid
that is not finite and strictly increasing once in rad/s (ParseError,
naming the file line), and returns a `Spectrum`, which checks itself
when built.

Load takes a spectrum's body from one `np.loadtxt` pass where that gives
a valid spectrum, as it does for every file export writes, and from a
row loop of `float()` calls otherwise, which loads what only `float()`
reads or raises the ParseError.  The input alone selects the path, and
the two load the same arrays wherever both accept a file (see
`load_spectrum_csv`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import LineshapeParams
from .errors import ParseError, SchemaMismatch
from .propagation import Spectrum
from .units import mhz, to_khz, to_mhz

__all__ = ["SPECTRUM_HEADER", "DESCRIPTOR_HEADER", "DescriptorRow",
           "DescriptorCurve", "load_spectrum_csv", "export_csv"]

SPECTRUM_HEADER = "delta_mhz,transmission"
DESCRIPTOR_HEADER = ("delta_1photon_mhz,A,B,C,D,phi_rad,gamma_tilde_khz,"
                     "delta0_khz,residual_rms,converged,gain_flag")

_RAD_S_PER_MHZ = mhz(1.0)
# 12 significant digits move a value by at most 5e-12 of itself, so grid
# neighbours more than 1e-11 of the larger apart stay apart on load, in
# MHz and in rad/s, and a grid within 1e300 MHz stays finite in rad/s
_SAFE_GAP = 1e-11
_SAFE_MHZ = 1e300


@dataclass(frozen=True)
class DescriptorRow:
    """The fitted line at one one-photon detuning (internal rad/s).
    A row whose spectrum could not be fitted holds all-NaN params, whose
    D and phi are NaN too."""

    big_delta: float
    params: LineshapeParams
    residual_rms: float
    converged: bool
    gain_flag: bool


@dataclass
class DescriptorCurve:
    """Rows strictly ordered by big_delta, checked when built."""

    rows: list

    def __post_init__(self):
        deltas = [r.big_delta for r in self.rows]
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("rows must be ordered by big_delta")


def load_spectrum_csv(path) -> Spectrum:
    """Read a spectrum CSV (schema above) into internal units.

    The body goes through one `np.loadtxt` pass when loadtxt parses it
    into at least 2 rows of exactly 2 columns that `Spectrum` accepts once
    the grid is in rad/s: every file `export_csv` writes does.  Any other
    body goes through `_parse_rows`, which loads the files only Python's
    `float()` accepts (`1_000`, non-ASCII digits, whitespace-only lines)
    and raises the ParseError that names the file line at fault.  Both
    see the lines `str.splitlines` gives, and where loadtxt parses a field
    it gives the same float as `float()`, so both paths load the same
    arrays.  Raises ParseError for text that is not UTF-8.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines:
        raise SchemaMismatch(f"{path}: empty file")
    if lines[0].strip() != SPECTRUM_HEADER:
        raise SchemaMismatch(
            f"{path}: expected header {SPECTRUM_HEADER!r}, got {lines[0]!r}")
    spectrum = _array_body(lines[1:])
    return spectrum if spectrum is not None else _parse_rows(path, lines)


def _to_rad_s(grid_mhz):
    """grid_mhz in rad/s; a value past the float range becomes inf
    without a RuntimeWarning."""
    with np.errstate(over="ignore"):
        return _RAD_S_PER_MHZ * grid_mhz


def _array_body(body):
    """The spectrum of `body` from one `np.loadtxt` pass, as `_parse_rows`
    returns it, or None where loadtxt refuses the rows, they are not 2
    columns of at least 2 rows, or `Spectrum` refuses them."""
    if not any(body):  # only empty lines: loadtxt would warn, not raise
        return None
    try:
        rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if rows.shape[0] < 2 or rows.shape[1] != 2:
            return None
        columns = rows.T.copy()
        columns[0] = _to_rad_s(columns[0])
        return Spectrum(delta_grid=columns[0], transmission=columns[1])
    except ValueError:
        return None


def _parse_rows(path, lines):
    """Parse the body after header `lines[0]` row by row with `float()`
    into a spectrum, the grid in rad/s.  A ParseError names the file line
    at fault."""
    grid, trans, line_nos = [], [], []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}: row {i}: expected 2 columns, got {len(parts)}")
        try:
            d = float(parts[0])
            t = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}: row {i}: {exc}") from None
        if not (math.isfinite(d) and math.isfinite(t)):
            raise ParseError(f"{path}: row {i}: non-finite value")
        if math.isinf(d * _RAD_S_PER_MHZ):
            raise ParseError(f"{path}: row {i}: {d:g} MHz overflows in rad/s")
        grid.append(d)
        trans.append(t)
        line_nos.append(i)
    if len(grid) < 2:
        raise ParseError(f"{path}: need at least 2 data rows")
    rad = _RAD_S_PER_MHZ * np.array(grid)
    falls = np.flatnonzero(np.diff(rad) <= 0)
    if falls.size:
        k = falls[0] + 1
        where = "" if grid[k] <= grid[k - 1] else " once in rad/s"
        raise ParseError(f"{path}: row {line_nos[k]}: "
                         f"delta grid is not strictly increasing{where}")
    return Spectrum(delta_grid=rad, transmission=trans)


def _check_grid_loads(grid_mhz) -> None:
    """Raise ValueError unless the grid, written at 12 significant
    digits, loads back as a `Spectrum` grid in rad/s.  Only a
    grid with a gap of at most _SAFE_GAP relative, or a value past
    _SAFE_MHZ, is formatted and parsed back to decide."""
    if (grid_mhz.size and max(-grid_mhz[0], grid_mhz[-1]) <= _SAFE_MHZ
            and (np.diff(grid_mhz) > _SAFE_GAP
                 * np.maximum(-grid_mhz[:-1], grid_mhz[1:])).all()):
        return
    back = _to_rad_s(np.array([float(f"{x:.12g}") for x in grid_mhz]))
    try:
        Spectrum(delta_grid=back, transmission=np.zeros(back.shape))
    except ValueError:
        raise ValueError("12 significant digits do not keep this grid "
                         "finite and strictly increasing in rad/s: the "
                         "file would not load") from None


def _spectrum_text(spec: Spectrum) -> str:
    if spec.delta_grid.size < 2:
        raise ValueError(f"a spectrum of {spec.delta_grid.size} point(s) "
                         "would not load: the file needs at least 2 rows")
    grid = to_mhz(spec.delta_grid)
    _check_grid_loads(grid)
    rows = np.column_stack([grid, spec.transmission])
    body = ("%.12g,%.12g\n" * len(rows)) % tuple(rows.ravel().tolist())
    return f"{SPECTRUM_HEADER}\n{body}"


def _descriptor_lines(curve: DescriptorCurve):
    yield DESCRIPTOR_HEADER
    for r in curve.rows:
        p = r.params
        numbers = (to_mhz(r.big_delta), p.A, p.B, p.C, p.D, p.phi,
                   to_khz(p.gamma_tilde), to_khz(p.delta0), r.residual_rms)
        yield ",".join([f"{float(x):.12g}" for x in numbers]
                       + ["true" if f else "false"
                          for f in (r.converged, r.gain_flag)])


def export_csv(obj, path) -> None:
    """Write a Spectrum or DescriptorCurve; byte-deterministic.  Raises
    ValueError, before the file is opened, for a spectrum of fewer than 2
    points or whose grid the 12-digit text would not load back finite and
    strictly increasing."""
    if isinstance(obj, Spectrum):
        data = _spectrum_text(obj)
    elif isinstance(obj, DescriptorCurve):
        data = "\n".join(_descriptor_lines(obj)) + "\n"
    else:
        raise TypeError(f"cannot export {type(obj).__name__}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
