"""CSV serialization of spectra and descriptor curves.

Schemas (UTF-8, LF line endings, decimal point, 12 significant digits):

    spectrum:   delta_mhz,transmission
    descriptor: delta_1photon_mhz,A,B,C,D,phi_rad,gamma_tilde_khz,delta0_khz,
                residual_rms,converged,gain_flag

Export is byte-deterministic for identical inputs; load rejects wrong
headers (SchemaMismatch) and malformed or non-monotone rows (ParseError,
naming the row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaMismatch
from .propagation import Spectrum
from .units import mhz, to_khz, to_mhz

__all__ = ["SPECTRUM_HEADER", "DESCRIPTOR_HEADER", "DescriptorRow",
           "DescriptorCurve", "load_spectrum_csv", "export_csv"]

SPECTRUM_HEADER = "delta_mhz,transmission"
DESCRIPTOR_HEADER = ("delta_1photon_mhz,A,B,C,D,phi_rad,gamma_tilde_khz,"
                     "delta0_khz,residual_rms,converged,gain_flag")


def _fmt(flag: bool) -> str:
    return "true" if flag else "false"


@dataclass(frozen=True)
class DescriptorRow:
    """Fitted descriptors at one one-photon detuning (internal rad/s)."""

    big_delta: float
    A: float
    B: float
    C: float
    D: float
    phi: float
    gamma_tilde: float
    delta0: float
    residual_rms: float
    converged: bool
    gain_flag: bool


@dataclass
class DescriptorCurve:
    rows: list

    def validate(self) -> None:
        deltas = [r.big_delta for r in self.rows]
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("rows must be ordered by big_delta")
        for r in self.rows:
            if math.isnan(r.A):
                continue
            d = math.hypot(r.A, r.B)
            phi = math.atan2(r.B, r.A)
            if abs(d - r.D) > 1e-9 * max(1.0, abs(r.D)) or abs(phi - r.phi) > 1e-9:
                raise ValueError("polar form inconsistent with (A, B)")


def load_spectrum_csv(path) -> Spectrum:
    """Read a spectrum CSV (schema above) into internal units."""
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaMismatch(f"{path}: empty file")
    if lines[0].strip() != SPECTRUM_HEADER:
        raise SchemaMismatch(
            f"{path}: expected header {SPECTRUM_HEADER!r}, got {lines[0]!r}")
    grid, trans = [], []
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
        grid.append(d)
        trans.append(t)
    if len(grid) < 2:
        raise ParseError(f"{path}: need at least 2 data rows")
    g = np.asarray(grid)
    if np.any(np.diff(g) <= 0):
        bad = int(np.argmax(np.diff(g) <= 0)) + 3  # header + 1-based + offset
        raise ParseError(f"{path}: row {bad}: delta grid is not strictly increasing")
    return Spectrum(delta_grid=mhz(1.0) * g, transmission=np.asarray(trans))


def _spectrum_lines(spec: Spectrum):
    yield SPECTRUM_HEADER
    for d, t in zip(to_mhz(spec.delta_grid).tolist(),
                    spec.transmission.tolist()):
        yield f"{d:.12g},{t:.12g}"


def _descriptor_lines(curve: DescriptorCurve):
    yield DESCRIPTOR_HEADER
    for r in curve.rows:
        numbers = (to_mhz(r.big_delta), r.A, r.B, r.C, r.D, r.phi,
                   to_khz(r.gamma_tilde), to_khz(r.delta0), r.residual_rms)
        yield ",".join([f"{float(x):.12g}" for x in numbers]
                       + [_fmt(r.converged), _fmt(r.gain_flag)])


def export_csv(obj, path) -> None:
    """Write a Spectrum or DescriptorCurve; byte-deterministic."""
    if isinstance(obj, Spectrum):
        lines = _spectrum_lines(obj)
    elif isinstance(obj, DescriptorCurve):
        lines = _descriptor_lines(obj)
    else:
        raise TypeError(f"cannot export {type(obj).__name__}")
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
