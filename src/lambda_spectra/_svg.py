"""Minimal self-contained SVG line plots (decorative output only; the CSV
files are the contract)."""

from __future__ import annotations

import math

import numpy as np

from .units import to_mhz

_W, _H, _PAD = 640, 400, 50


def _polyline(xs, ys, color):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>'


def _frame(title, xlabel, ylabel):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<text x="{_W/2:.0f}" y="{_H-8:.0f}" text-anchor="middle" font-size="11">{xlabel}</text>',
        f'<text x="14" y="{_H/2:.0f}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 14 {_H/2:.0f})">{ylabel}</text>',
        f'<rect x="{_PAD}" y="{_PAD}" width="{_W-2*_PAD}" height="{_H-2*_PAD}" '
        f'fill="none" stroke="black" stroke-width="0.8"/>',
    ]


def _scale(vals, lo_px, hi_px):
    v = np.asarray(vals, dtype=float)
    good = np.isfinite(v)
    if not good.any():
        return np.full_like(v, 0.5 * (lo_px + hi_px))
    lo, hi = float(np.min(v[good])), float(np.max(v[good]))
    if hi == lo:
        hi = lo + 1.0
    return lo_px + (v - lo) / (hi - lo) * (hi_px - lo_px)


def write_spectrum_svg(spec, path) -> None:
    x = _scale(to_mhz(spec.delta_grid), _PAD, _W - _PAD)
    y = _scale(spec.transmission, _H - _PAD, _PAD)
    parts = _frame("normalized transmission", "two-photon detuning (MHz)", "T")
    parts.append(_polyline(x, y, "#1050a0"))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def write_curve_svg(curve, path) -> None:
    deltas = [to_mhz(r.big_delta) for r in curve.rows]
    phi = [r.params.phi / math.pi for r in curve.rows]
    dd = [r.params.D for r in curve.rows]
    x = _scale(deltas, _PAD, _W - _PAD)
    parts = _frame("resonance descriptors", "one-photon detuning (MHz)",
                   "phi/pi (blue), D scaled (red)")
    parts.append(_polyline(x, _scale(phi, _H - _PAD, _PAD), "#1050a0"))
    parts.append(_polyline(x, _scale(dd, _H - _PAD, _PAD), "#a02020"))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
