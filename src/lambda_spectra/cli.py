"""Command-line interface.

    lambda-spectra run (<config.ini> | --preset NAME) [--output DIR]
    lambda-spectra fit <spectrum.csv>
    lambda-spectra presets
    lambda-spectra validate <config.ini>
    lambda-spectra hanle

Exit codes: 0 success, 2 configuration error, 3 I/O or input-data error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .csvio import load_spectrum_csv
from .errors import (ConfigError, DegenerateSpectrum, ParseError,
                     SchemaMismatch, ZeroBackground)
from .fitting import fit_lineshape
from .hanle import TRANSITIONS, brightness, dark_state, overlap
from .scan import (config_text, load_config, preset_config, preset_names,
                   run_scan)
from .units import to_khz

EXIT_OK, EXIT_CONFIG, EXIT_IO = 0, 2, 3


def _cmd_run(args) -> int:
    if args.preset and args.config:
        raise ConfigError(f"run takes a config file or --preset, not both: "
                          f"got {args.config} and --preset {args.preset}")
    if args.preset:
        cfg = preset_config(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigError("run needs a config file or --preset")
    if cfg.warning:
        print(f"warning: preset {cfg.preset!r}: {cfg.warning}", file=sys.stderr)
    curve = run_scan(cfg, out_dir=args.output)
    n_bad = sum(not r.converged for r in curve.rows)
    out = args.output or cfg.get("output", "directory")
    print(f"wrote {len(curve.rows)} sweep points to {out}"
          + (f" ({n_bad} fit(s) not converged)" if n_bad else ""))
    return EXIT_OK


def _cmd_fit(args) -> int:
    spec = load_spectrum_csv(args.spectrum)
    fit = fit_lineshape(spec)
    p = fit.params
    print(f"A            = {p.A:.6g}")
    print(f"B            = {p.B:.6g}")
    print(f"C            = {p.C:.6g}")
    print(f"D            = {p.D:.6g}")
    print(f"phi          = {p.phi:.6g} rad ({p.phi / math.pi:.4f} pi)")
    print(f"gamma_tilde  = {to_khz(p.gamma_tilde):.6g} kHz")
    print(f"delta0       = {to_khz(p.delta0):.6g} kHz")
    print(f"residual rms = {fit.residual_rms:.3g}")
    print(f"converged    = {str(fit.converged).lower()} "
          f"({fit.iterations} MINPACK iterations)")
    return EXIT_OK


def _cmd_presets(_args) -> int:
    for name in preset_names():
        cfg = preset_config(name)
        print(f"# {name}" + ("  [outside model validity]" if cfg.warning else ""))
        print(config_text(cfg))
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"{args.config}: valid ({len(cfg.values)} keys, "
          f"digest {cfg.digest()[:12]})")
    return EXIT_OK


def _cmd_hanle(_args) -> int:
    states = {t: dark_state(t) for t in TRANSITIONS}
    print("dark states (amplitudes over |m=+1>, |m=-1>):")
    for t, s in states.items():
        print(f"  {t:10s}: ({s.c_plus.real:+.6f}, {s.c_minus.real:+.6f})")
    ov = overlap(states["two_to_one"], states["two_to_two"])
    print(f"overlap <dark(2->1)|dark(2->2)> = {ov.real:+.3e}{ov.imag:+.3e}j")
    print("brightness matrix (rows: state, cols: transition):")
    header = "".join(f"{t:>14s}" for t in TRANSITIONS)
    print(f"  {'dark of':12s}{header}")
    for t, s in states.items():
        vals = "".join(f"{brightness(s, u):14.6f}" for u in TRANSITIONS)
        print(f"  {t:12s}{vals}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lambda-spectra",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a detuning sweep")
    p.add_argument("config", nargs="?", help="INI config file")
    p.add_argument("--preset", choices=preset_names(), help="named parameter set")
    p.add_argument("--output", help="output directory override")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fit", help="fit one spectrum CSV")
    p.add_argument("spectrum")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("presets", help="print the named parameter sets")
    p.set_defaults(func=_cmd_presets)

    p = sub.add_parser("validate", help="check a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("hanle", help="print the Zeeman dark-state algebra")
    p.set_defaults(func=_cmd_hanle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, SchemaMismatch, ZeroBackground, DegenerateSpectrum,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
