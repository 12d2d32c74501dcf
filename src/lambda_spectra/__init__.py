"""Probe transmission spectra of a driven three-level lambda system.

Steady-state density matrix and susceptibility (`model`), closed-form
lineshape quantities (`analytic`), Maxwell velocity averaging (`doppler`),
propagation through the optically thick cell as a z-quadrature
(`propagation`), empirical-lineshape fitting (`fitting`), Zeeman
dark-state algebra (`hanle`), and a sweep harness with CLI (`scan`,
`cli`).
"""

__version__ = "0.1.0"

from .analytic import (LineshapeParams, absorption_profile, ac_stark_shift,
                       density_narrowed_width, lineshape_coefficients,
                       population_differences, resonance_width,
                       sign_change_detuning)
from .csvio import (DescriptorCurve, DescriptorRow, export_csv,
                    load_spectrum_csv)
from .doppler import QuadratureSpec, doppler_average
from .errors import (ConfigError, DegenerateRates, DegenerateSpectrum,
                     LambdaSpectraError, NonPhysicalValue, NoSignChange,
                     ParseError, SchemaMismatch, SingularSystem,
                     ZeroBackground)
from .fitting import FitResult, fit_lineshape, initial_guess
from .hanle import (TransitionSigns, ZeemanState, brightness, dark_state,
                    overlap, zeeman_detuning)
from .model import (Fields, Medium, Rates, drive_only_populations,
                    equation_residual, steady_state, susceptibility_numeric,
                    weak_probe_susceptibility)
from .propagation import (SlabConfig, Spectrum, normalize,
                          reference_transmission, transmit)
from .scan import (ScanConfig, auto_delta_grid, load_config, parse_config,
                   preset_config, preset_names, run_scan, scan_point)

# every public name but the submodules (module objects, like `errors`),
# which a star import would bind over a caller's own `model` or `units`
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], type(errors))]
