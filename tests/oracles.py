"""Independent reference implementations used only by the tests.

The steady state: `superoperator` builds the Liouvillian the same way the
package does (-i[H, rho] plus a damping table and population feeds), so
what stays independent is its separately typed H, damping table and
feeds, from raw floats rather than the package's dataclasses, and the
SVD null-space solve in place of the package's trace-constrained linear
solve.  The sign conventions themselves are checked without this module,
by `test_model`'s weak-probe test, which holds the exact steady state to
the pipeline's first-order kernel.  The z integral is a second-order
slab march, Richardson-extrapolated over 2048 and 4096 slabs; it takes
the package's absorption kernel as a callable, so only its z rule is
independent.  The z rule's choice of order has its own oracle: the
Gauss-Legendre ladder climbed on the whole grid, on the package's kernel
and drive quadrature, and its accuracy the plain whole-grid
Gauss-Legendre sum of high order.  The drive's depletion is one DOP853
solve of its ODE at rtol 1e-13, where the package integrates a Chebyshev
series in ln I_d.  The velocity average is a dense truncated trapezoid
sum, the divided difference of two averages an mpmath evaluation of the
Faddeeva function, and fit refinement a local grid search.  The
strong-drive susceptibility is the weak-probe response
at the strong-drive populations, typed out from raw floats, and the
detuning where the thin-cell amplitude A changes sign is a bisection of
its numerator.  The spectrum CSV reader is the `csv` module and `float()`
per field.  None of this imports from the package internals beyond
plain dataclasses.
"""

import csv
import math

import numpy as np


def superoperator(gamma_r, gamma_deph, gamma_bc, omega_d, omega_p,
                  big_delta, small_delta):
    """Liouvillian as a 9x9 matrix acting on the row-major vectorized
    density matrix, assembled from commutator + damping + feed matrices.

    Basis (|a>, |b>, |c>); rotating-frame level shifts
    E_a = -(Delta + delta), E_b = 0, E_c = -delta reproduce the coherence
    rotations rho_ab ~ +i(Delta+delta), rho_ca ~ -i*Delta, rho_cb ~ +i*delta.
    """
    h = np.diag([-(big_delta + small_delta), 0.0, -small_delta]).astype(complex)
    v = np.zeros((3, 3), dtype=complex)
    v[0, 1] = -omega_p
    v[0, 2] = -omega_d
    v = v + v.conj().T
    ham = h + v

    ident = np.eye(3)
    lio = -1j * (np.kron(ham, ident) - np.kron(ident, ham.T))

    # elementwise damping of coherences and excited population
    g = gamma_r + gamma_deph
    damp = np.array([
        [2.0 * gamma_r, g, g],
        [g, gamma_bc, gamma_bc],
        [g, gamma_bc, gamma_bc],
    ])
    lio -= np.diag(damp.reshape(9))

    # population feeds: radiative a -> b and a -> c, exchange b <-> c
    def feed(dst, src, rate):
        lio[4 * dst, 4 * src] += rate

    feed(1, 0, gamma_r)
    feed(2, 0, gamma_r)
    feed(1, 2, gamma_bc)
    feed(2, 1, gamma_bc)
    return lio


def steady_state_nullspace(gamma_r, gamma_deph, gamma_bc, omega_d, omega_p,
                           big_delta, small_delta):
    """Trace-one element of the Liouvillian null space (via SVD)."""
    lio = superoperator(gamma_r, gamma_deph, gamma_bc, omega_d, omega_p,
                        big_delta, small_delta)
    _, _, vh = np.linalg.svd(lio)
    rho = vh[-1].conj().reshape(3, 3)
    return rho / np.trace(rho)


def strong_drive_susceptibility(gamma_r, gamma_deph, gamma_bc, omega_d,
                                big_delta, small_delta, kappa):
    """Weak-probe susceptibility (units of kappa) at the strong-drive
    population differences

        rho_bb - rho_aa = (g_bc D^2 + g |od|^2) / (2 g_bc D^2 + g |od|^2)
        rho_cc - rho_aa = g_bc (D^2 + g^2) / (2 g_bc D^2 + g |od|^2)

    with g = gamma_r + gamma_deph, D = big_delta:

        chi = i kappa (G_cb pb - |od|^2 pc / G_ca) / (G_ab G_cb + |od|^2)

    G_ca = g + i D, G_cb = g_bc - i delta, G_ab = g - i (D + delta)."""
    g = gamma_r + gamma_deph
    od2 = omega_d**2
    d2 = big_delta * big_delta
    den = 2.0 * gamma_bc * d2 + g * od2
    pb = (gamma_bc * d2 + g * od2) / den
    pc = gamma_bc * (d2 + g * g) / den
    gca = g + 1j * big_delta
    gcb = gamma_bc - 1j * small_delta
    gab = g - 1j * (big_delta + small_delta)
    return complex(1j * kappa * (gcb * pb - (od2 / gca) * pc)
                   / (gab * gcb + od2))


def sign_change_bisection(gamma, gamma_bc, omega_d):
    """Bisection, on [0, gamma], of the thin-cell amplitude's numerator
    g |od|^2 (g^2 - D^2) - g_bc (g^2 + D^2)^2 in D, down to an interval of
    1e-13 gamma; None where it is not positive at D = 0."""
    def numerator(d):
        s = gamma * gamma + d * d
        return gamma * omega_d**2 * (gamma * gamma - d * d) - gamma_bc * s * s

    lo, hi = 0.0, gamma
    if not numerator(lo) > 0:
        return None
    while hi - lo > 1e-13 * gamma:
        mid = 0.5 * (lo + hi)
        if numerator(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def doppler_average_trapezoid(chi, big_delta, ku, n=100_000, half_width=6.0):
    """Dense truncated trapezoid realization of the Maxwell average."""
    kv = np.linspace(-half_width * ku, half_width * ku, n)
    vals = chi(big_delta - kv) * np.exp(-((kv / ku) ** 2))
    return np.trapezoid(vals, kv) / (np.sqrt(np.pi) * ku)


def maxwell_mean_slope_mp(p1, p2, big_delta, ku):
    """(M(p1) - M(p2))/(p1 - p2) for the Maxwell average
    M(p) = <1/(x - p)> = -i sqrt(pi)/ku w((big_delta - p)/ku), p1 != p2
    below the real axis, with w(z) = exp(-z^2) erfc(-iz) from mpmath.
    The working precision covers the digits z^2 needs and the ones the
    difference cancels, so the result is exact far beyond double precision."""
    import mpmath as mp

    z1, z2 = ((big_delta - complex(p)) / ku for p in (p1, p2))
    cancel = abs(z1 + z2) / abs(z1 - z2)
    digits = 30 + 2 * np.log10(max(abs(z1), 1.0)) + np.log10(max(cancel, 1.0))
    with mp.workdps(int(digits)):
        p = [mp.mpc(complex(x)) for x in (p1, p2)]
        w = [mp.exp(-z * z) * mp.erfc(-1j * z)
             for z in ((big_delta - x) / ku for x in p)]
        return complex(-1j * mp.sqrt(mp.pi) / ku * (w[0] - w[1])
                       / (p[0] - p[1]))


def slab_march(alphas, od2_entry, grid, slabs):
    """(tau on grid, baseline tau) through the cell in slabs of the scaled
    depth s = z/L.  alphas(od2, grid) gives (probe alpha on grid, plateau,
    alpha_d), each per unit s.  In each slab the drive takes a midpoint
    (RK2) step and the probe and plateau coefficients are read at the
    midpoint drive, so the error is second order in 1/slabs."""
    ds = 1.0 / slabs
    tau, tau_b, ln_drive = np.zeros(len(grid)), 0.0, 0.0
    for _ in range(slabs):
        alpha_d = alphas(od2_entry * math.exp(ln_drive), np.zeros(0))[2]
        mid = ln_drive - 0.5 * alpha_d * ds
        alpha, alpha_b, alpha_d = alphas(od2_entry * math.exp(mid), grid)
        tau += alpha * ds
        tau_b += alpha_b * ds
        ln_drive -= alpha_d * ds
    return tau, tau_b


def slab_march_richardson(alphas, od2_entry, grid):
    """`slab_march` over 2048 and 4096 slabs, with the second-order error
    term extrapolated away: (tau on grid, baseline tau)."""
    (t1, b1), (t2, b2) = (slab_march(alphas, od2_entry, grid, n)
                          for n in (2048, 4096))
    return (4.0 * t2 - t1) / 3.0, (4.0 * b2 - b1) / 3.0


def drive_dop853(alpha_d, od2_entry):
    """ln(|omega_d|^2 / |omega_d(0)|^2) as a function of s: one DOP853
    solve (rtol 1e-13, atol 1e-15) of the drive's depletion
    d ln I_d / ds = -alpha_d(|omega_d|^2), alpha_d per unit s at a float.
    ln I_d is clamped at 0 where it is read (a trial stage above 0 could
    overflow exp), and the first step is the depth over which the entry
    drive would fall by 1/e, at most the cell."""
    from scipy.integrate import solve_ivp

    def rate(_s, y):
        return [-alpha_d(od2_entry * math.exp(min(y[0], 0.0)))]

    sol = solve_ivp(rate, (0.0, 1.0), [0.0], method="DOP853", rtol=1e-13,
                    atol=1e-15, dense_output=True,
                    first_step=1.0 / max(-rate(0.0, [0.0])[0], 1.0))
    assert sol.success, sol.message
    return lambda s: sol.sol(s)[0]


def gauss_legendre_tau(alphas, drive, grid, n):
    """The plain n-point Gauss-Legendre sum over s in [0, 1], on the whole
    grid: (tau on grid, baseline tau, least probe alpha over the nodes).
    alphas is as in `slab_march`; drive(s) gives |omega_d|^2 at the
    depths s."""
    x, w = np.polynomial.legendre.leggauss(n)
    tau = np.zeros(len(grid) + 1)  # the baseline last
    least = np.full(len(grid), np.inf)
    for w_k, od2 in zip(0.5 * w, drive(0.5 * (x + 1.0))):
        alpha, alpha_b, _ = alphas(od2, grid)
        tau += w_k * np.append(alpha, alpha_b)
        least = np.fmin(least, alpha)
    return tau[:-1], tau[-1], least


def full_grid_ladder(alphas, drive, grid, cap):
    """The Gauss-Legendre z rule climbed on the whole grid: the orders 2, 3,
    4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64 below cap, then cap, in
    turn, until tau on grid and the baseline tau move by at most 1e-8
    against the previous order, each order's sum `gauss_legendre_tau`.
    Returns (tau on grid, baseline tau, least probe alpha over the accepted
    order's nodes, z_error, the accepted order)."""
    orders = [n for n in (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48,
                          64) if n < cap] + [cap]
    previous = None
    for n in orders:
        tau, tau_b, least = gauss_legendre_tau(alphas, drive, grid, n)
        tau = np.append(tau, tau_b)
        if previous is not None:
            z_error = np.max(np.abs(tau - previous))
            if z_error <= 1e-8:
                break
        previous = tau
    return tau[:-1], tau[-1], least, z_error, n


def lineshape(delta, a, b, c, gt, d0):
    x = delta - d0
    return gt * (a * gt + b * x) / (gt * gt + x * x) + c


def grid_refine_fit(delta, trans, a, b, c, gt, d0, rounds=60):
    """Coordinate-wise golden-ish shrink search around a starting point.

    Crude but implementation-independent; used to confirm that the package
    fitter lands at the true least-squares optimum on noisy data.
    """
    theta = np.array([a, b, c, np.log(gt), d0], dtype=float)
    scale = np.array([max(abs(a), 1e-3), max(abs(b), 1e-3),
                      max(abs(c), 1e-3), 0.5, max(abs(gt), 1e-12)])

    def sse(th):
        r = lineshape(delta, th[0], th[1], th[2], np.exp(th[3]), th[4]) - trans
        return float(r @ r)

    best = sse(theta)
    step = 0.3
    for _ in range(rounds):
        improved = False
        for k in range(5):
            for sgn in (1.0, -1.0):
                trial = theta.copy()
                trial[k] += sgn * step * scale[k]
                val = sse(trial)
                if val < best:
                    theta, best = trial, val
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return theta[0], theta[1], theta[2], float(np.exp(theta[3])), theta[4], best


def lineshape_covariance(delta, trans, a, b, c, gt, d0):
    """Gauss-Newton variances sigma^2 diag((J^T J)^-1) of the lineshape's
    (A, B, C, gamma_tilde, delta0) at the given point, sigma^2 = SSE/(n-5).

    J is differentiated in those five parameters directly, its columns are
    scaled to unit norm (J = Js S), and Js = QR; then (J^T J)^-1 =
    S^-1 R^-1 R^-T S^-1, without ever forming J^T J.
    """
    x = delta - d0
    den = gt * gt + x * x
    num = gt * (a * gt + b * x)
    jac = np.column_stack([
        gt * gt / den,
        gt * x / den,
        np.ones_like(x),
        ((2.0 * a * gt + b * x) * den - 2.0 * gt * num) / den**2,
        -(b * gt * den - 2.0 * x * num) / den**2,
    ])
    resid = num / den + c - trans
    sigma2 = float(resid @ resid) / (delta.size - 5)
    scale = np.linalg.norm(jac, axis=0)
    rinv = np.linalg.inv(np.linalg.qr(jac / scale, mode="r"))
    return sigma2 * np.sum(rinv**2, axis=1) / scale**2


class RejectedRow(ValueError):
    """`read_spectrum_body` refused a file at file line `row` (None: fewer
    than 2 data rows)."""

    def __init__(self, row):
        super().__init__(f"row {row}")
        self.row = row


def read_spectrum_body(path):
    """Reference reader for the body of a spectrum CSV (the header line
    is skipped unchecked): `csv` module rows, `float()` per field, rows
    numbered by file line.  Blank and whitespace-only lines are skipped.
    Every row is parsed before the grid's order is checked.  Returns the
    (delta_mhz, transmission) lists or raises RejectedRow."""
    grid, trans, lines = [], [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, quoting=csv.QUOTE_NONE)
        next(reader)
        for fields in reader:
            if fields == [] or (len(fields) == 1 and fields[0].strip() == ""):
                continue
            if len(fields) != 2:
                raise RejectedRow(reader.line_num)
            try:
                d, t = float(fields[0]), float(fields[1])
            except ValueError:
                raise RejectedRow(reader.line_num) from None
            if math.isnan(d) or math.isinf(d) or math.isnan(t) or math.isinf(t):
                raise RejectedRow(reader.line_num)
            grid.append(d)
            trans.append(t)
            lines.append(reader.line_num)
    if len(grid) < 2:
        raise RejectedRow(None)
    for k in range(1, len(grid)):
        if not grid[k] > grid[k - 1]:
            raise RejectedRow(lines[k])
    return grid, trans
