"""Independent checks of the program's outputs.

Every check here works from the raw model JSON and from the JSON and CSV files
the program wrote, with numpy and scipy only. Nothing imports ``mjls``, so a
fault in the program cannot hide behind the same fault in its check. Each
check raises :class:`CheckFailed` with a message naming what is wrong.

Conventions read from the file formats, not from the package:

* modes, observations and regions are 1-based;
* region m of a partition holds the states with t_{m-1} <= |x|^2 < t_m;
* system 1's rate matrix is chosen by system 2's region and the reverse,
  while each system's emission matrix is chosen by its own region;
* a distributed bank's certificate lists system 1's P matrices, then system
  2's; a centralized bank's joint mode (i1, i2) has index (i1-1)*n2 + i2,
  and the same holds for joint observations;
* a trace row n holds the state at t = n dt and the mode, observation,
  regions and input in force from it until row n+1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

# Relative slack for quantities the program computes in floating point and
# the check recomputes in another order.
ROUNDING = 1e-9


class CheckFailed(Exception):
    """An output of the program contradicts an independent computation."""


def load_json(path):
    return json.loads(Path(path).read_text())


@dataclass(frozen=True)
class Subsystem:
    a: tuple  # A per mode
    b: tuple  # B per mode
    thresholds: np.ndarray
    rates: tuple  # one generator per region of the partner
    obs: tuple  # one emission matrix per own region

    @property
    def modes(self) -> int:
        return len(self.a)


class Model:
    """The two subsystems of a model file, as plain arrays."""

    def __init__(self, doc: dict):
        subs = []
        for k in (1, 2):
            modes = doc[f"system{k}"]["modes"]
            subs.append(Subsystem(
                a=tuple(np.array(m["A"], dtype=float) for m in modes),
                b=tuple(np.array(m["B"], dtype=float) for m in modes),
                thresholds=np.array(doc[f"partition{k}"]["thresholds"], dtype=float),
                rates=tuple(np.array(r, dtype=float) for r in doc[f"rates{k}"]),
                obs=tuple(np.array(o, dtype=float) for o in doc[f"obs{k}"]),
            ))
        self.sub = {1: subs[0], 2: subs[1]}
        self.regions = (len(subs[0].thresholds) + 1, len(subs[1].thresholds) + 1)

    def shell(self, k: int, sq: np.ndarray) -> np.ndarray:
        """1-based region of each squared norm in ``sq`` for subsystem k."""
        return np.searchsorted(self.sub[k].thresholds, sq, side="right") + 1


def bank_gains(bank: dict) -> dict:
    return {
        (g["system"], g["observation"], g["region1"], g["region2"]): np.array(g["G"], dtype=float)
        for g in bank["gains"]
    }


@dataclass(frozen=True)
class Form:
    label: str
    matrix: np.ndarray  # P_i Abar + Abar' P_i + sum_j rate_ij P_j
    p: np.ndarray  # P_i


def _forms(label, a, b, gain_of_obs, alpha, rates, p_list):
    """Closed-loop forms of every mode of one (sub)system in one region cell."""
    out = []
    for i in range(len(a)):
        a_bar = sum(alpha[i, o] * (a[i] + b[i] @ gain_of_obs(o + 1)) for o in range(alpha.shape[1]))
        p = p_list[i]
        form = p @ a_bar + a_bar.T @ p + sum(rates[i, j] * p_list[j] for j in range(len(a)))
        out.append(Form(f"{label} mode {i + 1}", 0.5 * (form + form.T), p))
    return out


def bank_forms(model: Model, bank: dict) -> list[Form]:
    """Every closed-loop form the bank's own certificate must make negative.

    The order is the program's certificate order: system, mode, region cell.
    """
    gains = bank_gains(bank)
    p_all = [np.array(p, dtype=float) for p in bank["certificate"]["P"]]
    cells = [(m1, m2) for m1 in range(1, model.regions[0] + 1) for m2 in range(1, model.regions[1] + 1)]
    s1, s2 = model.sub[1], model.sub[2]
    forms = []
    if bank["scheme"] == "distributed":
        if len(p_all) != s1.modes + s2.modes:
            raise CheckFailed(f"certificate has {len(p_all)} P matrices, expected {s1.modes + s2.modes}")
        per_system = {1: p_all[: s1.modes], 2: p_all[s1.modes :]}
        for k, sub in ((1, s1), (2, s2)):
            cell_forms = []
            for m1, m2 in cells:
                own, partner = (m1, m2) if k == 1 else (m2, m1)
                cell_forms.append(_forms(
                    f"system {k} regions ({m1},{m2})", sub.a, sub.b,
                    lambda o, k=k, m1=m1, m2=m2: gains[(k, o, m1, m2)],
                    sub.obs[own - 1], sub.rates[partner - 1], per_system[k],
                ))
            forms += [f for mode_forms in zip(*cell_forms) for f in mode_forms]
        return forms

    # Centralized: the product system, with Kronecker sums of the rates and
    # Kronecker products of the emissions.
    n1, n2 = s1.modes, s2.modes
    a = [scipy.linalg.block_diag(s1.a[i1], s2.a[i2]) for i1 in range(n1) for i2 in range(n2)]
    b = [scipy.linalg.block_diag(s1.b[i1], s2.b[i2]) for i1 in range(n1) for i2 in range(n2)]
    if len(p_all) != n1 * n2:
        raise CheckFailed(f"certificate has {len(p_all)} P matrices, expected {n1 * n2}")
    cell_forms = []
    for m1, m2 in cells:
        rates = np.kron(s1.rates[m2 - 1], np.eye(n2)) + np.kron(np.eye(n1), s2.rates[m1 - 1])
        alpha = np.kron(s1.obs[m1 - 1], s2.obs[m2 - 1])
        cell_forms.append(_forms(
            f"joint regions ({m1},{m2})", a, b,
            lambda o, m1=m1, m2=m2: gains[(0, o, m1, m2)], alpha, rates, p_all,
        ))
    return [f for mode_forms in zip(*cell_forms) for f in mode_forms]


def check_bank(model: Model, bank: dict, decay: float = 0.0) -> None:
    """The bank's own certificate proves its closed loop stable.

    Every P_i is positive definite, every closed-loop form is negative
    definite, and with a synthesis decay rate rho every form plus 2 rho P_i
    stays at or below zero: synthesis against A + rho I guarantees it.
    """
    if "certificate" not in bank:
        raise CheckFailed("bank carries no certificate")
    try:
        forms = bank_forms(model, bank)
    except KeyError as exc:
        raise CheckFailed(f"bank has no gain for {exc.args[0]}") from None
    for f in forms:
        p_min = float(np.linalg.eigvalsh(f.p)[0])
        if not p_min > 0.0:
            raise CheckFailed(f"{f.label}: P has eigenvalue {p_min:.3e}, not positive definite")
        worst = float(np.linalg.eigvalsh(f.matrix)[-1])
        if not worst < 0.0:
            raise CheckFailed(f"{f.label}: closed-loop form has eigenvalue {worst:.3e} >= 0")
        if decay:
            shifted = float(np.linalg.eigvalsh(f.matrix + 2.0 * decay * f.p)[-1])
            scale = np.linalg.norm(f.matrix, 2) + 2.0 * decay * np.linalg.norm(f.p, 2)
            if shifted > ROUNDING * scale:
                raise CheckFailed(
                    f"{f.label}: form + 2*{decay:g}*P has eigenvalue {shifted:.3e} > 0, "
                    f"so the closed loop does not contract at rate {decay:g}"
                )


def _rk4_local_bound(a: np.ndarray, dt: float) -> float:
    """Bound on |expm(dt A) - T4(dt A)| relative to |x|: the Taylor tail."""
    h = dt * np.linalg.norm(a, 2)
    return h**5 / 120.0 * math.exp(h)


def read_trace(path) -> dict:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    cols = {name: data[:, j] for j, name in enumerate(header)}
    def group(prefix):
        names = [h for h in header if h == prefix or h.startswith(prefix + "_")]
        return np.column_stack([cols[h] for h in names])
    return {
        "t": cols["t"],
        "x1": group("x1"),
        "x2": group("x2"),
        "u1": group("u1"),
        "u2": group("u2"),
        **{name: cols[name].astype(np.int64) for name in
           ("mode1", "mode2", "obs1", "obs2", "region1", "region2")},
    }


def trace_counts(tr: dict) -> dict:
    """Changes between consecutive rows: mode jumps, region and observation changes."""
    def changes(*names):
        return int(sum(np.count_nonzero(np.diff(tr[n])) for n in names))
    return {
        "jumps": changes("mode1", "mode2"),
        "region_changes": changes("region1", "region2"),
        "obs_changes": changes("obs1", "obs2"),
    }


def check_trace(model: Model, bank: dict, tr: dict, dt: float, horizon: float, x1_0, x2_0) -> None:
    """Replay a trace row by row against the model and the bank."""
    n_rows = int(round(horizon / dt)) + 1
    if len(tr["t"]) != n_rows:
        raise CheckFailed(f"trace has {len(tr['t'])} rows, expected {n_rows}")
    n = np.arange(n_rows)
    if np.max(np.abs(tr["t"] - n * dt)) > ROUNDING * max(1.0, horizon):
        raise CheckFailed("column t is not n*dt")
    if not (np.array_equal(tr["x1"][0], x1_0) and np.array_equal(tr["x2"][0], x2_0)):
        raise CheckFailed("row 0 does not hold the initial state")
    x = {1: tr["x1"], 2: tr["x2"]}
    if not all(np.all(np.isfinite(v)) for v in x.values()):
        raise CheckFailed("trace holds non-finite states")
    s = model.sub
    for k in (1, 2):
        region = model.shell(k, np.sum(x[k] ** 2, axis=1))
        bad = np.flatnonzero(region != tr[f"region{k}"])
        if len(bad):
            raise CheckFailed(f"row {bad[0]}: region{k} is not the shell index of |x{k}|^2")
        mode, obs = tr[f"mode{k}"], tr[f"obs{k}"]
        if mode.min() < 1 or mode.max() > s[k].modes or obs.min() < 1 or obs.max() > s[k].modes:
            raise CheckFailed(f"mode{k} or obs{k} out of range")
        emission = np.array([s[k].obs[r - 1][i - 1, o - 1] for r, i, o in zip(region, mode, obs)])
        bad = np.flatnonzero(emission <= 0.0)
        if len(bad):
            raise CheckFailed(f"row {bad[0]}: obs{k} has zero emission probability")
        partner = tr[f"region{3 - k}"]
        for row in np.flatnonzero(np.diff(mode)):
            rate = s[k].rates[partner[row] - 1][mode[row] - 1, mode[row + 1] - 1]
            if not rate > 0.0:
                raise CheckFailed(f"row {row + 1}: mode{k} jump has zero rate under region{3 - k}={partner[row]}")

    if bank["scheme"] != "distributed":
        raise ValueError("trace replay covers distributed banks only")
    gains = bank_gains(bank)
    for k in (1, 2):
        # Closed-loop matrix per row, keyed by what selects it.
        keys = list(zip(tr[f"mode{k}"], tr[f"obs{k}"], tr["region1"], tr["region2"]))
        uniq = {}
        for key in keys:
            if key in uniq:
                continue
            i, o, m1, m2 = key
            g = gains.get((k, o, m1, m2))
            if g is None:
                raise CheckFailed(f"trace uses gain {key} of system {k}, which the bank lacks")
            a_cl = s[k].a[i - 1] + s[k].b[i - 1] @ g
            uniq[key] = (g, scipy.linalg.expm(dt * a_cl), _rk4_local_bound(a_cl, dt))
        index = {key: j for j, key in enumerate(uniq)}
        sel = np.array([index[key] for key in keys])
        g_all = np.stack([v[0] for v in uniq.values()])[sel]
        phi_all = np.stack([v[1] for v in uniq.values()])[sel]
        bound_all = np.array([v[2] for v in uniq.values()])[sel]
        xk, uk = x[k], tr[f"u{k}"]
        norm_x = np.linalg.norm(xk, axis=1)

        u_err = np.linalg.norm(uk - np.einsum("nij,nj->ni", g_all, xk), axis=1)
        u_tol = ROUNDING * np.linalg.norm(g_all, axis=(1, 2)) * norm_x + 1e-300
        bad = np.flatnonzero(u_err > u_tol)
        if len(bad):
            raise CheckFailed(f"row {bad[0]}: u{k} differs from G(obs, regions) x by {u_err[bad[0]]:.3e}")

        pred = np.einsum("nij,nj->ni", phi_all[:-1], xk[:-1])
        x_err = np.linalg.norm(xk[1:] - pred, axis=1)
        x_tol = (bound_all[:-1] + ROUNDING) * norm_x[:-1] + 1e-300
        bad = np.flatnonzero(x_err > x_tol)
        if len(bad):
            row = bad[0]
            raise CheckFailed(
                f"row {row + 1}: state x{k} is {x_err[row]:.3e} from expm(dt*A_cl) x, "
                f"beyond RK4's local error bound {x_tol[row]:.3e}"
            )


def check_report(report: dict, runs: int) -> None:
    """Mean and standard error agree with the per-run functionals."""
    f = np.array(report["functional_per_run"], dtype=float)
    if report["runs"] != runs or len(f) != runs or len(report["terminal_norms"]) != runs:
        raise CheckFailed(f"report does not hold {runs} runs")
    if not (np.all(np.isfinite(f)) and np.all(f > 0.0)):
        raise CheckFailed("functional_per_run holds values that are not finite and positive")
    mean = math.fsum(f) / runs
    stderr = math.sqrt(math.fsum((f - mean) ** 2) / (runs - 1) / runs) if runs > 1 else 0.0
    if abs(report["mean"] - mean) > ROUNDING * mean:
        raise CheckFailed(f"mean {report['mean']!r} is not the mean of functional_per_run ({mean!r})")
    if abs(report["stderr"] - stderr) > ROUNDING * max(stderr, mean):
        raise CheckFailed(f"stderr {report['stderr']!r} does not follow from functional_per_run ({stderr!r})")


def _t4(m: np.ndarray) -> np.ndarray:
    """The RK4 step polynomial I + M + M^2/2 + M^3/6 + M^4/24."""
    eye = np.eye(m.shape[0])
    out, term = eye.copy(), eye
    for k in range(1, 5):
        term = term @ m / k
        out = out + term
    return out


def _chain(model: Model, bank: dict, k: int, dt: float):
    """Per-step law of subsystem k of a single-region model.

    Returns the jump matrix p (rate*dt off the diagonal), the emission matrix
    alpha and the RK4 step matrices Phi[i][o] = T4(dt*(A_i + B_i G_o)).
    """
    if model.regions != (1, 1):
        raise ValueError("the exact functional needs a single-region model")
    gains = bank_gains(bank)
    sub = model.sub[k]
    jump = sub.rates[0] * dt
    np.fill_diagonal(jump, 0.0)
    np.fill_diagonal(jump, 1.0 - jump.sum(axis=1))
    phi = [[_t4(dt * (sub.a[i] + sub.b[i] @ gains[(k, o + 1, 1, 1)])) for o in range(sub.modes)]
           for i in range(sub.modes)]
    return jump, sub.obs[0], phi


def _moment_step(jump, alpha, phi, power: int) -> np.ndarray:
    """Linear map taking E[x^(power) 1{mode=i}] (stacked over i) one step on."""
    n = len(phi)
    size = phi[0][0].shape[0] ** power
    out = np.zeros((n * size, n * size))
    for i in range(n):
        push = np.zeros((size, size))
        for o in range(n):
            kron = phi[i][o]
            for _ in range(power - 1):
                kron = np.kron(kron, phi[i][o])
            push += alpha[i, o] * kron
        for j in range(n):
            out[j * size : (j + 1) * size, i * size : (i + 1) * size] = jump[i, j] * push
    return out


def exact_functional(model: Model, bank: dict, x1_0, x2_0, dt: float, horizon: float) -> tuple[float, float]:
    """Mean and standard deviation of the trapezoidal integral F of |x|^2.

    Exact for the simulated discrete process of a single-region model, where
    the subsystems are independent, observations are drawn afresh every step
    and the chains start in mode 1. For each subsystem the second moments
    M_n(i) = E[x_n x_n' 1{mode_n = i}] obey

        M_{n+1}(j) = sum_i p_ij sum_o alpha_io Phi_io M_n(i) Phi_io',

    which gives E F. For E F^2 the backward quadratic V_n(x, i) = x' S_n(i) x,
    the expected rest of F from step n, pairs with the fourth moments of x_n:
    F^2 = sum_n w_n c_n (2 V_n - w_n c_n) in expectation, with c_n = |x_n|^2
    and w_n the trapezoid weights.
    """
    steps = int(round(horizon / dt))
    w = np.full(steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    mean = var = 0.0
    for k, x0 in ((1, x1_0), (2, x2_0)):
        jump, alpha, phi = _chain(model, bank, k, dt)
        n, nx = len(phi), phi[0][0].shape[0]
        x0 = np.asarray(x0, dtype=float)
        eye = np.eye(nx)

        # Backward: S_n(i) = w_n I + sum_o alpha_io Phi_io' (sum_j p_ij S_{n+1}(j)) Phi_io.
        s = np.zeros((steps + 1, n, nx, nx))
        s[steps] = w[steps] * eye
        for t in range(steps - 1, -1, -1):
            ahead = np.einsum("ij,jab->iab", jump, s[t + 1])
            for i in range(n):
                s[t, i] = w[t] * eye + sum(alpha[i, o] * phi[i][o].T @ ahead[i] @ phi[i][o] for o in range(n))
        mean_k = float(x0 @ s[0, 0] @ x0)

        # Forward fourth moments, paired with vec(I) (x) vec(2 S_n - w_n I).
        step4 = _moment_step(jump, alpha, phi, 4)
        q = np.zeros(n * nx**4)
        q[: nx**4] = np.einsum("a,b,c,d->abcd", x0, x0, x0, x0).reshape(-1)
        vec_eye = eye.reshape(-1)
        second = 0.0
        for t in range(steps + 1):
            r = 2.0 * s[t] - w[t] * eye
            pair = np.concatenate([np.kron(vec_eye, r[i].reshape(-1)) for i in range(n)])
            second += w[t] * (pair @ q)
            q = step4 @ q
        mean += mean_k
        var += second - mean_k**2
    return mean, math.sqrt(max(var, 0.0))


def check_oracle(report: dict, expected: float, sd: float, sigmas: float) -> None:
    """The Monte Carlo mean lies within ``sigmas`` exact standard errors of E F."""
    bound = sigmas * sd / math.sqrt(report["runs"])
    gap = abs(report["mean"] - expected)
    if not gap <= bound:
        raise CheckFailed(
            f"Monte Carlo mean {report['mean']:.6g} is {gap:.4g} from the exact expectation "
            f"{expected:.6g}, beyond {sigmas:g} standard errors ({bound:.4g})"
        )
