"""Generated coupled-Lyapunov problems through the solver.

Each example is a jump system of 1-3 modes on 1-3 states with random
dynamics and jump rates, shifted so that its second-moment operator
P -> (A_i' P_i + P_i A_i + sum_j q_ij P_j)_i has spectral abscissa +-r for
r in [0.1, 1].  The problem A_i' P_i + P_i A_i + sum_j q_ij P_j < -delta I,
P_i > delta I is feasible exactly when that abscissa is negative (Costa,
Fragoso & Todorov, *Continuous-Time Markov Jump Linear Systems*, 2013), and
the margin r keeps every example away from the boundary.  The problem is
homogeneous, so delta, drawn log-uniform over [1e-14, 1e3], sets only the
scale of P and never the verdict.  Every verdict is checked by numpy code
here, not by the solver's internals: a feasible point's forms against
-delta and its P against delta, each within a rounding allowance relative
to the norms of the matrices summed.

The solver decides each of the 200 examples here within ``MAX_ITERATIONS``,
so its iteration cap (20 000 by default) decides no verdict in this test.
Other draws from this range can take more iterations (up to 13 in 4 500
seeded draws).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mjls.lmi import LmiProblem, MapBuilder, SolveStatus, VariableLayout, check_infeasibility_certificate, solve_feasibility

MAX_ITERATIONS = 11
# Rounding allowance of a recomputed eigenvalue, relative to the norms of
# the matrices summed into its matrix.
ROUNDING = 1e-12


def abscissa(a, q):
    """Largest real part of the eigenvalues of the second-moment operator,
    as a matrix on the stacked vec(P_i)."""
    modes, n = len(a), a[0].shape[0]
    eye = np.eye(n)
    op = np.kron(q, np.eye(n * n))
    for i in range(modes):
        block = slice(i * n * n, (i + 1) * n * n)
        op[block, block] += np.kron(eye, a[i].T) + np.kron(a[i].T, eye)
    return np.linalg.eigvals(op).real.max()


@st.composite
def jump_systems(draw):
    modes = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    entry = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    a = [np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n) for _ in range(modes)]
    rates = draw(st.lists(st.floats(0.0, 2.0), min_size=modes * modes, max_size=modes * modes))
    q = np.array(rates).reshape(modes, modes) * (1.0 - np.eye(modes))
    q -= np.diag(q.sum(axis=1))
    r = draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    # Shifting every A_i by c I shifts the operator's spectrum by 2c.
    shift = 0.5 * (r - abscissa(a, q))
    delta = 10.0 ** draw(st.floats(-14.0, 3.0))
    return [ai + shift * np.eye(n) for ai in a], q, r, delta


def lyapunov_problem(a, q, delta):
    lay = VariableLayout()
    for i in range(len(a)):
        lay.add_sym(i, a[i].shape[0])
    neg = []
    for i, ai in enumerate(a):
        block = MapBuilder(ai.shape[0], lay).linear(i, right=ai, mirror=True)
        for j in range(len(a)):
            if q[i, j] != 0.0:
                block.linear(j, coeff=q[i, j])
        neg.append(block.build())
    pos = [MapBuilder(ai.shape[0], lay).linear(i).build() for i, ai in enumerate(a)]
    return LmiProblem(lay, neg, pos, delta=delta)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(jump_systems())
def test_generated_problems_get_checked_verdicts(system):
    a, q, r, delta = system
    problem = lyapunov_problem(a, q, delta)
    sol = solve_feasibility(problem)
    assert sol.status is not SolveStatus.ITERATION_LIMIT
    assert sol.iterations <= MAX_ITERATIONS
    assert sol.status is (SolveStatus.FEASIBLE if r < 0.0 else SolveStatus.INFEASIBLE)
    if sol.status is SolveStatus.FEASIBLE:
        p = [sol.variable(i) for i in range(len(a))]
        for i, ai in enumerate(a):
            terms = [ai.T @ p[i], p[i] @ ai, *(q[i, j] * p[j] for j in range(len(a)))]
            allowance = ROUNDING * sum(np.linalg.norm(t, 2) for t in terms)
            assert np.linalg.eigvalsh(sum(terms)).max() <= -delta + allowance
            assert np.linalg.eigvalsh(p[i]).min() >= delta - ROUNDING * np.linalg.norm(p[i], 2)
    else:
        assert check_infeasibility_certificate(problem, sol.certificate.blocks) is not None
