"""Backend cross-checks: the loop kernels (numba-compiled when numba is
installed, plain Python otherwise) and their numpy twins must agree, and the
backend choice must follow its contract: numba iff numba imports and
INVERSEPOINT_NUMBA does not disable it, with BACKEND_REASON naming the branch
taken."""

import json
import os
import subprocess
import sys

import numpy as np

from inversepoint import _kernels


def _random_system(rng, n):
    m = rng.uniform(0, 2, (n, n))
    m[np.diag_indices(n)] += 0.1
    x = rng.uniform(0.05, 3.0, n)
    return m, x


def _run_child(script, **env):
    """Run script in a fresh interpreter with env added; return its stdout
    parsed as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, **env),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_backend_is_numba_by_default():
    """numba is the backend iff it imports and INVERSEPOINT_NUMBA (stripped,
    lower-cased) is not one of 0/false/off/no; BACKEND_REASON names the
    branch. With numba installed and the flag unset, numba is the default."""
    raw = os.environ.get("INVERSEPOINT_NUMBA")
    flag_allows = raw is None or raw.strip().lower() not in ("0", "false", "off", "no")
    try:
        import numba  # noqa: F401
    except ImportError as exc:
        import_error = str(exc)
    else:
        import_error = None

    if not flag_allows:
        assert _kernels.BACKEND == "numpy"
        assert _kernels.BACKEND_REASON == f"disabled by INVERSEPOINT_NUMBA={raw}"
    elif import_error is not None:
        assert _kernels.BACKEND == "numpy"
        assert _kernels.BACKEND_REASON == f"numba not importable: {import_error}"
    else:
        assert _kernels.BACKEND == "numba"
        assert _kernels.BACKEND_REASON == "numba imported"


def test_numpy_fallback_when_numba_not_importable():
    """With numba blocked from importing, the package falls back to numpy and
    says why, even on a machine that has numba."""
    script = (
        "import json, sys\n"
        "sys.modules['numba'] = None\n"
        "import inversepoint as ip\n"
        "print(json.dumps({'backend': ip.BACKEND, 'reason': ip.BACKEND_REASON}))\n"
    )
    payload = _run_child(script, INVERSEPOINT_NUMBA="1")
    assert payload["backend"] == "numpy"
    assert payload["reason"].startswith("numba not importable: ")


def test_positive_root_satisfies_quadratic():
    rng = np.random.default_rng(0)
    for _ in range(200):
        mii = rng.uniform(0, 4) * rng.integers(0, 2)  # half the cases zero
        b = rng.uniform(0.01, 50.0)
        t = _kernels.positive_root(mii, b)
        assert t > 0
        assert abs(mii * t * t + b * t - 1.0) <= 1e-12 * (1.0 + b + mii)
    assert np.isnan(_kernels.positive_root(0.0, 0.0))


def test_f_apply_loop_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m, x = _random_system(rng, n)
        a = np.empty(n)
        b = np.empty(n)
        assert _kernels.f_apply_loop(m, x, a) == -1
        assert _kernels.f_apply_numpy(m, x, b) == -1
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))


def test_f_apply_zero_row_sentinel_agrees():
    m = np.array([[0.0, 0.0], [1.0, 1.0]])
    x = np.zeros(2)
    out = np.empty(2)
    assert _kernels.f_apply_loop(m, x, out) == 0
    assert _kernels.f_apply_numpy(m, x, out) == 0


def test_residual_loop_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m, x = _random_system(rng, n)
        a = _kernels.residual_loop(m, x)
        b = _kernels.residual_numpy(m, x)
        assert abs(a - b) <= 1e-13 * (1.0 + abs(a))


def test_newton_system_loop_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        m, x = _random_system(rng, n)
        j1 = np.empty((n, n))
        g1 = np.empty(n)
        j2 = np.empty((n, n))
        g2 = np.empty(n)
        _kernels.newton_system_loop(m, x, j1, g1)
        _kernels.newton_system_numpy(m, x, j2, g2)
        assert np.max(np.abs(j1 - j2)) <= 1e-13 * (1.0 + np.max(np.abs(j1)))
        assert np.max(np.abs(g1 - g2)) <= 1e-13 * (1.0 + np.max(np.abs(g1)))


def test_oracle_sweeps_converges_on_small_system():
    m = np.array([[1.0, 3.0], [5.0, 2.0]])
    x = np.ones(2)
    status, sweeps = _kernels.oracle_sweeps(m, x, 1e-12, 10**6)
    assert status == 0
    assert sweeps < 1000
    assert _kernels.residual_numpy(m, x) <= 1e-12


def test_numpy_fallback_end_to_end():
    """Import the package with INVERSEPOINT_NUMBA=0 in a subprocess and check
    the numpy backend reports the flag as its reason and reproduces the
    in-process solution (computed on whichever backend this process runs)."""
    from inversepoint import Matrix, solve

    expected = solve(Matrix([[1, 3], [5, 2]])).x.values
    script = (
        "import json, numpy as np\n"
        "import inversepoint as ip\n"
        "assert ip.BACKEND == 'numpy', ip.BACKEND\n"
        "assert ip.BACKEND_REASON == 'disabled by INVERSEPOINT_NUMBA=0', ip.BACKEND_REASON\n"
        "res = ip.solve(ip.Matrix([[1, 3], [5, 2]]))\n"
        "print(json.dumps({'x': list(res.x.values), 'converged': res.converged}))\n"
    )
    payload = _run_child(script, INVERSEPOINT_NUMBA="0")
    assert payload["converged"] is True
    assert np.max(np.abs(np.array(payload["x"]) - expected)) <= 1e-12
