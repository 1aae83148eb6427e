"""Machine-speed probe.

The benchmark runs on shared machines whose speed drifts by 10-30% over
minutes (neighbours' load), which moves every per-run median together.  The
probe is a fixed piece of work that runs none of conefrac's code: sparse
LU solves, a large sparse operator, small vector operations and a loop
driven from Python, dense products and numpy elementwise updates, the
same kinds of work the tasks do.  The runner runs
it before the first sample and after every sample (in its own process, so
the child's peak RSS is the task's); a task's seconds divided by the mean
of the two probes around it, times ``PROBE_REF_S``, are the task's seconds
on a machine where the probe takes ``PROBE_REF_S``.
"""

import time

PROBE_REF_S = 0.5


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    t0 = time.perf_counter()
    # sparse LU solves, like the Hardy and preconditioner factorizations
    for n, shifts in ((120, 3), (70, 8)):
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        A = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
        b = np.ones(n * n)
        for k in range(shifts):
            spla.splu((A + (0.1 * k) * sp.eye(n * n)).tocsc()).solve(b)
    # a large sparse operator applied repeatedly (memory bound)
    big = sp.kron(sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(24, 24)), A,
                  format="csr")
    x = np.ones(big.shape[0])
    for _ in range(6):
        x = big @ x
        x /= np.abs(x).max()
    # many small vector operations driven from Python, like the analyzer
    V = np.linspace(0.0, 1.0, 4 * n * n).reshape(4, n * n)
    M = A.tocsr()
    acc = 0.0
    for i in range(2500):
        v = np.array([0.1, 0.2, 0.3, 0.4]) * (1.0 + 1e-6 * i) @ V
        acc += float(v @ (M @ v))
    for i in range(200_000):
        acc += i * 0.5
    # dense products and elementwise updates
    D = np.linspace(-1.0, 1.0, 300 * 300).reshape(300, 300)
    for _ in range(5):
        D = D @ D
        D /= np.abs(D).max()
    v = np.arange(1000.0)
    for _ in range(3000):
        v = v * 1.0000001 + 1.0
    return time.perf_counter() - t0
