"""Float power iteration kernel.

Its bounds only suggest where a spectral radius lies; ``linalg`` turns them
into exact certified enclosures, so this loop never decides anything.
"""

from __future__ import annotations


def power_enclosure(flat, n, tol, max_iter):
    """Iterate v <- normalize((m + I) v) from the all-ones vector.

    ``flat`` is the row-major matrix as a list of ``n * n`` non-negative
    floats.  At each step the Collatz-Wielandt ratios (m v)_i / v_i are
    formed; once max - min <= tol the iteration stops.  On irreducible input
    the shift by the identity makes the iteration converge to the Perron
    vector, so the ratios close in on the radius.  On reducible input they
    need not close at all (diag(6, 3) stays at 3 and 6 until ``max_iter``),
    so callers that need them to close split a matrix into the strongly
    connected blocks of its support and run the kernel per block.  The
    shift keeps every iterate mathematically positive, but on reducible
    inputs a transient coordinate can underflow to exact zero; such dead
    coordinates are skipped in the ratio scan.

    Returns ``(lo, hi, iterations, v)`` where ``lo``/``hi`` are the extreme
    ratios at the final iterate ``v``.  The float bounds are advisory; exact
    certification happens at a higher layer.
    """
    v = [1.0] * n
    lo = 0.0
    hi = float("inf")
    it = 0
    while it < max_iter:
        it += 1
        u = [0.0] * n
        for i in range(n):
            base = i * n
            acc = 0.0
            for j in range(n):
                acc += flat[base + j] * v[j]
            u[i] = acc
        lo = float("inf")
        hi = float("-inf")
        for i in range(n):
            if v[i] > 0.0:
                r = u[i] / v[i]
                if r < lo:
                    lo = r
                if r > hi:
                    hi = r
        if hi - lo <= tol:
            break
        total = 0.0
        for i in range(n):
            u[i] += v[i]
            total += u[i]
        inv = 1.0 / total
        for i in range(n):
            v[i] = u[i] * inv
    return lo, hi, it, v
