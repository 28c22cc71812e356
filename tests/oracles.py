"""Test oracles: independent checks of what the operators declare."""

import numpy as np

from splitkit import CapabilityError, OperatorError


def lipschitz_check(op, trials, seed):
    """Max of ``|F(u)-F(v)| / |u-v|`` over seeded random pairs.

    A valid Lipschitz declaration ``L`` satisfies
    ``lipschitz_check(op, ...) <= L * (1 + 1e-10)``.
    """
    if not op.has_forward:
        raise CapabilityError("operator has no forward oracle")
    if trials < 1:
        raise OperatorError("trials must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for _ in range(trials):
        u = rng.uniform(-1.0, 1.0, size=op.dim)
        v = rng.uniform(-1.0, 1.0, size=op.dim)
        duv = np.linalg.norm(u - v)
        if duv == 0.0:
            continue
        ratio = np.linalg.norm(op.forward(u) - op.forward(v)) / duv
        worst = max(worst, ratio)
    return worst
