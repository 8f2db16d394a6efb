"""Adadelta optimizer (Zeiler 2012) at the original method's constants.

Update recurrence, per parameter tensor:

    E[g^2]  <- RHO * E[g^2]  + (1 - RHO) * g^2
    dx      =  -sqrt(E[dx^2] + EPS) / sqrt(E[g^2] + EPS) * g
    E[dx^2] <- RHO * E[dx^2] + (1 - RHO) * dx^2
    param   <- param + dx

with RHO = 0.95, EPS = 1e-6 and a learning rate of 1.
"""

from __future__ import annotations

import numpy as np

RHO = 0.95
EPS = 1e-6


class Adadelta:
    """Adadelta over a named parameter dict (arrays updated in place).

    ``acc_grad_sq`` and ``acc_delta_sq`` map each parameter name to its
    accumulator; both start at zero and stay nonnegative.
    """

    def __init__(self, params: dict):
        self.params = params
        self.acc_grad_sq = {name: np.zeros_like(p) for name, p in params.items()}
        self.acc_delta_sq = {name: np.zeros_like(p) for name, p in params.items()}

    def step(self, grads):
        for name, param in self.params.items():
            grad = np.asarray(grads[name])
            if grad.shape != param.shape:
                raise ValueError(
                    f"adadelta: grad shape {grad.shape} != param shape "
                    f"{param.shape} for {name}"
                )
            if not np.all(np.isfinite(grad)):
                raise FloatingPointError(f"non-finite gradient for {name}")
            eg, ed = self.acc_grad_sq[name], self.acc_delta_sq[name]
            eg *= RHO
            eg += (1.0 - RHO) * grad * grad
            delta = -np.sqrt((ed + EPS) / (eg + EPS)) * grad
            ed *= RHO
            ed += (1.0 - RHO) * delta * delta
            param += delta
