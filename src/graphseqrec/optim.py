"""Adam with bias correction over a named parameter group.

Moment buffers live on the optimizer and persist across steps.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .autodiff import Tensor


class GradientNaN(RuntimeError):
    """A parameter gradient was not finite (NaN or inf); the step was aborted
    untouched."""


class Adam:
    def __init__(self, params: Dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        """One in-place update; missing grads count as zero.

        A NaN or inf in any gradient aborts before touching any parameter or
        buffer.
        """
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                bad = p.grad[~np.isfinite(p.grad)].flat[0]
                raise GradientNaN(f"non-finite gradient ({bad}) in parameter '{name}'")
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            # two scratch buffers, one operation per line, in the order of
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and the step
            # lr * (m / bias1) / (sqrt(v / bias2) + eps)
            step = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += step
            np.multiply(g, g, out=step)
            step *= 1.0 - self.beta2
            v *= self.beta2
            v += step
            np.divide(m, bias1, out=step)
            step *= self.lr
            denom = np.divide(v, bias2)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p.data -= step
