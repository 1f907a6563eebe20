"""A tour of the tensor autodiff engine underneath everything else.

Builds one layer and its loss, checks a gradient against finite
differences by hand, then fits a two-layer regression with nothing but
the engine's ops and plain gradient descent.
"""

import numpy as np

import fairint.autodiff as ad
from fairint.autodiff import Tensor, backward

# -- gradients of a small expression -------------------------------------------

x = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]))
w = Tensor(np.array([[1.5], [-0.5]]), grad_tracked=True)
target = np.array([[1.0], [2.0]])


def loss_at(weights):
    # one ReLU layer, relu(x @ w), scored by its mean squared error against the target
    return ad.mean_squared_error(ad.dense(x, weights, activation="relu"), target)


loss = loss_at(w)
backward(loss)

print("loss                ", loss.item())
print("dloss/dw (backward) ", w.grad.reshape(-1))

h = 1e-6
fd = np.zeros(2)
for i in range(2):
    for sign in (+1, -1):
        w_shift = w.values.copy()
        w_shift[i, 0] += sign * h
        fd[i] += sign * loss_at(Tensor(w_shift)).item() / (2 * h)
print("dloss/dw (numeric)  ", fd)

# -- a tiny network trained by hand ---------------------------------------------

rng = np.random.default_rng(0)
inputs = Tensor(rng.uniform(-2, 2, (64, 1)))
targets = np.sin(inputs.values) + 0.05 * rng.standard_normal((64, 1))

w1 = Tensor(rng.standard_normal((1, 16)) * 0.5, grad_tracked=True)
b1 = Tensor(np.zeros(16), grad_tracked=True)
w2 = Tensor(rng.standard_normal((16, 1)) * 0.5, grad_tracked=True)
b2 = Tensor(np.zeros(1), grad_tracked=True)
params = [w1, b1, w2, b2]

print("\nfitting y = sin(x) with gradient descent on mean squared error")
for step in range(301):
    hidden = ad.dense(inputs, w1, b1, "relu")
    mse = ad.mean_squared_error(ad.dense(hidden, w2, b2), targets)
    for p in params:
        p.grad = None
    backward(mse)
    for p in params:
        p.values = p.values - 0.05 * p.grad
    if step % 100 == 0:
        print(f"  step {step:3d}  mse {mse.item():.4f}")
