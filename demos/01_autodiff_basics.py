#!/usr/bin/env python3
"""Walk through the differentiation core: record a forward pass on a tape,
pull gradients back out, and confirm them against finite differences."""

import numpy as np

from fishgrad import autodiff as ad
from fishgrad import models as mz

# A tape records one forward computation. Parameters are bound as named
# segments of a flat vector; everything else enters as constants.
params = mz.ParamVector([("W", (2, 2)), ("b", (2,))])
params.view("W")[...] = [[0.4, -0.3], [0.1, 0.8]]
params.view("b")[...] = [0.05, -0.05]

tape = ad.Tape()
bound = tape.bind(params)
x = tape.constant([[1.0, 2.0]])
logits = ad.bias_add(ad.matmul(x, bound["W"]), bound["b"])
loss = ad.nll(ad.log_softmax(logits), [0])
print("loss:", float(loss.data))

grad = tape.gradient()
print("gradient over the flat parameter vector:")
for seg in params.segments:
    print(f"  {seg.name}: {grad[seg.offset:seg.offset + seg.length].round(4)}")

# Whole models get their training gradient the same way; a stack of dense
# layers applies the same backward rules without recording a tape. Check a
# model gradient against central finite differences, the house oracle for
# every backward rule.
model = mz.build(mz.ModelSpec("mlp", input_dim=4, hidden=(8,), num_classes=3, seed=0))
rng = np.random.default_rng(0)
X = rng.normal(size=(5, 4))
y = rng.integers(0, 3, size=5)

value, autodiff_grad = ad.loss_gradient(model, X, y)
fd_grad = ad.finite_difference_gradient(
    lambda: float(model.loss_mean(ad.Tape(), X, y).data),
    model.params.data, h=1e-4)
rel = np.abs(autodiff_grad - fd_grad) / np.maximum(1.0, np.abs(fd_grad))
print(f"\nmlp loss {value:.6f}; max relative error vs finite differences: {rel.max():.2e}")

# Per-sample gradients are the building block for the squared-gradient
# scores: their mean recovers the batch gradient.
per_sample = ad.per_sample_gradients(model, X, y)
batch = ad.log_prob_gradient(model, X, y)
print("per-sample mean vs batch gradient:",
      np.abs(np.mean(per_sample, axis=0) - batch).max())
