"""Phase-adaptive policy optimization for evolutionary search, at desk scale.

Subpackages:

* ``estimators`` -- group-relative, best-of-k and entropic advantage signals,
  per-group standardization with the degenerate-branch skip rule, and the
  linear phase mixture.
* ``rewards`` -- progress-normalized reward shaping with unified failure
  handling.
* ``policy`` -- a small autoregressive token policy with a clipped surrogate
  loss, analytic gradients and AdamW.
* ``tasks`` -- deterministic evaluators: expert load balancing and a
  synthetic compressed-reward landscape.
* ``orchestrator`` -- the rollout/evaluate/train loop with a frontier
  archive and hard parameter barriers.
* ``cli`` -- the ``phasevolve`` command (run / estimate / export).
"""

__version__ = "0.1.0"
