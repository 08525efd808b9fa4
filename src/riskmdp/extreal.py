"""Extended-real arithmetic used for KL-penalized rewards.

Minus infinity marks a reward that is unattainable (absolute continuity
failed).  The one rule that plain IEEE arithmetic gets wrong for our purposes
is 0 * (-inf), which must be 0 here: a state or action that carries zero
weight contributes nothing, even if its reward is -inf.
"""

NEG_INF = float("-inf")
