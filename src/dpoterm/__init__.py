"""Termination prover for DPO graph transformation systems via weighted
type graphs over well-founded commutative semirings."""
