"""Measured-wall benchmark of the repro HPL stack (see README.md)."""
