"""Closed-loop benchmark of the rollup + matrix-profile engine (see README.md)."""
