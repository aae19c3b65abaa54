"""LPs written one named variable and one named row at a time, for tests.

``LpBuilder`` collects a problem's columns and rows in Python lists and
``build`` turns them into one ``lp.LpProblem``.  A row keeps only its
nonzero coefficients.  ``var_names`` and ``row_names`` are the names
``lp_format.to_lp_format`` prints.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from d2dlb import lp


class LpBuilder:
    """Columns and rows of one LP, appended in order; variables default to [0, +inf)."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.var_names: list[str] = []
        self.row_names: dict[int, str] = {}
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.objective: Mapping[int, float] | np.ndarray = {}
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.rhs: list[float] = []
        self.equality: list[bool] = []

    def add_variable(self, name: str, lower: float = 0.0, upper: float = math.inf) -> int:
        self.var_names.append(name)
        self.lower.append(lower)
        self.upper.append(upper)
        return len(self.lower) - 1

    def add_constraint(
        self, coeffs: Mapping[int, float], sense: str, rhs: float, name: str = ""
    ) -> int:
        if sense not in ("=", "<="):
            raise lp.LpError(f"unsupported sense {sense!r}")
        r = len(self.rhs)
        for i, c in coeffs.items():
            if c != 0.0:
                self.rows.append(r)
                self.cols.append(int(i))
                self.vals.append(float(c))
        self.rhs.append(float(rhs))
        self.equality.append(sense == "=")
        if name:
            self.row_names[r] = name
        return r

    def set_objective(self, coeffs: Mapping[int, float] | np.ndarray) -> None:
        """A {variable: cost} map or a dense cost vector; unnamed variables cost 0."""
        self.objective = coeffs

    def build(self) -> lp.LpProblem:
        cost = self.objective
        if not isinstance(cost, np.ndarray):
            cost = np.zeros(len(self.lower))
            for i, c in self.objective.items():
                cost[i] = c
        return lp.LpProblem(
            self.name,
            cost,
            self.lower,
            self.upper,
            self.rows,
            self.cols,
            self.vals,
            self.rhs,
            self.equality,
        )
