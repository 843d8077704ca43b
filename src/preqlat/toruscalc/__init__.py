"""Exact trigonometric-polynomial calculus on tori: Cartan operations,
symplectic and contact presets, and the degree-two cocycles evaluated on
them."""
