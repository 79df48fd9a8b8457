"""Scene vocabulary and dimensionality configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import MissingStyleCodesError, UnknownStyleError

N_RELATION_LABELS = 11


@dataclass(frozen=True)
class SceneConfig:
    """Static vocabulary and size configuration for a scene family.

    Attributes:
        category_names: names of the object categories; their order fixes the
            integer labels 0..k_c-1 used everywhere else.
        k_f: size of the shared quantizer codebook.
        n_f: number of code slots per object (feature chunks).
        n_max: maximum number of object slots in a padded graph.
        d: dimensionality of the raw object feature vectors. Must be a
            multiple of n_f.
        style_names: optional style vocabulary used by the instruction grammar.
        style_codes: code signature per style, filled in once a codebook has
            been fitted (parallel to style_names; empty until then).
    """

    category_names: tuple[str, ...]
    k_f: int = 16
    n_f: int = 4
    n_max: int = 6
    d: int = 16
    style_names: tuple[str, ...] = ()
    style_codes: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if len(self.category_names) < 1:
            raise ValueError("need at least one category")
        if len(set(self.category_names)) != len(self.category_names):
            raise ValueError("category names must be unique")
        if self.k_f < 1 or self.n_f < 1 or self.n_max < 1:
            raise ValueError("k_f, n_f and n_max must be positive")
        if self.d % self.n_f != 0:
            raise ValueError(f"d={self.d} is not a multiple of n_f={self.n_f}")
        if self.style_codes and len(self.style_codes) != len(self.style_names):
            raise ValueError("style_codes must parallel style_names")
        for codes in self.style_codes:
            if len(codes) != self.n_f:
                raise ValueError("each style signature must have n_f codes")
            if any(c < 0 or c >= self.k_f for c in codes):
                raise ValueError("style signature code out of range")

    @property
    def k_c(self) -> int:
        return len(self.category_names)

    @property
    def k_e(self) -> int:
        return N_RELATION_LABELS

    @property
    def d_z(self) -> int:
        """Dimensionality of one feature chunk."""
        return self.d // self.n_f

    def category_index(self, name: str) -> int:
        try:
            return self.category_names.index(name)
        except ValueError:
            raise KeyError(f"unknown category {name!r}") from None

    def style_signature(self, name: str) -> tuple[int, ...]:
        if name not in self.style_names:
            raise UnknownStyleError(f"unknown style {name!r}")
        if not self.style_codes:
            raise MissingStyleCodesError(
                f"style {name!r} has no code signature: the config holds no style codes")
        return self.style_codes[self.style_names.index(name)]

    def with_style_codes(self, codes) -> "SceneConfig":
        return replace(self, style_codes=tuple(tuple(int(c) for c in row) for row in codes))
