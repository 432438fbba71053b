"""Granularity vectors (Section 2.2).

A granularity vector assigns one domain (level) to every dimension of a
schema: ``(X_1:D_1, ..., X_d:D_d)``.  The paper's shorthand omits
attributes at ``D_ALL``; :meth:`Granularity.from_spec` mirrors that —
``Granularity.from_spec(schema, {"t": "Hour", "U": "IP"})`` puts every
unlisted dimension at ``ALL``.

The partial order ``<_G`` compares granularities component-wise: a
granularity ``G1`` is *finer or equal* to ``G2`` when every one of its
domains is at least as specific.  Aggregation (roll-up) is only legal
from finer to coarser.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.errors import GranularityError
from repro.schema.dataset_schema import DatasetSchema, Record
from repro.schema.domain import Mapper

#: A region key: one generalized value per dimension.
Key = tuple[Any, ...]


class Granularity:
    """An immutable granularity vector bound to a schema.

    ``levels[i]`` is the hierarchy level of dimension ``i``; higher
    levels are coarser and the maximum level is ``D_ALL``.
    """

    __slots__ = (
        "schema",
        "levels",
        "_key_dims",
        "_record_key_fn",
        "_lift_cache",
    )

    def __init__(self, schema: DatasetSchema, levels: Sequence[int]) -> None:
        if len(levels) != schema.num_dimensions:
            raise GranularityError(
                f"granularity has {len(levels)} entries for "
                f"{schema.num_dimensions} dimensions"
            )
        for i, level in enumerate(levels):
            dim = schema.dimensions[i]
            if not 0 <= level <= dim.all_level:
                raise GranularityError(
                    f"level {level} out of range for dimension {dim.name} "
                    f"(0..{dim.all_level})"
                )
        self.schema = schema
        self.levels = tuple(levels)
        # Dimensions that actually key a region at this granularity
        # (everything not at D_ALL).
        self._key_dims = tuple(
            i
            for i in range(schema.num_dimensions)
            if levels[i] != schema.dimensions[i].all_level
        )
        self._record_key_fn: Callable[[Record], Key] | None = None
        self._lift_cache: dict[tuple[int, ...], Callable[[Key], Key]] = {}

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> tuple[DatasetSchema, tuple[int, ...]]:
        """Pickle only ``(schema, levels)``.

        The compiled key/lift closures are per-process caches and are
        not picklable; workers rebuild them lazily on first use.
        """
        return (self.schema, self.levels)

    def __setstate__(
        self, state: tuple[DatasetSchema, tuple[int, ...]]
    ) -> None:
        schema, levels = state
        self.__init__(schema, levels)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_spec(
        cls, schema: DatasetSchema, spec: Mapping[str, str]
    ) -> "Granularity":
        """Build from the paper's shorthand, e.g. ``{"t": "Hour"}``.

        Keys are dimension names or abbreviations; values are domain
        names.  Unlisted dimensions sit at ``D_ALL``.
        """
        levels = [dim.all_level for dim in schema.dimensions]
        for dim_name, domain_name in spec.items():
            idx = schema.dim_index(dim_name)
            levels[idx] = schema.dimensions[idx].level_of(domain_name)
        return cls(schema, levels)

    @classmethod
    def base(cls, schema: DatasetSchema) -> "Granularity":
        """The fact table's granularity ``G_0`` — all base domains."""
        return cls(schema, [0] * schema.num_dimensions)

    @classmethod
    def all(cls, schema: DatasetSchema) -> "Granularity":
        """The coarsest granularity — every dimension at ``D_ALL``."""
        return cls(schema, [d.all_level for d in schema.dimensions])

    # -- partial order ----------------------------------------------------

    def finer_or_equal(self, other: "Granularity") -> bool:
        """The ``<=_G`` test: is ``self`` at least as specific as ``other``?

        ``self <=_G other`` holds when every domain of ``self`` is a
        specialization (lower level) of the corresponding domain of
        ``other``; this is the precondition of the aggregation operator.
        """
        self._check_same_schema(other)
        return all(a <= b for a, b in zip(self.levels, other.levels))

    def strictly_finer(self, other: "Granularity") -> bool:
        return self.finer_or_equal(other) and self.levels != other.levels

    def _check_same_schema(self, other: "Granularity") -> None:
        if self.schema is not other.schema:
            raise GranularityError(
                "granularities belong to different schemas"
            )

    # -- keys ---------------------------------------------------------------

    @property
    def key_dims(self) -> tuple[int, ...]:
        """Indices of dimensions below ``D_ALL`` (the region key dims)."""
        return self._key_dims

    def key_of_record(self, record: Record) -> Key:
        """Region key of the record: generalized value per dimension.

        Dimensions at ``D_ALL`` contribute the constant ``ALL`` value, so
        keys of one granularity always have the full dimension width and
        are directly comparable.
        """
        return self.record_key_fn()(record)

    def record_key_fn(self) -> Callable[[Record], Key]:
        """A compiled ``record -> region key`` closure (cached)."""
        if self._record_key_fn is None:
            mappers: tuple[Mapper | None, ...] = tuple(
                dim.hierarchy.mapper(0, self.levels[i])
                for i, dim in enumerate(self.schema.dimensions)
            )

            def key_of(
                record: Record,
                _mappers: tuple[Mapper | None, ...] = mappers,
            ) -> Key:
                return tuple(
                    record[i] if fn is None else fn(record[i])
                    for i, fn in enumerate(_mappers)
                )

            self._record_key_fn = key_of
        return self._record_key_fn

    def check_key(self, key: Key) -> None:
        """Reject a key that is not one value per dimension.

        Region keys always have the schema's full width (``ALL`` slots
        hold the constant ``ALL`` value); a shorter or longer tuple can
        match no region and is a caller error, not an absent region.

        Raises:
            GranularityError: if the widths differ.
        """
        if len(key) != len(self.levels):
            raise GranularityError(
                f"key {tuple(key)} has {len(key)} components; region keys "
                f"of {self} have one per dimension ({len(self.levels)}), "
                "with the ALL value in aggregated dimensions"
            )

    def generalize_key(self, key: Key, finer: "Granularity") -> Key:
        """Roll a key up from a finer granularity to this one.

        Raises:
            GranularityError: if ``finer`` is not actually finer-or-equal.
        """
        return self.lift_fn(finer)(key)

    def lift_fn(self, finer: "Granularity") -> Callable[[Key], Key]:
        """A compiled ``finer key -> this key`` closure (cached).

        Raises:
            GranularityError: if ``finer`` is not actually finer-or-equal.
        """
        cached = self._lift_cache.get(finer.levels)
        if cached is not None:
            return cached
        if not finer.finer_or_equal(self):
            raise GranularityError(
                f"{finer} is not finer than {self}; cannot roll up"
            )
        mappers: tuple[Mapper | None, ...] = tuple(
            dim.hierarchy.mapper(finer.levels[i], self.levels[i])
            for i, dim in enumerate(self.schema.dimensions)
        )

        def lift(
            key: Key, _mappers: tuple[Mapper | None, ...] = mappers
        ) -> Key:
            return tuple(
                key[i] if fn is None else fn(key[i])
                for i, fn in enumerate(_mappers)
            )

        self._lift_cache[finer.levels] = lift
        return lift

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Granularity)
            and self.schema is other.schema
            and self.levels == other.levels
        )

    def __hash__(self) -> int:
        return hash((id(self.schema), self.levels))

    def __repr__(self) -> str:
        parts = []
        for i, dim in enumerate(self.schema.dimensions):
            if self.levels[i] != dim.all_level:
                dom = dim.hierarchy.domain(self.levels[i]).name
                parts.append(f"{dim.abbrev}:{dom}")
        return "(" + ", ".join(parts) + ")" if parts else "(ALL)"
