"""Unit tests for configurations (Definition 4.1)."""

from dataclasses import FrozenInstanceError, fields

import pytest

from repro.core.configuration import Configuration, configuration


class TestCanonicalization:
    def test_children_are_sorted(self):
        assert Configuration("1", ("3", "2")).children == ("2", "3")

    def test_order_of_children_is_irrelevant(self):
        assert Configuration("1", ("2", "3")) == Configuration("1", ("3", "2"))

    def test_hashing_respects_equality(self):
        assert len({Configuration("1", ("2", "3")), Configuration("1", ("3", "2"))}) == 1

    def test_different_parent_is_different_configuration(self):
        assert Configuration("1", ("2", "3")) != Configuration("2", ("2", "3"))

    def test_multiset_semantics(self):
        config = Configuration("a", ("c", "b", "b"))
        assert config.children == ("b", "b", "c")
        assert config != Configuration("a", ("b", "c"))

    def test_children_from_any_iterable(self):
        config = Configuration("1", iter(["3", "2"]))
        assert config.children == ("2", "3")
        assert type(config.children) is tuple

    def test_dataclass_surface(self):
        config = Configuration("1", ("3", "2"))
        assert [field.name for field in fields(Configuration)] == ["parent", "children"]
        assert repr(config) == "Configuration(parent='1', children=('2', '3'))"
        assert Configuration("1") == Configuration("1", ())
        assert sorted([config, Configuration("1", ("1", "9")), Configuration("0", ("9", "9"))]) == [
            Configuration("0", ("9", "9")),
            Configuration("1", ("1", "9")),
            config,
        ]
        with pytest.raises(FrozenInstanceError):
            config.parent = "2"


class TestProperties:
    def test_delta(self):
        assert configuration("1", "2", "3", "4").delta == 3

    def test_labels(self):
        assert configuration("1", "2", "2").labels == frozenset({"1", "2"})

    def test_uses_only(self):
        config = configuration("1", "2", "2")
        assert config.uses_only({"1", "2", "3"})
        assert not config.uses_only({"1"})

    def test_is_special_true(self):
        assert configuration("b", "b", "1").is_special()

    def test_is_special_false(self):
        assert not configuration("1", "2", "3").is_special()

    def test_to_text(self):
        assert configuration("1", "3", "2").to_text() == "1 : 2 3"
