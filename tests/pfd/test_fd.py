"""Tests for functional dependencies and embedded FDs."""

import pytest

from repro.errors import ConstraintError
from repro.pfd.fd import EmbeddedFD, FunctionalDependency


class TestFunctionalDependency:
    def test_of_accepts_strings_and_iterables(self):
        fd = FunctionalDependency.of("zip", "city")
        assert fd.lhs == ("zip",)
        assert fd.rhs == ("city",)
        fd2 = FunctionalDependency.of(["zip", "city"], ["state"])
        assert fd2.lhs == ("zip", "city")

    def test_empty_sides_rejected(self):
        with pytest.raises(ConstraintError):
            FunctionalDependency((), ("city",))
        with pytest.raises(ConstraintError):
            FunctionalDependency(("zip",), ())

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ConstraintError):
            FunctionalDependency.of("zip", "zip")

    def test_attributes_and_str(self):
        fd = FunctionalDependency.of(["a", "b"], "c")
        assert fd.attributes == ("a", "b", "c")
        assert str(fd) == "a, b -> c"


class TestEmbeddedFD:
    def test_between(self):
        fd = EmbeddedFD.between("zip", "city")
        assert fd.lhs_attribute == "zip"
        assert fd.rhs_attribute == "city"

    def test_rejects_multi_attribute_sides(self):
        with pytest.raises(ConstraintError):
            EmbeddedFD(("a", "b"), ("c",))
        with pytest.raises(ConstraintError):
            EmbeddedFD(("a",), ("b", "c"))

    def test_is_a_functional_dependency(self):
        assert isinstance(EmbeddedFD.between("zip", "state"), FunctionalDependency)
