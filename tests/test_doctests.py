"""Run the docstring examples of every skeinlab module."""

import doctest
import importlib
import pkgutil

import pytest

import skeinlab

MODULES = ["skeinlab"] + [
    f"skeinlab.{m.name}" for m in pkgutil.iter_modules(skeinlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_algebra_examples_run():
    assert doctest.testmod(importlib.import_module("skeinlab.algebra")).attempted >= 6
