"""Every test under tests/ fails on a RuntimeWarning: a library call should not warn."""

import pathlib

import pytest

_HERE = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
