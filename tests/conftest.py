import pytest
from hypothesis import settings

# `pytest --hypothesis-profile=thorough` runs every property test that does
# not fix its own example count with 20 times the default
settings.register_profile("thorough", max_examples=20 * settings.default.max_examples)

# the row-wise comparisons of tests/test_io.py join the `thorough` marker
# here, by name, so that the reader's own tests carry no run settings
_THOROUGH_IO = {"test_well_formed_tables_match_row_wise", "test_mutated_files_match_row_wise",
                "test_replicate_groups_keep_first_appearance_order",
                "test_fast_read_is_float_per_cell"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.module.__name__ == "test_io" and item.originalname in _THOROUGH_IO:
            item.add_marker(pytest.mark.thorough)
