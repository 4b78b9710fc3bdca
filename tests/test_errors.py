import inspect
import pickle

import pytest

from labelalign import errors

ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.LabelAlignError)
]
# The attributes of the classes that take more than a message.
ATTRIBUTES = {
    errors.MissingClassError: {"label": 3},
    errors.BadMagicError: {"offset": 4},
    errors.TruncatedPayloadError: {"offset": 9, "expected_size": 17},
    errors.NonFinitePayloadError: {"offset": 25},
}


def test_the_attribute_table_covers_every_class_with_its_own_init():
    assert {cls for cls in ERROR_CLASSES if "__init__" in vars(cls)} == set(ATTRIBUTES)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_survives_pickle(cls):
    attributes = ATTRIBUTES.get(cls, {})
    error = cls(f"{cls.__name__} at the end", *attributes.values())
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == f"{cls.__name__} at the end"
    assert copy.args == error.args
    assert vars(copy) == attributes
