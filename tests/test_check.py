"""Every numeric field of the four specs goes through the one field checker."""

import dataclasses
import math

import pytest

from fishgrad import data as dio
from fishgrad import models as mz
from fishgrad import search as sr
from fishgrad import training as tr

SPECS = [tr.TrainConfig(), mz.ModelSpec("mlp", input_dim=4, hidden=(8,)),
         dio.SyntheticSpec("gaussian_blobs", n=10), sr.GridSpec()]


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: type(spec).__name__)
def test_every_numeric_field_names_itself_when_bad(spec):
    """A bool, a string, NaN or inf, in an int or float field or in any
    element of a tuple of numbers, raises a ValueError naming the field; so
    does a fraction where an integer belongs. A numeric field added without
    the rule fails here."""
    checked = 0
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if f.type in ("int", "float"):
            slots = [None]
        elif f.type.startswith("tuple[") and ("int" in f.type or "float" in f.type):
            slots = range(len(value))
        else:
            continue
        for bad in (True, "x", math.nan, math.inf, *[2.5] * ("int" in f.type)):
            for i in slots:
                new = bad if i is None else value[:i] + (bad,) + value[i + 1:]
                with pytest.raises(ValueError, match=f.name.replace("_", "[_ ]")):
                    dataclasses.replace(spec, **{f.name: new})
                checked += 1
    assert checked
