"""Every ``float`` field of every config dataclass must be finite.

The fields are found by reflection, so a float setting added later is
covered without a new test.
"""

import math
from dataclasses import fields, replace

import pytest

from hyperrag.alignment import AlignmentConfig
from hyperrag.errors import ConfigurationError
from hyperrag.gate import CrmConfig
from hyperrag.generation import GenConfig
from hyperrag.pipeline import PipelineConfig
from hyperrag.synth import SynthSpec

CONFIGS = [PipelineConfig, CrmConfig, GenConfig, AlignmentConfig, SynthSpec]
# Annotations are strings under ``from __future__ import annotations``.
FLOAT_FIELDS = [(cls, f.name) for cls in CONFIGS for f in fields(cls) if f.type == "float"]


def test_every_config_has_a_float_field_and_its_defaults_validate():
    assert {cls for cls, _ in FLOAT_FIELDS} == set(CONFIGS)
    for cls in CONFIGS:
        cls().validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, name", FLOAT_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS]
)
def test_non_finite_float_field_is_config_error(cls, name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        replace(cls(), **{name: value}).validate()
