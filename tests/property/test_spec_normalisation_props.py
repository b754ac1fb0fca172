"""Property: a spec node stores a value the way its annotation says.

A float field spelled as an int makes the same spec — equal, with an
equal ``hash()`` and ``digest()`` — and the JSON round trip gives that
spec back.  Drawn over every float field of every node of
:class:`ScenarioSpec`, on top of the fuzzer's valid specs.
"""

from dataclasses import fields, is_dataclass, replace
from typing import Optional, get_type_hints

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.scenario.spec import ScenarioSpec
from repro.validate.fuzz import sample_spec

NODES = {name: hint for name, hint in get_type_hints(ScenarioSpec).items()
         if is_dataclass(hint)}
FLOAT_FIELDS = sorted(
    (node, spec_field.name)
    for node, node_class in NODES.items()
    for spec_field in fields(node_class)
    if get_type_hints(node_class)[spec_field.name] in (float, Optional[float])
)


def _with(spec: ScenarioSpec, node: str, name: str, value) -> ScenarioSpec:
    return replace(spec, **{node: replace(getattr(spec, node), **{name: value})})


class TestFloatFieldsSpelledAsInts:
    def test_every_node_has_a_float_field_drawn(self):
        assert {node for node, _name in FLOAT_FIELDS} == set(NODES)

    @given(
        base=st.builds(sample_spec, st.integers(0, 3), st.integers(0, 200)),
        target=st.sampled_from(FLOAT_FIELDS),
        value=st.one_of(st.integers(0, 1), st.integers(2, 3_000)),
    )
    @settings(max_examples=300, deadline=None)
    def test_int_spelling_is_the_same_spec(self, base, target, value):
        node, name = target
        try:
            as_float = _with(base, node, name, float(value))
        except ValueError:
            assume(False)
        as_int = _with(base, node, name, value)
        assert type(getattr(getattr(as_int, node), name)) is float
        assert as_int == as_float
        assert hash(as_int) == hash(as_float)
        assert as_int.digest() == as_float.digest()
        restored = ScenarioSpec.from_json(as_int.to_json())
        assert restored == as_int
        assert restored.digest() == as_int.digest()
