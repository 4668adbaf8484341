"""Each library decider has one route; the second route lives in a law.

Breaking the library route, as the law module sees it, must turn the
covering law from holds to violated on the pinned Z/6, S={1,4} instance.
"""
import dataclasses

import pytest

from usmod import laws
from usmod.caps import DEFAULT_CAPS
from usmod.corpus import Instance, build_instance
from usmod.modules import Submodule

PINNED = Instance(("zmod", 6), ("closure", (4,)), ("regular",), (2,), 0, (36, 64))


def _zero_torsion(real):
    return lambda module, mset: Submodule(module, (module.zero,))


def _flipped_verdict(real):
    def wrong(*args, **kwargs):
        v = real(*args, **kwargs)
        return dataclasses.replace(v, verdict=not v.verdict)

    return wrong


def _negated(real):
    return lambda *args, **kwargs: not real(*args, **kwargs)


@pytest.mark.parametrize(
    "route, law_id, breaker",
    [
        ("s_torsion_submodule", "sigma-shortcut", _zero_torsion),
        ("is_essential", "essential-element-criterion", _flipped_verdict),
        ("endomorphism_condition", "envelope-essential-image", _negated),
        ("endomorphism_condition", "running-example-envelope", _negated),
    ],
)
def test_breaking_the_route_violates_its_law(monkeypatch, route, law_id, breaker):
    law = laws.LAWS_BY_ID[law_id]
    built = build_instance(PINNED)
    assert law.fn(built, DEFAULT_CAPS)[0] == laws.HOLDS
    monkeypatch.setattr(laws, route, breaker(getattr(laws, route)))
    assert law.fn(built, DEFAULT_CAPS)[0] == laws.VIOLATED
