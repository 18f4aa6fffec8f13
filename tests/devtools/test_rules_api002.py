"""API002: the facade's flat keyword surface is frozen."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.lint.engine import lint_source
from repro.devtools.lint.rules import ApiFlatKwargGrowthRule


def findings(source: str, module: str = "repro.api") -> list[str]:
    diags, _ = lint_source(source, module=module, rules=[ApiFlatKwargGrowthRule()])
    return [d.rule for d in diags]


FROZEN_SESSION = """
class Session:
    def __init__(self, *, scale=300.0, seed=2021, config=None, options=None,
                 reboot_threshold=None, skip=frozenset(), store=None,
                 topology=None):
        pass

    def run_campaign(self, *, round_id=None, options=None):
        pass
"""


def test_grandfathered_surface_is_clean():
    assert findings(FROZEN_SESSION) == []


def test_new_flat_kwarg_on_init_is_flagged():
    grown = FROZEN_SESSION.replace("topology=None):", "topology=None, turbo=False):")
    assert findings(grown) == ["API002"]


def test_readding_a_retired_flat_alias_is_flagged():
    grown = FROZEN_SESSION.replace("options=None,\n", "options=None, workers=None,\n", 1)
    assert grown != FROZEN_SESSION
    assert findings(grown) == ["API002"]


def test_new_flat_kwarg_on_run_campaign_is_flagged():
    grown = FROZEN_SESSION.replace(
        "round_id=None, options=None):", "round_id=None, options=None, window=None):"
    )
    assert findings(grown) == ["API002"]


def test_positional_growth_is_flagged_too():
    grown = FROZEN_SESSION.replace(
        "def run_campaign(self, *,", "def run_campaign(self, turbo,"
    )
    assert findings(grown) == ["API002"]


def test_other_modules_and_methods_are_out_of_scope():
    assert findings(FROZEN_SESSION, module="repro.scanner.campaign") == []
    helper = "class Session:\n    def helper(self, anything, at_all=None):\n        pass\n"
    assert findings(helper) == []


def test_real_facade_is_clean():
    root = Path(__file__).resolve().parents[2] / "src" / "repro"
    source = (root / "api.py").read_text(encoding="utf-8")
    assert findings(source) == []
