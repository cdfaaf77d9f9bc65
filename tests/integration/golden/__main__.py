"""``python -m tests.integration.golden``: re-record outcomes.json."""

from tests.integration.golden import GOLDEN_PATH, SCENARIOS, render, run_scenario

if __name__ == "__main__":
    GOLDEN_PATH.write_text(render({name: run_scenario(name) for name in SCENARIOS}))
    print(f"recorded {len(SCENARIOS)} scenarios -> {GOLDEN_PATH}")
