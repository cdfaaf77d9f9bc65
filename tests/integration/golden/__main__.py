"""``python -m tests.integration.golden``: rewrite every pin, print what moved."""

import time

from tests.integration.golden import SECTIONS, regenerate

if __name__ == "__main__":
    for section in SECTIONS:
        started = time.perf_counter()
        lines = regenerate(section)
        print(
            f"{section.name}: {len(lines)} moved field(s) "
            f"({time.perf_counter() - started:.1f} s)"
        )
        for line in lines:
            print(f"  {line}")
