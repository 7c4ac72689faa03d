import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout, measured before chart rays were traced in
# chamber frames
DEMOS = [
    ("01_tessellation_basics.py", "62e77d10ec5d29d190f9c0af5ff07596394d147b9c8a168207fee6d9545e04ec"),
    ("02_links_and_buildings.py", "42f05cd9a85c5ef6d03b2f4f35db0f1b90948077cc9332f96d74d8f17ec255f5"),
    ("03_exact_distances.py", "faeae19f0632c2ba1f6487d443d12013369605eea99c05b6ae6d5e1ceec3b499"),
    ("04_boundary_cross_ratios.py", "9beb9c1eb4e4b6100be80f47b8d940d12dd74e530c51968fa86953bf1abc344a"),
    ("05_catalog.py", "b7548ba70a156bfd1c1a23df016d1737a8a9c735f5fbe24c328e6eaeb4d2126f"),
]


@pytest.mark.parametrize("name,digest", DEMOS)
def test_demo_output_pinned(name, digest):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
