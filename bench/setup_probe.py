"""The fixed cost every symmpow CLI call pays before solving anything.

    python3 bench/setup_probe.py DOC.json [DOC.json ...]

Imports symmpow, then for each document parses it and builds the group
with its scalar center and coset transversal.  The caller times the whole
process, interpreter start included.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from symmpow import build_group  # noqa: E402
from symmpow.cli import parse_problem  # noqa: E402

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        doc = parse_problem(json.load(fh))
    build_group(doc.generators)
