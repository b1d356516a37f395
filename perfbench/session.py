"""Set up the sessions of a workload, then exit.

    python3 perfbench/session.py SPEC.json

SPEC is a list of [group file, p, m].  For each entry this imports the
program and builds what every CLI command builds before it computes:
the group (``group_from_json``), the field (``field_create``), the group
algebra and its module registry.  ``run.py`` times this process from start
to exit as ``setup_s``.
"""

import json
import sys

from tautilt import GroupAlgebra, ModuleRegistry, field_create, group_from_json


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    for group_path, p, m in spec:
        with open(group_path) as fh:
            group = group_from_json(json.load(fh))
        ModuleRegistry(GroupAlgebra(group, field_create(p, m)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
