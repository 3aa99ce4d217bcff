"""One queue worker under a chaos plan.

``python -m tests.chaos PLAN_FILE [sweep-worker options]`` installs the
plan :func:`tests.chaos.injecting` filed, then runs ``bgl-sim
sweep-worker`` with the remaining arguments in the same process.
"""

import sys

from repro.cli import main
from tests.chaos import install, load_plan

if __name__ == "__main__":
    install(load_plan(sys.argv[1]))
    sys.exit(main(["sweep-worker", *sys.argv[2:]]))
