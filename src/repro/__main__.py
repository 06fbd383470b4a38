"""``python -m repro`` — see :mod:`repro.cli`."""

import sys

from repro.cli import run_process

sys.exit(run_process())
