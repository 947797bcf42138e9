from . import report  # noqa: F401  before cli: argparse compiled first raises peak RSS by about 0.2 MiB
from .cli import run

raise SystemExit(run())
