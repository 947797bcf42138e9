from . import report  # noqa: F401
from .cli import run

raise SystemExit(run())
