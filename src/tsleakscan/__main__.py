from . import report  # noqa: F401
from .cli import main

raise SystemExit(main())
