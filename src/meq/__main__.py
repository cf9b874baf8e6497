"""``python -m meq``: the ``meq`` command without an installed entry point."""
from .cli import main

main()
