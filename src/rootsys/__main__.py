"""``python -m rootsys``: the same command line as the ``rootsys`` script."""

from .cli import run

run()
