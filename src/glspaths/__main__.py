"""``python -m glspaths``: the command-line front end of ``glspaths.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
