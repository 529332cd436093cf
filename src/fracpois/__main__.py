"""``python -m fracpois``: the command-line front end (see fracpois.cli)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
