"""python -m pelab: the pelab command line, which imports pelab.cli once."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
