"""``python -m singext``: the command-line interface of ``singext.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
