"""`python -m vpgbend`: the same command line as the `vpgbend` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
