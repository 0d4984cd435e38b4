"""``python -m tdt`` and the installed ``tdt`` command: run tdt.cli as the main
program, which loads only what the subcommand runs (importing it loads all)."""

import runpy


def main() -> None:
    runpy.run_module("tdt.cli", run_name="__main__")


if __name__ == "__main__":
    main()
