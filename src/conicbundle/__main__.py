"""`python -m conicbundle` and the `conicbundle` command: both run
conicbundle.cli as __main__, which imports only its subcommand's layers."""

import runpy


def main():
    runpy.run_module("conicbundle.cli", run_name="__main__")


if __name__ == "__main__":
    main()
