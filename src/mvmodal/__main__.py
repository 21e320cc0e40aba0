"""Run the command-line interface: `python -m mvmodal <command> ...`."""

from .cli import run

if __name__ == "__main__":
    run()
