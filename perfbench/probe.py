"""Set-up of a fresh process: import ``lb2p`` and verify the gadget
contracts the reductions rely on (verification runs once per process).

Run as a script, it prints its own set-up seconds; ``src`` must be on
PYTHONPATH.
"""

from __future__ import annotations

from time import perf_counter


def import_lb2p():
    import lb2p.cli

    return lb2p.cli


def verify_gadgets() -> None:
    from lb2p import gadgets

    for build in (gadgets.gadget_f1, gadgets.gadget_forcing, gadgets.gadget_f4):
        gadgets.ensure_verified(build())


if __name__ == "__main__":
    start = perf_counter()
    import_lb2p()
    verify_gadgets()
    print(perf_counter() - start)
