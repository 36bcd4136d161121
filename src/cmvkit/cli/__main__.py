"""``python -m cmvkit.cli``: the ``cmv`` command."""

from . import main

if __name__ == "__main__":      # not when imported, e.g. by pkgutil.walk_packages
    raise SystemExit(main())
