"""The repo benchmark (see bench/README.md); a package so its tests can import it."""
