"""Flat key=value config files and reproducibility manifests."""

from __future__ import annotations

import hashlib
import json
import sys


class ConfigError(ValueError):
    """Malformed config file or value."""


def read_kv_config(path) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def parse_overrides(pairs: list[str]) -> dict[str, str]:
    out = {}
    for p in pairs:
        if "=" not in p:
            raise ConfigError(f"--set expects key=value, got {p!r}")
        k, v = p.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(path, command: str, config: dict, seed: int | None) -> None:
    """Record everything needed to reproduce the run byte-for-byte.

    Deliberately excludes wall-clock timestamps so re-running an identical
    command yields an identical manifest.
    """
    import numpy

    from . import __version__

    manifest = {
        "command": command,
        "config": config,
        "config_sha256": config_hash(config),
        "seed": seed,
        "versions": {
            "newsmkl": __version__,
            "numpy": numpy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
