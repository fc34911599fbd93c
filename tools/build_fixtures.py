"""Regenerate the frozen fixture files from the deterministic searches.

Run from the repository root after an editable install:

    python3 tools/build_fixtures.py

Each fixture is re-derived (lexicographically least qualifying signing,
least qualifying designated edge), certified, and written to the
package data directory.  Output is stable, so a clean run leaves the
tree unchanged.
"""

from pathlib import Path

from signedwiener.reproduce import derive_special_witness
from signedwiener.witnesses import SPECIAL_TAGS, certify, emit_witness


def main() -> None:
    dest = Path(__file__).resolve().parent.parent / "src" / "signedwiener" \
        / "fixtures"
    dest.mkdir(parents=True, exist_ok=True)
    for tag in SPECIAL_TAGS:
        witness = derive_special_witness(tag)
        cert = certify(witness)
        if not cert.ok:
            raise SystemExit(f"{tag}: derivation failed certification {cert}")
        path = dest / f"{tag}.txt"
        path.write_text(emit_witness(witness))
        print(f"wrote {path} (n={witness.graph.n}, m={witness.graph.m})")


if __name__ == "__main__":
    main()
