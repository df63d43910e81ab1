#!/usr/bin/env python3
"""Fetch the released member-system outputs and CoNLL-2014 gold annotations.

Downloads into data/:

    data/conll14.gold.m2          official CoNLL-2014 test gold (combined annotators)
    data/conll14.src.txt          source side, materialized from the gold M2
    data/conll14/<system>.txt     best-7 member outputs, 1312 lines each
    data/bea-dev/<system>.txt     best-7 member outputs, 4384 lines each
    data/MANIFEST.sha256          checksums of everything fetched

The member outputs are published in the grammarly/pillars-of-gec repository;
the gold annotations come from the official conll14st-test-data release. Both
hosts must be reachable. If this machine has no network access, clone the
repository elsewhere and copy the files into the layout above by hand; every
consumer (configs/, tests/test_acceptance.py) checks only the layout, not how
it was produced. Repository layouts drift, so each file is tried at several
candidate paths; use --base-url if the repo moved.

Systems (the seven released outputs) and the local slugs used for
filenames:

    chat-llama-2-13b-ft, chat-llama-2-7b-ft, t5-11b, ul2-20b,
    gector-2024, ctc-copy, editscorer
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import io
import sys
import tarfile
import urllib.error
import urllib.request
from pathlib import Path

DEFAULT_BASE = "https://raw.githubusercontent.com/grammarly/pillars-of-gec/main"
CONLL_TARBALL = "https://www.comp.nus.edu.sg/~nlp/conll14st/conll14st-test-data.tar.gz"
GOLD_MEMBER = "conll14st-test-data/noalt/official-2014.combined.m2"

# slug -> names the upstream repo may use for the same system
SYSTEMS = {
    "chat-llama-2-13b-ft": ["chat-llama-2-13b-ft", "Chat-LLaMa-2-13B-FT", "llama13b"],
    "chat-llama-2-7b-ft": ["chat-llama-2-7b-ft", "Chat-LLaMa-2-7B-FT", "llama7b"],
    "t5-11b": ["t5-11b", "T5-11B", "t5xxl"],
    "ul2-20b": ["ul2-20b", "UL2-20B", "ul2"],
    "gector-2024": ["gector-2024", "GECToR-2024", "gector"],
    "ctc-copy": ["ctc-copy", "CTC-Copy", "ctc_copy"],
    "editscorer": ["editscorer", "EditScorer", "edit-scorer"],
}

DATASETS = {
    # dataset dir -> (upstream dataset aliases, expected line count)
    "conll14": (["conll14", "conll2014", "nucle14", "conll-2014"], 1312),
    "bea-dev": (["bea-dev", "bea_dev", "bea2019-dev", "w&i-dev"], 4384),
}

# relative path patterns tried under --base-url, most likely first
PATTERNS = [
    "data/system_preds/{system}/{dataset}.txt",
    "data/system_preds/{system}-{dataset}.txt",
    "data/single_systems/{system}/{dataset}.txt",
    "data/preds/{dataset}/{system}.txt",
    "outputs/{dataset}/{system}.txt",
    "data/{dataset}/{system}.txt",
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def try_get(session: urllib.request.OpenerDirector, url: str) -> bytes | None:
    """The body of a 200 reply to GET ``url``, else None.

    Another status is a candidate path that does not exist, and returns None
    quietly; a connection error or timeout (30 s) also prints the URL and
    the error.
    """
    try:
        with session.open(url, timeout=30) as resp:
            return resp.read() if resp.status == 200 else None
    except urllib.error.HTTPError as err:
        err.close()
        return None
    except (OSError, http.client.HTTPException) as err:
        print(f"  {url}: {err}", file=sys.stderr)
        return None


def fetch_system(session, base: str, slug: str, dataset: str, expected: int) -> bytes | None:
    aliases, _ = DATASETS[dataset]
    for sys_name in SYSTEMS[slug]:
        for ds_name in aliases:
            for pattern in PATTERNS:
                url = f"{base}/{pattern.format(system=sys_name, dataset=ds_name)}"
                data = try_get(session, url)
                if data is None:
                    continue
                n = data.decode("utf-8").rstrip("\n").count("\n") + 1
                if n != expected:
                    print(f"  {url}: {n} lines, expected {expected}; skipping",
                          file=sys.stderr)
                    continue
                print(f"  {slug}/{dataset} <- {url}")
                return data
    return None


def fetch_gold(session) -> bytes | None:
    blob = try_get(session, CONLL_TARBALL)
    if blob is None:
        return None
    with tarfile.open(fileobj=io.BytesIO(blob), mode="r:gz") as tar:
        member = tar.getmember(GOLD_MEMBER)
        fh = tar.extractfile(member)
        assert fh is not None
        return fh.read()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base-url", default=DEFAULT_BASE,
                        help="raw content root of the outputs repository")
    parser.add_argument("--data-dir", default=Path(__file__).resolve().parent.parent / "data",
                        type=Path)
    parser.add_argument("--skip-bea", action="store_true",
                        help="fetch only the CoNLL-2014 files")
    args = parser.parse_args(argv)

    data_dir: Path = args.data_dir
    data_dir.mkdir(parents=True, exist_ok=True)
    session = urllib.request.build_opener()
    checksums: list[tuple[str, str]] = []
    missing: list[str] = []

    gold_path = data_dir / "conll14.gold.m2"
    if gold_path.exists():
        print(f"  gold already present: {gold_path}")
    else:
        gold = fetch_gold(session)
        if gold is None:
            missing.append(str(gold_path))
        else:
            gold_path.write_bytes(gold)
    if gold_path.exists():
        checksums.append((sha256(gold_path.read_bytes()), gold_path.name))
        # materialize the source side for CLI invocations that want a --src file
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        from geckit.corpus import load_m2, save_parallel

        sentences = [g.source for g in load_m2(gold_path)]
        src_path = data_dir / "conll14.src.txt"
        save_parallel(src_path, sentences)
        checksums.append((sha256(src_path.read_bytes()), src_path.name))
        print(f"  wrote {src_path} ({len(sentences)} sentences)")

    datasets = ["conll14"] if args.skip_bea else list(DATASETS)
    for dataset in datasets:
        _, expected = DATASETS[dataset]
        out_dir = data_dir / dataset
        out_dir.mkdir(exist_ok=True)
        for slug in SYSTEMS:
            target = out_dir / f"{slug}.txt"
            if target.exists():
                print(f"  already present: {target}")
            else:
                data = fetch_system(session, args.base_url.rstrip("/"), slug,
                                    dataset, expected)
                if data is None:
                    missing.append(str(target))
                    continue
                target.write_bytes(data)
            checksums.append((sha256(target.read_bytes()),
                              f"{dataset}/{slug}.txt"))

    manifest = data_dir / "MANIFEST.sha256"
    manifest.write_text(
        "".join(f"{digest}  {name}\n" for digest, name in checksums),
        encoding="utf-8",
    )
    print(f"wrote {manifest} ({len(checksums)} entries)")
    if missing:
        print("\nNOT FETCHED (place these by hand, see the module docstring):",
              file=sys.stderr)
        for path in missing:
            print(f"  {path}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
