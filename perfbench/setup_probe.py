"""Time a fresh process's set-up: ``import ggt`` and parsing the inputs.

Usage: python3 setup_probe.py <src dir> <payload.json>

The payload holds graph texts and element texts (each naming its graph).
Prints the seconds from before the import to after the last parse, and
then the median time of the reference task in this process.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def main():
    src, payload_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import ggt
    with open(payload_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    graphs = {}
    for name, text in payload["graphs"]:
        graphs[name] = ggt.parse_graph(text, name=name)
    for name, text in payload["elements"]:
        ggt.parse_element_text(graphs[name], text)
    setup_s = time.perf_counter() - START
    from reference import timed_reference
    reference_s = statistics.median(timed_reference() for _ in range(7))
    print(json.dumps({"setup_s": setup_s, "reference_s": reference_s}))


if __name__ == "__main__":
    main()
