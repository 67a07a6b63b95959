"""A fixed task that measures how fast the machine is running right now.

The benchmark runs this file in a fresh interpreter between its samples. It
uses the standard library only, never the program under test, so its time
depends on the machine alone: a change to the program cannot move it. The
work is of the program's kind: text split into fields, floats parsed, dicts
and lists built, sorted and serialized to JSON and back.
"""

import json
import random

ROWS = 8_000
VALUES = 12

rng = random.Random(7)
rows = [(f"f_{i}", f"factor {i}", [rng.random() for _ in range(VALUES)]) for i in range(ROWS)]
text = "\n".join(",".join([fid, name, *(f"{x:.6f}" for x in values)]) for fid, name, values in rows)
parsed = {fields[0]: [float(x) for x in fields[2:]] for fields in (line.split(",") for line in text.splitlines())}
encoded = json.dumps({fid: sorted(values) for fid, values in parsed.items()})
assert len(json.loads(encoded)) == ROWS
