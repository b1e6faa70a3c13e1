"""Reading and editing stored records in tests: one line of JSON, a newline, then the raw bytes of one array."""

import json
import pathlib


def record(path, edit=None) -> dict:
    """The JSON header of the record at path; given edit, the record is first rewritten with its header mapped through edit and its array bytes kept."""
    path = pathlib.Path(path)
    line, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    if edit is not None:
        header = edit(header)
        path.write_bytes(json.dumps(header, separators=(",", ":")).encode() + b"\n" + body)
    return header
