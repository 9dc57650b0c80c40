"""The one JSON rule for report dataclasses."""
from dataclasses import fields


def fields_json(report) -> dict:
    """A report dataclass as JSON data: its fields in declaration order.

    A nested report gives its own ``to_json_dict``, tuples and lists
    become lists, dicts are copied, and any other value is kept as it is.
    A report class takes this as its method: ``to_json_dict = fields_json``.
    """
    return {f.name: _json_value(getattr(report, f.name))
            for f in fields(report)}


def _json_value(value):
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, (tuple, list)):
        return [_json_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    return value
