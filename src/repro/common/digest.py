"""Incremental control-flow digests (Section 4.3).

The server's runtime maintains, per request, an incremental digest updated at
every branch with the branch kind and the location jumped to.  The digest
value is the opaque *control-flow tag* reported in the groupings ``C``.

We use 64-bit FNV-1a.  The digest only needs to be a deterministic,
well-distributed fingerprint of the branch sequence; it is untrusted input to
the verifier either way (a wrong tag merely mis-groups requests, which the
verifier detects via divergence or an output mismatch).
"""

from __future__ import annotations

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


_KIND_BASES: dict = {}


def _kind_base(kind: str) -> int:
    """One-time FNV hash of the branch-kind string, cached."""
    base = _KIND_BASES.get(kind)
    if base is None:
        base = _FNV_OFFSET
        for byte in kind.encode("ascii"):
            base = ((base ^ byte) * _FNV_PRIME) & _MASK
        _KIND_BASES[kind] = base
    return base


def branch_mix(kind: str, target: int) -> int:
    """What :meth:`FlowDigest.update` xors into the digest for one branch
    arm.  It depends on the arm alone, so the compiled engine binds it
    per arm at compile time and does the xor-multiply-mask in line."""
    return _kind_base(kind) + target


class FlowDigest:
    """Running digest over (branch-kind, target) updates.

    The per-update step is a single multiply-xor mix: the server pays it
    on *every branch* of *every request* (Figure 8's "server CPU overhead"
    column), which is why the engine it runs does the same step in line
    (:func:`branch_mix`) and this class is the reference the oracle and
    the tests use.  Collision behaviour only affects grouping quality,
    never audit correctness: the tag is untrusted input either way (§3.1).
    """

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = _FNV_OFFSET

    def update(self, kind: str, target: int) -> None:
        """Fold one branch event into the digest.

        ``kind`` identifies the branch construct (e.g. ``"if"``, ``"loop"``,
        ``"tern"``, ``"sc"``) and ``target`` the location jumped to (AST
        node id plus taken arm).
        """
        self._value = (
            (self._value ^ branch_mix(kind, target)) * _FNV_PRIME
        ) & _MASK

    def update_str(self, token: str) -> None:
        """Fold an arbitrary string token (used for script names)."""
        value = self._value
        for byte in token.encode():
            value = ((value ^ byte) * _FNV_PRIME) & _MASK
        self._value = value

    @property
    def value(self) -> int:
        return self._value

    def hexdigest(self) -> str:
        return f"{self._value:016x}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowDigest({self.hexdigest()})"


def fnv1a(data: bytes) -> int:
    """One-shot 64-bit FNV-1a over ``data`` (used by tests and tools)."""
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & _MASK
    return value
