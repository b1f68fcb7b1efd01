"""The exception every layer raises when a computed result fails its own check."""


class CertificationError(RuntimeError):
    """A result failed one of the checks that make it a certificate."""
