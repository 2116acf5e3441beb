"""Visual-grounding attention supervision: mining, maps, metrics, training."""

__version__ = "0.1.0"
