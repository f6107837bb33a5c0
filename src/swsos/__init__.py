"""SOS stability certification and Filippov simulation for polynomial
switched systems on semi-algebraic partitions."""

__version__ = "0.1.0"
