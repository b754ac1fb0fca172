"""Tree-based repair-server baseline (system S7 in DESIGN.md; ref [12]).

An RMTP-like protocol where one repair server per region buffers the
whole session and answers NACKs; used to contrast RRMP's spread-out
buffering with a concentrated hotspot.
"""
