"""CRC-16 for the 802.15.4 frame check sequence.

The standard specifies the ITU-T CRC-16 with generator
``x^16 + x^12 + x^5 + 1`` (0x1021), initial value 0, processing each octet
least-significant bit first, and transmitting the FCS low byte first.
This is the "KERMIT"-style reflected CRC.
"""


def _table():
    """CRC of each single byte: one reflected 0x8408 step per bit."""
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0x8408 if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


#: ``_TABLE[i]`` shifts the low byte ``i`` out of the register.
_TABLE = _table()


def crc16_itut(data, initial=0x0000):
    """Compute the 802.15.4 FCS over ``data`` (bytes-like)."""
    crc = initial
    table = _TABLE
    for byte in bytes(data):
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc & 0xFFFF


def append_fcs(data):
    """Return ``data`` with its 2-byte FCS appended (low byte first)."""
    crc = crc16_itut(data)
    return bytes(data) + bytes((crc & 0xFF, crc >> 8))


def check_fcs(frame):
    """True iff the trailing 2 bytes of ``frame`` are a valid FCS.

    Frames shorter than the FCS itself are invalid by definition.
    """
    frame = bytes(frame)
    if len(frame) < 2:
        return False
    body, fcs = frame[:-2], frame[-2:]
    expected = crc16_itut(body)
    return fcs == bytes((expected & 0xFF, expected >> 8))
