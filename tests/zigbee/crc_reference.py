"""The bit-serial ITU-T CRC-16, the oracle of the table-driven one.

One reflected 0x8408 shift per bit, each octet least-significant bit
first: the definition :func:`repro.zigbee.crc.crc16_itut` computes a
byte at a time.
"""


def crc16_itut_bitwise(data, initial=0x0000):
    """The 802.15.4 FCS over ``data`` (bytes-like), one bit at a time."""
    crc = initial
    for byte in bytes(data):
        crc ^= byte
        for _ in range(8):
            if crc & 0x0001:
                crc = (crc >> 1) ^ 0x8408  # 0x1021 bit-reflected
            else:
                crc >>= 1
    return crc & 0xFFFF
