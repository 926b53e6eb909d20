//! CRC-16 over the PHY payload.
//!
//! LoRa appends a 16-bit CRC to uplink payloads; the receiver counts a
//! packet as delivered only if every payload bit is correct (paper §7.1
//! measures throughput in fully-correct packets). We use CRC-16/CCITT
//! (poly 0x1021), the polynomial the LoRa PHY uses.

/// Polynomial for CRC-16/CCITT.
const POLY: u16 = 0x1021;

/// Compute the CRC-16 of `data` (init 0x0000, no reflection, no final XOR).
pub(crate) fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0x0000;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ POLY;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

/// Append the CRC (big-endian) to a payload.
pub(crate) fn append_crc(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 2);
    out.extend_from_slice(payload);
    let c = crc16(payload);
    out.push((c >> 8) as u8);
    out.push((c & 0xff) as u8);
    out
}

/// Split a CRC-suffixed buffer and verify it. Returns the payload slice on
/// success, `None` when the buffer is too short or the CRC mismatches.
pub(crate) fn check_crc(buf: &[u8]) -> Option<&[u8]> {
    if buf.len() < 2 {
        return None;
    }
    let (payload, tail) = buf.split_at(buf.len() - 2);
    let expect = ((tail[0] as u16) << 8) | tail[1] as u16;
    if crc16(payload) == expect {
        Some(payload)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector_123456789() {
        // CRC-16/XMODEM ("123456789") = 0x31C3 — same poly/init/xor as ours.
        assert_eq!(crc16(b"123456789"), 0x31C3);
    }

    #[test]
    fn empty_payload() {
        assert_eq!(crc16(&[]), 0x0000);
        let buf = append_crc(&[]);
        assert_eq!(check_crc(&buf), Some(&[][..]));
    }

    #[test]
    fn roundtrip() {
        let payload = b"hello lora world";
        let buf = append_crc(payload);
        assert_eq!(check_crc(&buf), Some(&payload[..]));
    }

    #[test]
    fn detects_single_bit_flip_anywhere() {
        let payload: Vec<u8> = (0..28).collect();
        let buf = append_crc(&payload);
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                assert!(check_crc(&bad).is_none(), "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn too_short_rejected() {
        assert!(check_crc(&[0x42]).is_none());
        assert!(check_crc(&[]).is_none());
    }
}
