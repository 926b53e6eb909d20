//! Gray mapping between data values and on-air symbol values.
//!
//! LoRa Gray-maps data onto symbols so that the most common demodulation
//! error — landing one FFT bin off the true peak — corrupts only a single
//! bit, which the Hamming layer can then correct.

/// Gray-encode a value: adjacent integers map to codes differing in 1 bit.
pub(crate) fn gray_encode(v: usize) -> usize {
    v ^ (v >> 1)
}

/// Inverse of [`gray_encode`]: prefix-XOR of all right shifts.
pub(crate) fn gray_decode(g: usize) -> usize {
    let mut out = 0usize;
    let mut cur = g;
    while cur != 0 {
        out ^= cur;
        cur >>= 1;
    }
    out
}

/// Map a data value to its on-air symbol.
///
/// LoRa applies *Gray indexing* at the transmitter — the on-air symbol is
/// the Gray **decode** of the data word — so that the receiver's Gray
/// **encode** turns a ±1-bin demodulation error into a single data bit.
pub fn data_to_symbol(value: usize, n_symbols: usize) -> usize {
    debug_assert!(value < n_symbols);
    gray_decode(value) % n_symbols
}

/// Map a received symbol back to its data value (Gray encode).
pub fn symbol_to_data(symbol: usize, n_symbols: usize) -> usize {
    debug_assert!(symbol < n_symbols);
    gray_encode(symbol) % n_symbols
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exhaustive_sf8() {
        for v in 0..256 {
            assert_eq!(gray_decode(gray_encode(v)), v);
            assert_eq!(symbol_to_data(data_to_symbol(v, 256), 256), v);
        }
    }

    #[test]
    fn gray_is_bijective_sf8() {
        let mut seen = vec![false; 256];
        for v in 0..256 {
            let g = data_to_symbol(v, 256);
            assert!(!seen[g]);
            seen[g] = true;
        }
    }

    #[test]
    fn adjacent_values_differ_one_bit() {
        for v in 0..255usize {
            let d = gray_encode(v) ^ gray_encode(v + 1);
            assert_eq!(d.count_ones(), 1, "values {v},{}", v + 1);
        }
    }

    #[test]
    fn off_by_one_symbol_error_is_one_bit_of_data() {
        // The property LoRa wants: if the demodulator reads bin s±1 instead
        // of s, the decoded data differs in exactly one bit.
        for s in 0..255usize {
            let a = symbol_to_data(s, 256);
            let b = symbol_to_data(s + 1, 256);
            assert_eq!((a ^ b).count_ones(), 1);
        }
    }

    #[test]
    fn known_small_values() {
        assert_eq!(gray_encode(0), 0);
        assert_eq!(gray_encode(1), 1);
        assert_eq!(gray_encode(2), 3);
        assert_eq!(gray_encode(3), 2);
        assert_eq!(gray_encode(4), 6);
    }
}
