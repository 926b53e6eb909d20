//! The LoRa coding chain: bytes ↔ on-air symbol values.
//!
//! Encode pipeline (decode is the exact inverse):
//!
//! ```text
//! payload bytes
//!   └─ append CRC-16                  (crc)
//!   └─ whiten                         (whitening)
//!   └─ split into nibbles, low first
//!   └─ Hamming-encode each nibble     (hamming, CR 4/5..4/8)
//!   └─ pad to a multiple of SF codewords
//!   └─ diagonal interleave per block  (interleave)
//!   └─ Gray-map each SF-bit word      (gray)
//! on-air symbols
//! ```
//!
//! This is the rppo/gr-lora decoder structure (paper §6) re-implemented
//! clean-room; it is exercised end-to-end by every experiment since packet
//! success requires all bits (incl. CRC) to survive demodulation.

mod crc;
pub mod gray;
pub mod hamming;
pub mod interleave;
pub mod whitening;

use crate::params::{CodeRate, SpreadingFactor};
use hamming::DecodeStatus;

/// Why decoding a symbol stream failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Stream length is not a whole number of interleaver blocks.
    BadLength {
        /// Number of symbols provided.
        got: usize,
        /// Required multiple (4 + CR).
        block: usize,
    },
    /// A codeword had an uncorrectable error (detected by parity).
    Fec {
        /// Index of the first bad codeword.
        codeword: usize,
    },
    /// All FEC passed but the payload CRC mismatched.
    Crc,
    /// Stream too short to contain the declared payload plus CRC.
    TooShort,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadLength { got, block } => {
                write!(f, "{got} symbols is not a multiple of block size {block}")
            }
            DecodeError::Fec { codeword } => {
                write!(f, "uncorrectable FEC error at codeword {codeword}")
            }
            DecodeError::Crc => write!(f, "payload CRC mismatch"),
            DecodeError::TooShort => write!(f, "symbol stream too short"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Statistics from a successful (or attempted) decode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Codewords corrected by the FEC.
    pub corrected: usize,
    /// Codewords with detected-but-uncorrectable errors.
    pub detected: usize,
}

/// Symbol-level codec for one `(SF, CR)` configuration.
#[derive(Debug, Clone, Copy)]
pub struct Codec {
    sf: SpreadingFactor,
    cr: CodeRate,
}

impl Codec {
    /// Build a codec.
    pub fn new(sf: SpreadingFactor, cr: CodeRate) -> Self {
        Self { sf, cr }
    }

    /// Number of data symbols a `payload_len`-byte payload occupies.
    pub fn n_symbols(&self, payload_len: usize) -> usize {
        let nibbles = 2 * (payload_len + 2); // payload + CRC16
        let sf = self.sf.value() as usize;
        let blocks = nibbles.div_ceil(sf);
        blocks * self.cr.codeword_bits()
    }

    /// Encode a payload into on-air symbol values.
    pub fn encode(&self, payload: &[u8]) -> Vec<usize> {
        let sf = self.sf.value() as usize;
        let n_sym = self.sf.n_symbols();
        let cw_bits = self.cr.codeword_bits();

        let mut bytes = crc::append_crc(payload);
        whitening::whiten(&mut bytes);

        let mut codewords: Vec<u8> = Vec::with_capacity(bytes.len() * 2);
        for b in bytes {
            codewords.push(hamming::encode_nibble(b & 0x0F, self.cr));
            codewords.push(hamming::encode_nibble(b >> 4, self.cr));
        }
        // Pad to whole interleaver blocks with encoded zero nibbles so the
        // padding also survives the FEC path.
        while !codewords.len().is_multiple_of(sf) {
            codewords.push(hamming::encode_nibble(0, self.cr));
        }

        let mut symbols = Vec::with_capacity((codewords.len() / sf) * cw_bits);
        for block in codewords.chunks(sf) {
            for word in interleave::interleave_block(block, sf, cw_bits) {
                symbols.push(gray::data_to_symbol(word, n_sym));
            }
        }
        symbols
    }

    /// Decode received symbol values back into the payload.
    ///
    /// `payload_len` is the expected payload size in bytes (implicit-header
    /// operation: the length is configured, not transmitted — as in the
    /// paper's fixed 28-byte experiments).
    pub fn decode(
        &self,
        symbols: &[usize],
        payload_len: usize,
    ) -> Result<(Vec<u8>, DecodeStats), DecodeError> {
        let sf = self.sf.value() as usize;
        let n_sym = self.sf.n_symbols();
        let cw_bits = self.cr.codeword_bits();
        if !symbols.len().is_multiple_of(cw_bits) {
            return Err(DecodeError::BadLength {
                got: symbols.len(),
                block: cw_bits,
            });
        }

        let mut stats = DecodeStats::default();
        let mut nibbles: Vec<u8> = Vec::with_capacity(symbols.len() * sf / cw_bits);
        let mut first_bad: Option<usize> = None;
        for (blk, chunk) in symbols.chunks(cw_bits).enumerate() {
            let words: Vec<usize> = chunk
                .iter()
                .map(|&s| gray::symbol_to_data(s % n_sym, n_sym))
                .collect();
            for (row, cw) in interleave::deinterleave_block(&words, sf, cw_bits)
                .into_iter()
                .enumerate()
            {
                let (nib, status) = hamming::decode_codeword(cw, self.cr);
                match status {
                    DecodeStatus::Clean => {}
                    DecodeStatus::Corrected => stats.corrected += 1,
                    DecodeStatus::Detected => {
                        stats.detected += 1;
                        first_bad.get_or_insert(blk * sf + row);
                    }
                }
                nibbles.push(nib);
            }
        }

        let need = 2 * (payload_len + 2);
        if nibbles.len() < need {
            return Err(DecodeError::TooShort);
        }
        let mut bytes: Vec<u8> = nibbles[..need]
            .chunks(2)
            .map(|p| p[0] | (p[1] << 4))
            .collect();
        whitening::whiten(&mut bytes);
        match crc::check_crc(&bytes) {
            Some(payload) => Ok((payload.to_vec(), stats)),
            None => {
                // Prefer reporting the FEC failure when one was seen — it
                // is the root cause the CRC then confirms.
                if let Some(cw) = first_bad {
                    Err(DecodeError::Fec { codeword: cw })
                } else {
                    Err(DecodeError::Crc)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> Codec {
        Codec::new(SpreadingFactor::new(8).unwrap(), CodeRate::Cr45)
    }

    #[test]
    fn roundtrip_paper_payload() {
        let c = codec();
        let payload: Vec<u8> = (0..28).map(|i| (i * 7 + 3) as u8).collect();
        let symbols = c.encode(&payload);
        assert_eq!(symbols.len(), c.n_symbols(28));
        let (out, stats) = c.decode(&symbols, 28).unwrap();
        assert_eq!(out, payload);
        assert_eq!(stats, DecodeStats::default());
    }

    #[test]
    fn roundtrip_all_configurations() {
        for sf in 7..=12u8 {
            for cr in [
                CodeRate::Cr45,
                CodeRate::Cr46,
                CodeRate::Cr47,
                CodeRate::Cr48,
            ] {
                let c = Codec::new(SpreadingFactor::new(sf).unwrap(), cr);
                let payload: Vec<u8> = (0..19).map(|i| (i * 31 + sf as usize) as u8).collect();
                let symbols = c.encode(&payload);
                let (out, _) = c.decode(&symbols, 19).unwrap();
                assert_eq!(out, payload, "sf{sf} {cr:?}");
            }
        }
    }

    #[test]
    fn empty_payload_roundtrip() {
        let c = codec();
        let symbols = c.encode(&[]);
        let (out, _) = c.decode(&symbols, 0).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn paper_symbol_count_sf8_cr45() {
        // 28 B payload + 2 B CRC = 60 nibbles -> 8 blocks of 8 -> 40 symbols.
        assert_eq!(codec().n_symbols(28), 40);
    }

    #[test]
    fn symbol_values_in_range() {
        let c = codec();
        let payload = vec![0xFFu8; 28];
        for s in c.encode(&payload) {
            assert!(s < 256);
        }
    }

    #[test]
    fn cr48_corrects_one_corrupted_symbol() {
        let c = Codec::new(SpreadingFactor::new(8).unwrap(), CodeRate::Cr48);
        let payload: Vec<u8> = (10..38).collect();
        let mut symbols = c.encode(&payload);
        symbols[5] ^= 0xFF; // one fully-corrupted symbol spreads 1 bit/codeword
        let (out, stats) = c.decode(&symbols, 28).unwrap();
        assert_eq!(out, payload);
        assert!(stats.corrected > 0);
    }

    #[test]
    fn cr45_detects_corruption_via_crc_or_fec() {
        let c = codec();
        let payload: Vec<u8> = (10..38).collect();
        let mut symbols = c.encode(&payload);
        symbols[0] ^= 0x01;
        assert!(c.decode(&symbols, 28).is_err());
    }

    #[test]
    fn off_by_one_bin_error_flips_few_bits() {
        // A ±1 bin demodulation error must corrupt exactly one bit of one
        // codeword (Gray + diagonal interleaving), so CR 4/8 recovers it.
        let c = Codec::new(SpreadingFactor::new(8).unwrap(), CodeRate::Cr48);
        let payload: Vec<u8> = (0..28).collect();
        let mut symbols = c.encode(&payload);
        symbols[7] = (symbols[7] + 1) % 256;
        let (out, stats) = c.decode(&symbols, 28).unwrap();
        assert_eq!(out, payload);
        assert_eq!(stats.corrected, 1);
    }

    #[test]
    fn bad_length_rejected() {
        let c = codec();
        let e = c.decode(&[1, 2, 3], 28).unwrap_err();
        assert!(matches!(e, DecodeError::BadLength { got: 3, block: 5 }));
    }

    #[test]
    fn too_short_rejected() {
        let c = codec();
        let symbols = c.encode(&[1, 2, 3]); // short payload
        let e = c.decode(&symbols, 28).unwrap_err();
        assert_eq!(e, DecodeError::TooShort);
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::Crc.to_string().contains("CRC"));
        assert!(DecodeError::Fec { codeword: 4 }.to_string().contains('4'));
    }
}
