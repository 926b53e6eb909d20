//! Payload whitening.
//!
//! LoRa XORs the payload with a pseudo-random sequence so the air waveform
//! has no long runs of identical symbols (which would otherwise produce
//! degenerate interleaver blocks). We generate the sequence with a
//! Galois LFSR over x^8 + x^6 + x^5 + x^4 + 1 seeded with 0xFF — the same
//! construction class Semtech uses; whitening is an involution so any
//! fixed sequence is self-consistent end-to-end.

/// LFSR feedback taps (x^8 + x^6 + x^5 + x^4 + 1).
const TAPS: u8 = 0b0111_0001;
/// LFSR seed.
const SEED: u8 = 0xFF;

/// XOR `data` with the whitening sequence in place. Applying it twice
/// restores the original data.
pub fn whiten(data: &mut [u8]) {
    let mut state = SEED;
    for byte in data.iter_mut() {
        *byte ^= state;
        // Galois LFSR step, one full byte at a time.
        for _ in 0..8 {
            let lsb = state & 1;
            state >>= 1;
            if lsb != 0 {
                state ^= TAPS;
            }
        }
        if state == 0 {
            // Degenerate lock-up cannot happen from a non-zero seed, but
            // guard anyway so whitening never becomes a no-op stream.
            state = SEED;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution() {
        let orig: Vec<u8> = (0..=255).collect();
        let mut buf = orig.clone();
        whiten(&mut buf);
        assert_ne!(buf, orig, "whitening changed nothing");
        whiten(&mut buf);
        assert_eq!(buf, orig);
    }

    #[test]
    fn breaks_runs_of_zeros() {
        let mut buf = vec![0u8; 64];
        whiten(&mut buf);
        // The whitened all-zero payload is the PN sequence itself; it must
        // not contain long runs of equal bytes.
        let max_run = buf
            .windows(2)
            .fold((1usize, 1usize), |(max, cur), w| {
                if w[0] == w[1] {
                    (max.max(cur + 1), cur + 1)
                } else {
                    (max, 1)
                }
            })
            .0;
        assert!(max_run <= 2, "run of {max_run} identical whitened bytes");
    }

    #[test]
    fn sequence_is_deterministic() {
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        whiten(&mut a);
        whiten(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn first_byte_xored_with_seed() {
        let mut w = [0u8];
        whiten(&mut w);
        assert_eq!(w[0], SEED);
    }

    #[test]
    fn period_exceeds_packet_sizes() {
        // The PN sequence over 256 bytes must not repeat with a short
        // period (255 for a maximal 8-bit LFSR).
        let mut w = vec![0u8; 512];
        whiten(&mut w);
        assert_ne!(&w[..64], &w[64..128]);
    }
}
