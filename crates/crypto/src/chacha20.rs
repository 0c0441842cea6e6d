//! ChaCha20 stream cipher (RFC 8439), used for mandatory block-level
//! encryption of archive data on the data-owner side (§III-A).

use dsaudit_algebra::par::join;

/// Fewest bytes [`ChaCha20::apply_keystream`] splits across two
/// threads. Below it a thread would cost more than the half it takes,
/// so short buffers (the simulator's sub-KiB files) run in one pass.
pub const PAR_MIN_BYTES: usize = 1 << 16;

/// ChaCha20 cipher instance bound to a key and nonce.
#[derive(Clone, Debug)]
pub struct ChaCha20 {
    key: [u8; 32],
    nonce: [u8; 12],
}

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn chacha_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes([
            key[i * 4],
            key[i * 4 + 1],
            key[i * 4 + 2],
            key[i * 4 + 3],
        ]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[i * 4],
            nonce[i * 4 + 1],
            nonce[i * 4 + 2],
            nonce[i * 4 + 3],
        ]);
    }
    let mut working = state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let v = working[i].wrapping_add(state[i]);
        out[i * 4..(i + 1) * 4].copy_from_slice(&v.to_le_bytes());
    }
    out
}

impl ChaCha20 {
    /// Creates a cipher for the given key and nonce.
    pub fn new(key: [u8; 32], nonce: [u8; 12]) -> Self {
        Self { key, nonce }
    }

    /// Encrypts or decrypts in place (XOR keystream), starting at block
    /// `initial_counter`.
    ///
    /// From [`PAR_MIN_BYTES`] up the buffer splits once, at a 64-byte
    /// block boundary, into two counter ranges that run under
    /// [`join`]; the second starts at the block the first ends before.
    /// Every byte is XORed with the keystream block it would meet in one
    /// serial pass, so the output is the same on any number of CPUs.
    pub fn apply_keystream(&self, initial_counter: u32, data: &mut [u8]) {
        if data.len() < PAR_MIN_BYTES {
            self.apply_blocks(initial_counter, data);
        } else {
            let head_blocks = data.len().div_ceil(64) / 2;
            let (head, tail) = data.split_at_mut(64 * head_blocks);
            join(
                || self.apply_blocks(initial_counter, head),
                || self.apply_blocks(initial_counter.wrapping_add(head_blocks as u32), tail),
            );
        }
    }

    /// The serial keystream pass over `data`, block `j` at counter
    /// `initial_counter + j` (wrapping).
    fn apply_blocks(&self, initial_counter: u32, data: &mut [u8]) {
        for (block_idx, chunk) in data.chunks_mut(64).enumerate() {
            let ks = chacha_block(
                &self.key,
                initial_counter.wrapping_add(block_idx as u32),
                &self.nonce,
            );
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    /// Convenience: encrypt a buffer (counter starts at 1, per RFC 8439
    /// AEAD convention where block 0 is reserved).
    pub fn encrypt(&self, data: &mut [u8]) {
        self.apply_keystream(1, data);
    }

    /// Convenience: decrypt a buffer (same as encrypt — XOR is symmetric).
    pub fn decrypt(&self, data: &mut [u8]) {
        self.apply_keystream(1, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc8439_block_test_vector() {
        // RFC 8439 §2.3.2
        let mut key = [0u8; 32];
        for (i, k) in key.iter_mut().enumerate() {
            *k = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha_block(&key, 1, &nonce);
        assert_eq!(
            hex(&block[..16]),
            "10f1e7e4d13b5915500fdd1fa32071c4"
        );
        assert_eq!(
            hex(&block[48..]),
            "b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_test_vector() {
        // RFC 8439 §2.4.2
        let mut key = [0u8; 32];
        for (i, k) in key.iter_mut().enumerate() {
            *k = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        ChaCha20::new(key, nonce).apply_keystream(1, &mut data);
        assert_eq!(
            hex(&data[..16]),
            "6e2e359a2568f98041ba0728dd0d6981"
        );
        assert_eq!(hex(&data[112..114]), "874d");
    }

    /// The split keystream equals a block-by-block pass just below,
    /// at and well above the split floor, from counter 0, from 1 (the
    /// `encrypt` start) and from `u32::MAX - 3`, whose stream wraps, so
    /// the second half starts at a wrapped counter.
    #[test]
    fn split_keystream_matches_block_by_block() {
        let (key, nonce) = ([0x42u8; 32], [0x17u8; 12]);
        let cipher = ChaCha20::new(key, nonce);
        for len in [PAR_MIN_BYTES - 1, PAR_MIN_BYTES, (1 << 20) + 37] {
            let plain: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            for counter in [0, 1, u32::MAX - 3] {
                let mut expect = plain.clone();
                for (j, block) in expect.chunks_mut(64).enumerate() {
                    let ks = chacha_block(&key, counter.wrapping_add(j as u32), &nonce);
                    for (b, k) in block.iter_mut().zip(ks) {
                        *b ^= k;
                    }
                }
                let mut got = plain.clone();
                cipher.apply_keystream(counter, &mut got);
                assert!(got == expect, "len {len}, counter {counter}");
            }
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let cipher = ChaCha20::new([7u8; 32], [3u8; 12]);
        let original = vec![0x5au8; 1000];
        let mut data = original.clone();
        cipher.encrypt(&mut data);
        assert_ne!(data, original);
        cipher.decrypt(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_nonces_differ() {
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ChaCha20::new([1u8; 32], [0u8; 12]).encrypt(&mut a);
        ChaCha20::new([1u8; 32], [1u8; 12]).encrypt(&mut b);
        assert_ne!(a, b);
    }
}
