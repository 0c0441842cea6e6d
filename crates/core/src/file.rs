//! File encoding: bytes -> field-element blocks -> chunks/polynomials
//! (§V-B). A file `F` becomes `n` blocks `m in Z_p`, grouped into
//! `d = ceil(n/s)` chunks; chunk `i` defines the polynomial
//! `M_i(x) = m_{i,0} + m_{i,1} x + ... + m_{i,s-1} x^{s-1}`.

use dsaudit_algebra::field::Field;
use dsaudit_algebra::poly::DensePoly;
use dsaudit_algebra::Fr;

use crate::error::DsAuditError;
use crate::params::{AuditParams, BLOCK_BYTES};

/// A file encoded for auditing: `d` chunks of `s` blocks each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedFile {
    /// Unique on-chain file identifier `name` (sampled from `Z_p`).
    pub name: Fr,
    /// Chunking parameters the file was encoded under.
    pub params: AuditParams,
    /// Original byte length (for exact decode).
    pub byte_len: usize,
    /// Block matrix, chunk-major: `blocks[i][j] = m_{i,j}`; every chunk is
    /// padded to exactly `s` blocks.
    blocks: Vec<Vec<Fr>>,
}

impl EncodedFile {
    /// Encodes raw bytes (already encrypted by the storage layer — the
    /// paper mandates owner-side encryption) into auditable blocks.
    pub fn encode<R: rand::RngCore + ?Sized>(
        rng: &mut R,
        data: &[u8],
        params: AuditParams,
    ) -> Self {
        let name = Fr::random(rng);
        Self::encode_with_name(name, data, params)
    }

    /// Encodes with a caller-chosen `name` (deterministic; used by tests
    /// and by re-encoding during disputes).
    pub fn encode_with_name(name: Fr, data: &[u8], params: AuditParams) -> Self {
        let blocks = (0..Self::chunk_count(data.len(), params))
            .map(|i| Self::encode_chunk(data, i, params))
            .collect();
        Self {
            name,
            params,
            byte_len: data.len(),
            blocks,
        }
    }

    /// The chunk count `d` of a `byte_len`-byte file: `ceil(n / s)` for
    /// `n = max(1, ceil(byte_len / 31))` blocks, so an empty file is one
    /// chunk.
    pub fn chunk_count(byte_len: usize, params: AuditParams) -> usize {
        byte_len.div_ceil(BLOCK_BYTES).max(1).div_ceil(params.s)
    }

    /// Chunk `i` of raw `data`, exactly as [`EncodedFile::encode_with_name`]
    /// stores it: bytes `[i·s·31, (i+1)·s·31)` (clipped to the file)
    /// packed into `s` blocks — what a prover holding only the raw bytes
    /// encodes for each challenged chunk.
    pub fn encode_chunk(data: &[u8], i: usize, params: AuditParams) -> Vec<Fr> {
        let chunk_bytes = params.chunk_bytes();
        let lo = i.saturating_mul(chunk_bytes).min(data.len());
        let hi = lo.saturating_add(chunk_bytes).min(data.len());
        Self::chunk_from_bytes(&data[lo..hi], params.s)
    }

    /// Streaming encode: reads `reader` to EOF, chunk by chunk, with a
    /// random `name`.
    ///
    /// # Errors
    /// Propagates reader failures as [`DsAuditError::Io`].
    pub fn encode_reader<R, T>(
        rng: &mut R,
        reader: &mut T,
        params: AuditParams,
    ) -> Result<Self, DsAuditError>
    where
        R: rand::RngCore + ?Sized,
        T: std::io::Read + ?Sized,
    {
        let name = Fr::random(rng);
        Self::encode_reader_with_name(name, reader, params)
    }

    /// Streaming encode with a caller-chosen `name`: reads the source to
    /// EOF one chunk at a time, so the raw bytes are never buffered in
    /// full — peak transient allocation is one `s * 31`-byte chunk
    /// buffer regardless of file size (the encoded blocks themselves are
    /// the output). Produces exactly the same [`EncodedFile`] as
    /// [`EncodedFile::encode_with_name`] over the concatenated bytes,
    /// which is what makes GiB-scale preprocessing possible: encode from
    /// a `File` handle, then feed the chunks to tag generation.
    ///
    /// # Errors
    /// Propagates reader failures as [`DsAuditError::Io`]; bytes read
    /// before the failure are discarded.
    pub fn encode_reader_with_name<T>(
        name: Fr,
        reader: &mut T,
        params: AuditParams,
    ) -> Result<Self, DsAuditError>
    where
        T: std::io::Read + ?Sized,
    {
        let s = params.s;
        let chunk_bytes = params.chunk_bytes();
        let mut buf = vec![0u8; chunk_bytes];
        let mut blocks: Vec<Vec<Fr>> = Vec::new();
        let mut byte_len = 0usize;
        loop {
            let mut filled = 0usize;
            while filled < chunk_bytes {
                match reader.read(&mut buf[filled..]) {
                    Ok(0) => break,
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
            if filled == 0 {
                break;
            }
            byte_len += filled;
            blocks.push(Self::chunk_from_bytes(&buf[..filled], s));
            if filled < chunk_bytes {
                break; // EOF mid-chunk
            }
        }
        if blocks.is_empty() {
            // an empty file still audits as one all-zero chunk
            blocks.push(vec![Fr::zero(); s]);
        }
        Ok(Self {
            name,
            params,
            byte_len,
            blocks,
        })
    }

    /// Packs up to `s * 31` raw bytes into exactly `s` field-element
    /// blocks, zero-padding the tail.
    fn chunk_from_bytes(data: &[u8], s: usize) -> Vec<Fr> {
        let mut chunk = Vec::with_capacity(s);
        let mut cursor = 0usize;
        for _ in 0..s {
            let mut buf = [0u8; 32];
            if cursor < data.len() {
                let take = BLOCK_BYTES.min(data.len() - cursor);
                buf[32 - BLOCK_BYTES..32 - BLOCK_BYTES + take]
                    .copy_from_slice(&data[cursor..cursor + take]);
                cursor += take;
            }
            // 31 data bytes occupy the low 248 bits: always < r
            chunk.push(Fr::from_bytes_be(&buf).expect("31-byte block fits in Fr"));
        }
        chunk
    }

    /// Number of chunks `d`.
    pub fn num_chunks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of blocks `n` (including padding of the last chunk).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len() * self.params.s
    }

    /// The blocks of chunk `i`.
    ///
    /// # Panics
    /// Panics if `i >= num_chunks()`.
    pub fn chunk(&self, i: usize) -> &[Fr] {
        &self.blocks[i]
    }

    /// The chunk polynomial `M_i(x)`.
    pub fn chunk_poly(&self, i: usize) -> DensePoly {
        DensePoly::from_coeffs(self.blocks[i].clone())
    }

    /// Decodes back to the original bytes (inverse of `encode`).
    pub fn decode(&self) -> Vec<u8> {
        // lint:allow(decode-bounds) — `byte_len` is this struct's own in-memory field, not attacker-controlled wire input
        let mut out = Vec::with_capacity(self.byte_len);
        'outer: for chunk in &self.blocks {
            for block in chunk {
                let bytes = block.to_bytes_be();
                let start = 32 - BLOCK_BYTES;
                let remaining = self.byte_len - out.len();
                let take = BLOCK_BYTES.min(remaining);
                out.extend_from_slice(&bytes[start..start + take]);
                if out.len() == self.byte_len {
                    break 'outer;
                }
            }
        }
        out
    }

    /// Corrupts block `j` of chunk `i` (testing/dispute simulation).
    pub fn corrupt_block(&mut self, i: usize, j: usize) {
        self.blocks[i][j] += Fr::one();
    }

    /// Replaces a whole chunk with zeros (models dropped data).
    pub fn drop_chunk(&mut self, i: usize) {
        for b in self.blocks[i].iter_mut() {
            *b = Fr::zero();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xf11e)
    }

    fn params() -> AuditParams {
        AuditParams::new(4, 2).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut rng = rng();
        for len in [0usize, 1, 30, 31, 32, 123, 31 * 4, 31 * 4 + 1, 5000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
            let f = EncodedFile::encode(&mut rng, &data, params());
            assert_eq!(f.decode(), data, "roundtrip failed at len {len}");
        }
    }

    #[test]
    fn chunk_count_matches_formula() {
        let mut rng = rng();
        let p = params(); // s = 4, 124 bytes per chunk
        let f = EncodedFile::encode(&mut rng, &[0u8; 500], p);
        // 500 bytes -> ceil(500/31) = 17 blocks -> ceil(17/4) = 5 chunks
        assert_eq!(f.num_chunks(), 5);
        assert_eq!(f.num_blocks(), 20);
        assert_eq!(f.chunk(0).len(), 4);
    }

    #[test]
    fn chunk_poly_evaluates_blocks() {
        let mut rng = rng();
        let f = EncodedFile::encode(&mut rng, b"some file content here!", params());
        let poly = f.chunk_poly(0);
        // M_0(0) = m_{0,0}
        assert_eq!(poly.evaluate(Fr::zero()), f.chunk(0)[0]);
        // M_0(1) = sum of blocks
        let sum = f
            .chunk(0)
            .iter()
            .fold(Fr::zero(), |acc, b| acc + *b);
        assert_eq!(poly.evaluate(Fr::one()), sum);
    }

    #[test]
    fn corruption_changes_blocks() {
        let mut rng = rng();
        let mut f = EncodedFile::encode(&mut rng, &[9u8; 200], params());
        let before = f.chunk(1)[2];
        f.corrupt_block(1, 2);
        assert_ne!(f.chunk(1)[2], before);
        f.drop_chunk(0);
        assert!(f.chunk(0).iter().all(Field::is_zero));
    }

    #[test]
    fn empty_file_still_has_one_chunk() {
        let mut rng = rng();
        let f = EncodedFile::encode(&mut rng, &[], params());
        assert_eq!(f.num_chunks(), 1);
        assert_eq!(f.decode(), Vec::<u8>::new());
    }

    /// A reader that hands out data in fixed drips, so the chunk loop
    /// must cope with short reads that straddle block boundaries.
    struct DripReader<'a> {
        data: &'a [u8],
        pos: usize,
        drip: usize,
    }

    impl std::io::Read for DripReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.drip.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn streaming_encode_matches_in_memory_exactly() {
        let name = Fr::from_u64(0x57eea);
        let p = params(); // s = 4 -> 124 bytes per chunk
        for len in [0usize, 1, 30, 31, 123, 124, 125, 500, 4999] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let in_memory = EncodedFile::encode_with_name(name, &data, p);
            for drip in [1usize, 3, 31, 124, 1000] {
                let mut reader = DripReader {
                    data: &data,
                    pos: 0,
                    drip,
                };
                let streamed = EncodedFile::encode_reader_with_name(name, &mut reader, p)
                    .expect("in-memory reader cannot fail");
                assert_eq!(
                    streamed, in_memory,
                    "len {len}, drip {drip}: streaming must match in-memory encode"
                );
            }
        }
    }

    #[test]
    fn streaming_encode_surfaces_reader_errors() {
        struct FailAfter(usize);
        impl std::io::Read for FailAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "peer vanished",
                    ));
                }
                let n = self.0.min(buf.len());
                buf[..n].fill(0xaa);
                self.0 -= n;
                Ok(n)
            }
        }
        let err = EncodedFile::encode_reader_with_name(
            Fr::from_u64(1),
            &mut FailAfter(200),
            params(),
        )
        .expect_err("mid-stream failure must propagate");
        assert!(matches!(
            err,
            DsAuditError::Io {
                kind: std::io::ErrorKind::ConnectionReset,
                ..
            }
        ));
    }
}
