//! Pushdown workload: fixed-width record datasets and a host-side
//! reference scan, for benchmarking in-stack filters against the
//! ship-everything-and-scan-client-side baseline.
//!
//! Records are `RECORD_LEN`-byte rows with a little-endian `u32` key at
//! offset [`KEY_OFF`]. Key values cycle `i % KEY_SPACE`, so filtering
//! for one key value yields exactly `1 / KEY_SPACE` selectivity —
//! `bench_pushdown` uses `KEY_SPACE = 100` for the paper-style 1% point.

/// Bytes per record. 64 divides the 4096-byte FS block evenly, which the
/// LabFS pushdown path requires (whole records per page).
pub const RECORD_LEN: usize = 64;

/// Byte offset of the little-endian `u32` key within each record.
pub const KEY_OFF: usize = 0;

/// Distinct key values; selecting one gives `1/KEY_SPACE` selectivity.
pub const KEY_SPACE: u32 = 100;

/// Build `n` records. Record `i` carries key `i % KEY_SPACE` at
/// [`KEY_OFF`], the record index as a `u64` at offset 8 (a summable
/// column), and a deterministic byte fill after that so verification can
/// detect corruption or misalignment.
pub fn make_records(n: usize) -> Vec<u8> {
    let mut data = vec![0u8; n * RECORD_LEN];
    for (i, rec) in data.chunks_exact_mut(RECORD_LEN).enumerate() {
        let key = (i as u32) % KEY_SPACE;
        rec[KEY_OFF..KEY_OFF + 4].copy_from_slice(&key.to_le_bytes());
        rec[8..16].copy_from_slice(&(i as u64).to_le_bytes());
        for (j, b) in rec[16..].iter_mut().enumerate() {
            *b = ((i * 31 + j) % 251) as u8;
        }
    }
    data
}

/// Host-side reference: count records whose key equals `value`. This is
/// the client-side baseline scan and the oracle the pushdown result is
/// checked against.
pub fn client_scan_count(data: &[u8], value: u32) -> u64 {
    data.chunks_exact(RECORD_LEN)
        .filter(|rec| {
            let mut k = [0u8; 4];
            k.copy_from_slice(&rec[KEY_OFF..KEY_OFF + 4]);
            u32::from_le_bytes(k) == value
        })
        .count() as u64
}

/// Host-side reference: sum the `u64` column at offset 8 over records
/// whose key equals `value`.
// api-ok: tests/pushdown_path.rs checks the pushed-down sum against it
pub fn client_scan_sum(data: &[u8], value: u32) -> u64 {
    data.chunks_exact(RECORD_LEN)
        .filter(|rec| {
            let mut k = [0u8; 4];
            k.copy_from_slice(&rec[KEY_OFF..KEY_OFF + 4]);
            u32::from_le_bytes(k) == value
        })
        .fold(0u64, |acc, rec| {
            let mut v = [0u8; 8];
            v.copy_from_slice(&rec[8..16]);
            acc.wrapping_add(u64::from_le_bytes(v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_pack_fs_blocks() {
        assert_eq!(4096 % RECORD_LEN, 0);
    }

    #[test]
    fn selectivity_is_one_over_key_space() {
        let n = 4 * KEY_SPACE as usize; // whole key cycles
        let data = make_records(n);
        for value in [0, 7, KEY_SPACE - 1] {
            assert_eq!(client_scan_count(&data, value), 4);
        }
        assert_eq!(client_scan_count(&data, KEY_SPACE), 0);
    }

    #[test]
    fn sum_matches_arithmetic() {
        let data = make_records(300);
        // Records with key 7: indices 7, 107, 207.
        assert_eq!(client_scan_sum(&data, 7), 7 + 107 + 207);
    }
}
