//! CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-16.
//!
//! One implementation for every checksum in the system: WAL records and
//! the checkpoint file in `dasp-storage`, RPC frames in `dasp-net`.

/// Slice-by-16 lookup tables: table 0 is the classic byte-at-a-time
/// table; table j folds a byte that sits j positions deeper in the
/// message, so sixteen bytes fold with sixteen independent loads per
/// step (16 KiB of tables — comfortably L1-resident).
static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            tables[j][i] = (tables[j - 1][i] >> 8) ^ tables[0][(tables[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// One slice-by-16 table lookup: fold byte `b & 0xFF` through table `j`.
/// `j` is a literal below 16 and the mask keeps the byte below 256, so
/// both lookups always hit and compile to plain loads.
#[inline(always)]
fn crc_tab(j: usize, b: u32) -> u32 {
    CRC_TABLES
        .get(j)
        .and_then(|table| table.get((b & 0xFF) as usize))
        .copied()
        .unwrap_or(0)
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`, as used by the
/// WAL frames, the checkpoint file and the RPC frame layer. Slice-by-16:
/// every RPC payload, logged request and checkpointed row passes
/// through it.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let (blocks, tail) = data.as_chunks::<16>();
    for &[c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15] in blocks {
        let a = u32::from_le_bytes([c0, c1, c2, c3]) ^ crc;
        let b = u32::from_le_bytes([c4, c5, c6, c7]);
        let d = u32::from_le_bytes([c8, c9, c10, c11]);
        let e = u32::from_le_bytes([c12, c13, c14, c15]);
        crc = crc_tab(15, a)
            ^ crc_tab(14, a >> 8)
            ^ crc_tab(13, a >> 16)
            ^ crc_tab(12, a >> 24)
            ^ crc_tab(11, b)
            ^ crc_tab(10, b >> 8)
            ^ crc_tab(9, b >> 16)
            ^ crc_tab(8, b >> 24)
            ^ crc_tab(7, d)
            ^ crc_tab(6, d >> 8)
            ^ crc_tab(5, d >> 16)
            ^ crc_tab(4, d >> 24)
            ^ crc_tab(3, e)
            ^ crc_tab(2, e >> 8)
            ^ crc_tab(1, e >> 16)
            ^ crc_tab(0, e >> 24);
    }
    for &b in tail {
        crc = (crc >> 8) ^ crc_tab(0, crc ^ b as u32);
    }
    !crc
}
