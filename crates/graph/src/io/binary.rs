//! Compact binary CSR serialization.
//!
//! Layout (all little-endian u64 unless noted):
//!
//! ```text
//! magic "XMTG" + version (u32 + u32)
//! flags (u64): bit0 directed, bit1 sorted, bit2 weighted
//! n (u64), arcs (u64)
//! offsets[n+1]
//! adj[arcs]
//! weights[arcs] (i64, only if weighted)
//! ```

use std::io::{self, Read, Write};

use crate::{Csr, Weight};

const MAGIC: u32 = 0x584d_5447; // "XMTG"
const VERSION: u32 = 1;

const FLAG_DIRECTED: u64 = 1;
const FLAG_SORTED: u64 = 2;
const FLAG_WEIGHTED: u64 = 4;

/// Serialize a CSR to a writer.
pub fn write_csr_binary<W: Write>(writer: &mut W, g: &Csr) -> io::Result<()> {
    let mut buf: Vec<u8> = Vec::with_capacity(64 + g.memory_bytes());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let mut flags = 0u64;
    if g.is_directed() {
        flags |= FLAG_DIRECTED;
    }
    if g.is_sorted() {
        flags |= FLAG_SORTED;
    }
    if g.is_weighted() {
        flags |= FLAG_WEIGHTED;
    }
    buf.extend_from_slice(&flags.to_le_bytes());
    buf.extend_from_slice(&g.num_vertices().to_le_bytes());
    buf.extend_from_slice(&g.num_arcs().to_le_bytes());
    for &o in g.offsets() {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    for &a in g.adjacency() {
        buf.extend_from_slice(&a.to_le_bytes());
    }
    if let Some(ws) = g.raw_weights() {
        for &w in ws {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
    writer.write_all(&buf)
}

fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "truncated CSR file")
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Split the next `N` bytes off the front of `rest`.
fn take<const N: usize>(rest: &mut &[u8]) -> io::Result<[u8; N]> {
    let (head, tail) = rest.split_first_chunk::<N>().ok_or_else(truncated)?;
    *rest = tail;
    Ok(*head)
}

/// The next `count` little-endian 8-byte words of `rest`, decoded by
/// `decode`.  The length is checked against what is left before anything
/// is allocated, so a corrupt count cannot ask for more than the file
/// holds.
fn take_words<T>(rest: &mut &[u8], count: u64, decode: fn([u8; 8]) -> T) -> io::Result<Vec<T>> {
    let bytes = usize::try_from(count)
        .ok()
        .and_then(|c| c.checked_mul(8))
        .filter(|&b| b <= rest.len())
        .ok_or_else(truncated)?;
    let (words, tail) = rest.split_at(bytes);
    *rest = tail;
    let (words, _) = words.as_chunks::<8>();
    Ok(words.iter().map(|&w| decode(w)).collect())
}

/// Deserialize a CSR from a reader.
///
/// Every invariant [`Csr::from_parts`] asserts is checked here first, so a
/// corrupt file is an [`io::ErrorKind::InvalidData`] error, never a panic;
/// that includes a set sorted flag over an unsorted adjacency list, which
/// would otherwise silently miscount triangles.
pub fn read_csr_binary<R: Read>(reader: &mut R) -> io::Result<Csr> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut rest = raw.as_slice();
    if u32::from_le_bytes(take(&mut rest)?) != MAGIC {
        return Err(invalid("bad magic"));
    }
    if u32::from_le_bytes(take(&mut rest)?) != VERSION {
        return Err(invalid("unsupported version"));
    }
    let flags = u64::from_le_bytes(take(&mut rest)?);
    let n = u64::from_le_bytes(take(&mut rest)?);
    let arcs = u64::from_le_bytes(take(&mut rest)?);
    let num_offsets = n
        .checked_add(1)
        .ok_or_else(|| invalid("vertex count overflows"))?;
    let offsets = take_words(&mut rest, num_offsets, u64::from_le_bytes)?;
    let adj = take_words(&mut rest, arcs, u64::from_le_bytes)?;
    let weights: Option<Vec<Weight>> = if flags & FLAG_WEIGHTED != 0 {
        Some(take_words(&mut rest, arcs, i64::from_le_bytes)?)
    } else {
        None
    };
    if !rest.is_empty() {
        return Err(invalid("trailing bytes after CSR payload"));
    }
    if offsets.first() != Some(&0)
        || offsets.last() != Some(&arcs)
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(invalid("offsets are not monotone from 0 to the arc count"));
    }
    if adj.iter().any(|&v| v >= n) {
        return Err(invalid("adjacency entry out of range"));
    }
    let sorted = flags & FLAG_SORTED != 0;
    if sorted
        && offsets
            .windows(2)
            .any(|w| !adj[w[0] as usize..w[1] as usize].is_sorted())
    {
        return Err(invalid("sorted flag set over an unsorted adjacency list"));
    }
    Ok(Csr::from_parts(
        n,
        offsets,
        adj,
        weights,
        flags & FLAG_DIRECTED != 0,
        sorted,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_directed, build_undirected};
    use crate::gen::structured::clique;
    use crate::{BuildOptions, CsrBuilder, EdgeList};

    #[test]
    fn roundtrip_unweighted() {
        let g = build_undirected(&clique(6));
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        let back = read_csr_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back, g);
    }

    /// Directed, sorted, weighted: 0 -(-5)-> 1 and 2 -(8)-> 0.
    fn weighted_directed() -> Csr {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, -5);
        el.push_weighted(2, 0, 8);
        CsrBuilder::new(BuildOptions {
            symmetrize: false,
            remove_self_loops: false,
            dedup: false,
            sort: true,
        })
        .build(&el)
    }

    #[test]
    fn roundtrip_weighted_directed() {
        let g = weighted_directed();
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        let back = read_csr_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back, g);
        assert!(back.is_directed());
        assert!(back.is_weighted());
    }

    #[test]
    fn on_disk_bytes_are_pinned() {
        let g = weighted_directed();
        #[rustfmt::skip]
        let golden: [u8; 96] = [
            71, 84, 77, 88,  1, 0, 0, 0,          // "XMTG" little-endian, version 1
            7, 0, 0, 0, 0, 0, 0, 0,               // flags: directed | sorted | weighted
            3, 0, 0, 0, 0, 0, 0, 0,               // n
            2, 0, 0, 0, 0, 0, 0, 0,               // arcs
            0, 0, 0, 0, 0, 0, 0, 0,               // offsets[0..=3] = 0 1 1 2
            1, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, 0, 0, 0, 0,               // adj = 1 0
            0, 0, 0, 0, 0, 0, 0, 0,
            251, 255, 255, 255, 255, 255, 255, 255, // weights = -5 8
            8, 0, 0, 0, 0, 0, 0, 0,
        ];
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        assert_eq!(buf, golden);
        assert_eq!(read_csr_binary(&mut &golden[..]).unwrap(), g);
    }

    #[test]
    fn corrupt_inputs_error() {
        assert!(read_csr_binary(&mut &b"xx"[..]).is_err());
        let g = build_undirected(&clique(4));
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        // Truncate.
        assert!(read_csr_binary(&mut &buf[..buf.len() - 4]).is_err());
        // Trailing garbage.
        let mut long = buf.clone();
        long.extend_from_slice(&[0u8; 8]);
        assert!(read_csr_binary(&mut long.as_slice()).is_err());
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(read_csr_binary(&mut bad.as_slice()).is_err());
        // Bad version.
        let mut badv = buf.clone();
        badv[4] ^= 0xff;
        assert!(read_csr_binary(&mut badv.as_slice()).is_err());
        // An arc count the file cannot hold is a truncation, not an
        // allocation of that size.
        let mut huge = buf.clone();
        huge[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_csr_binary(&mut huge.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// The golden file of `on_disk_bytes_are_pinned` with one 8-byte
    /// word (`word` counts from the flags word at byte 8) replaced.
    fn golden_with(word: usize, value: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &weighted_directed()).unwrap();
        let at = 8 + 8 * word;
        buf[at..at + 8].copy_from_slice(&value.to_le_bytes());
        buf
    }

    fn invalid_data(buf: &[u8]) -> bool {
        read_csr_binary(&mut &buf[..]).unwrap_err().kind() == io::ErrorKind::InvalidData
    }

    #[test]
    fn bad_offsets_or_adjacency_are_invalid_data() {
        // Offsets 0 1 1 2 → 0 2 1 2 (not monotone).
        assert!(invalid_data(&golden_with(4, 2)));
        // Offsets end at 1, not at the arc count 2.
        assert!(invalid_data(&golden_with(6, 1)));
        // Adjacency 1 0 → 3 0, but n = 3.
        assert!(invalid_data(&golden_with(7, 3)));
    }

    #[test]
    fn vertex_count_overflow_is_invalid_data() {
        assert!(invalid_data(&golden_with(1, u64::MAX)));
    }

    #[test]
    fn sorted_flag_over_unsorted_lists_is_invalid_data() {
        // Vertex 0 has arcs to 1 and 0, in that order: a raw build keeps
        // edge-list order.
        let g = build_directed(&EdgeList::from_pairs([(0, 1), (0, 0)]));
        assert_eq!(g.neighbors(0), &[1, 0]);
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        assert!(read_csr_binary(&mut buf.as_slice()).is_ok());
        buf[8] |= FLAG_SORTED as u8;
        assert!(invalid_data(&buf));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = build_undirected(&EdgeList::new(0));
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        let back = read_csr_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back.num_vertices(), 0);
    }
}
