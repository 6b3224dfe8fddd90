//! Plain-text edge lists: one `u v` (or `u v w`) per line, `#` comments.

use std::io::{self, BufRead, Write};

use crate::{EdgeList, Weight};

/// Parse a text edge list.
///
/// Blank lines and lines starting with `#` or `%` are skipped.  Lines may
/// carry an optional integer weight; weighted and unweighted lines must
/// not be mixed.
pub fn read_edge_list<R: BufRead>(reader: R) -> io::Result<EdgeList> {
    let mut edges = Vec::new();
    let mut weights: Option<Vec<Weight>> = None;
    let mut num_vertices = 0u64;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>, what: &str| -> io::Result<u64> {
            s.ok_or_else(|| bad(lineno, &format!("missing {what}")))?
                .parse::<u64>()
                .map_err(|_| bad(lineno, &format!("invalid {what}")))
        };
        let u = parse(it.next(), "source")?;
        let v = parse(it.next(), "destination")?;
        let w = it.next();
        match (w, &mut weights) {
            (None, None) => {}
            (Some(w), weights) => {
                let w: Weight = w.parse().map_err(|_| bad(lineno, "invalid weight"))?;
                let ws = weights.get_or_insert_with(Vec::new);
                if ws.len() != edges.len() {
                    return Err(bad(lineno, "mixed weighted and unweighted lines"));
                }
                ws.push(w);
            }
            (None, Some(_)) => {
                return Err(bad(lineno, "mixed weighted and unweighted lines"));
            }
        }
        // The vertex count is one past the largest id, so `u64::MAX`
        // itself cannot be a vertex.
        let past = u.max(v).checked_add(1);
        let past = past.ok_or_else(|| bad(lineno, "vertex id too large"))?;
        num_vertices = num_vertices.max(past);
        edges.push((u, v));
    }
    Ok(EdgeList {
        num_vertices,
        edges,
        weights,
    })
}

fn bad(lineno: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {}: {msg}", lineno + 1),
    )
}

/// Write an edge list in the text format.
pub fn write_edge_list<W: Write>(writer: &mut W, el: &EdgeList) -> io::Result<()> {
    writeln!(
        writer,
        "# {} vertices, {} edges",
        el.num_vertices,
        el.num_edges()
    )?;
    match &el.weights {
        None => {
            for &(u, v) in &el.edges {
                writeln!(writer, "{u} {v}")?;
            }
        }
        Some(ws) => {
            for (&(u, v), &w) in el.edges.iter().zip(ws) {
                writeln!(writer, "{u} {v} {w}")?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_unweighted() {
        let el = EdgeList::from_pairs([(0, 1), (2, 3), (1, 2)]);
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &el).unwrap();
        let back = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(back.edges, el.edges);
        assert_eq!(back.num_vertices, el.num_vertices);
    }

    #[test]
    fn roundtrip_weighted() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 5);
        el.push_weighted(1, 2, -2);
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &el).unwrap();
        let back = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(back.weights, Some(vec![5, -2]));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# header\n\n% also comment\n0 1\n 2 3 \n";
        let el = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(el.edges, vec![(0, 1), (2, 3)]);
        assert_eq!(el.num_vertices, 4);
    }

    #[test]
    fn malformed_lines_error() {
        assert!(read_edge_list(Cursor::new("0\n")).is_err());
        assert!(read_edge_list(Cursor::new("a b\n")).is_err());
        assert!(read_edge_list(Cursor::new("0 1 x\n")).is_err());
        assert!(read_edge_list(Cursor::new("0 1 2\n3 4\n")).is_err());
        assert!(read_edge_list(Cursor::new("0 1\n3 4 9\n")).is_err());
    }

    #[test]
    fn largest_id_is_rejected() {
        let err = read_edge_list(Cursor::new(
            "0 1
18446744073709551615 0
",
        ))
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        let el = read_edge_list(Cursor::new(
            "18446744073709551614 0
",
        ))
        .unwrap();
        assert_eq!(el.num_vertices, u64::MAX);
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let el = read_edge_list(Cursor::new("# nothing\n")).unwrap();
        assert_eq!(el.num_vertices, 0);
        assert_eq!(el.num_edges(), 0);
    }
}
