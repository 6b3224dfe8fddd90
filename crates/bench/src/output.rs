//! What an artifact produces: its files and its transcript, whose tables
//! render JSON records generically.

use std::path::Path;

use serde::{Content, Serialize};

/// `header` and `rows` as right-aligned columns, the header over a rule.
fn render(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        padded.join("  ") + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)) + "\n";
    let body = rows.iter().map(|r| line(r));
    [line(header), rule].into_iter().chain(body).collect()
}

/// Format seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

/// What one artifact produces: its data files and its text transcript.
#[derive(Debug, Default)]
pub struct Output {
    /// `(file name, contents)` pairs, e.g. `("table1.json", "{ .. }")`.
    pub files: Vec<(String, String)>,
    /// The printed report: tables, checks and every "paper: …" line.
    pub text: String,
}

impl Output {
    /// An output whose transcript opens with `title`.
    pub(crate) fn titled(title: &str) -> Self {
        let text = format!("{title}\n");
        Output {
            text,
            ..Self::default()
        }
    }

    /// Add `name.json`, pretty-printed with a trailing newline.
    pub(crate) fn json<T: Serialize + ?Sized>(&mut self, name: &str, value: &T) {
        // The stand-in serializer only fails on a writer; a `String` has none.
        let body = serde_json::to_string_pretty(value).unwrap_or_default();
        self.files.push((format!("{name}.json"), body + "\n"));
    }

    /// Append `rows` — JSON objects with the same keys — as a table whose
    /// columns are those keys.
    pub(crate) fn records<'a>(&mut self, rows: impl IntoIterator<Item = &'a Content>) {
        let rows: Vec<_> = rows.into_iter().filter_map(fields).collect();
        let Some(first) = rows.first() else { return };
        let header: Vec<String> = first.iter().map(|(k, _)| k.clone()).collect();
        let cells = rows
            .iter()
            .map(|r| r.iter().map(|(k, v)| cell(k, v)).collect());
        self.text += &render(&header, &cells.collect::<Vec<_>>());
    }

    /// Append `rows` pivoted: a line per distinct tuple of the `row` keys,
    /// a column per distinct value of `col` (both in first-seen order),
    /// and in each cell the row's `value`.
    pub(crate) fn pivot<'a>(
        &mut self,
        rows: impl IntoIterator<Item = &'a Content>,
        row: &[&str],
        col: &str,
        value: &str,
    ) {
        let (mut cols, mut lines) = (Vec::new(), Vec::<Vec<String>>::new());
        for r in rows {
            let get = |k: &str| field(r, k).map_or_else(String::new, |v| cell(k, v));
            let label = row.iter().map(|k| get(k)).collect::<Vec<_>>().join("/");
            let c = get(col);
            let ci = cols.iter().position(|x| *x == c).unwrap_or(cols.len());
            if ci == cols.len() {
                cols.push(c);
            }
            let li = lines
                .iter()
                .position(|l| l[0] == label)
                .unwrap_or(lines.len());
            if li == lines.len() {
                lines.push(vec![label]);
            }
            lines[li].resize(ci + 2, "-".into());
            lines[li][ci + 1] = get(value);
        }
        let mut header = vec![row.join("/")];
        header.extend(cols.iter().map(|c| format!("{col}={c}")));
        for line in &mut lines {
            line.resize(header.len(), "-".into());
        }
        self.text += &render(&header, &lines);
    }

    /// Write every file under `dir` (creating it), naming each on stderr.
    pub fn write_files(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, body) in &self.files {
            let path = dir.join(name);
            std::fs::write(&path, body)?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    }
}

fn fields(c: &Content) -> Option<&[(String, Content)]> {
    match c {
        Content::Map(fields) => Some(fields),
        _ => None,
    }
}

/// The value under `key` of a JSON object.
pub(crate) fn field<'a>(c: &'a Content, key: &str) -> Option<&'a Content> {
    fields(c)?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A table cell: a `*seconds*` field through [`fmt_secs`], any other
/// float to two decimals, or in scientific notation outside [0.01, 10⁴).
fn cell(key: &str, v: &Content) -> String {
    match v {
        Content::F64(x) if key.contains("seconds") => fmt_secs(*x),
        Content::F64(x) if *x != 0.0 && !(1e-2..1e4).contains(&x.abs()) => format!("{x:.2e}"),
        Content::F64(x) => format!("{x:.2}"),
        Content::U64(n) => n.to_string(),
        Content::I64(n) => n.to_string(),
        Content::Str(s) => s.clone(),
        Content::Bool(b) => b.to_string(),
        _ => "-".into(),
    }
}

/// Append one formatted line to an [`Output`]'s transcript.
macro_rules! say {
    ($out:expr) => { $out.text.push('\n') };
    ($out:expr, $($fmt:tt)+) => {{
        $out.text.push_str(&format!($($fmt)+));
        $out.text.push('\n');
    }};
}

/// A JSON object whose keys are the field names, in the order written:
/// `rec! { procs: p, seconds: s }`.
macro_rules! rec {
    ($($key:ident: $value:expr),* $(,)?) => {
        serde::Content::Map(vec![$(
            (stringify!($key).to_string(), serde::Serialize::to_content(&$value))
        ),*])
    };
}
pub(crate) use {rec, say};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_align_columns() {
        let r = render(
            &["a".into(), "long-header".into()],
            &[vec!["12345".into(), "µs".into()]],
        );
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
        // Right-aligned by characters, not bytes.
        assert!(lines[2].starts_with("12345") && lines[2].ends_with(" µs"));
        assert_eq!(lines[2].chars().count(), lines[0].chars().count());
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(5.4), "5.40");
        assert_eq!(fmt_secs(0.31), "310.00 ms");
        assert_eq!(fmt_secs(2.5e-5), "25.00 µs");
    }

    #[test]
    fn json_roundtrip() {
        let mut out = Output::default();
        out.json("t", &vec![1, 2, 3]);
        assert_eq!(out.files[0].0, "t.json");
        let v: Vec<i32> = serde_json::from_str(&out.files[0].1).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn records_and_lines() {
        let mut out = Output::default();
        let r = serde_json::to_string(&rec! { procs: 8usize, panel: "BSP" }).unwrap();
        assert_eq!(r, r#"{"procs":8,"panel":"BSP"}"#);
        say!(out, "x = {}", 1);
        assert_eq!(out.text, "x = 1\n");
    }

    #[test]
    fn records_and_pivots_render_fields() {
        let rows = [
            rec! { panel: "BSP", procs: 8usize, seconds: 2.5e-3 },
            rec! { panel: "BSP", procs: 16usize, seconds: 1.5 },
            rec! { panel: "CT", procs: 16usize, seconds: 0.5e-6 },
        ];
        let mut out = Output::default();
        out.records(&rows);
        assert!(out.text.starts_with("panel  procs  "), "{}", out.text);
        assert!(out.text.contains("2.50 ms"), "{}", out.text);
        let mut out = Output::default();
        out.pivot(&rows, &["panel"], "procs", "seconds");
        let lines: Vec<&str> = out.text.lines().collect();
        assert_eq!(
            lines[0].split_whitespace().collect::<Vec<_>>(),
            ["panel", "procs=8", "procs=16"]
        );
        assert!(
            lines[2].contains("BSP") && lines[2].ends_with("1.50"),
            "{}",
            out.text
        );
        assert!(
            lines[3].contains(" - ") && lines[3].ends_with("0.50 µs"),
            "{}",
            out.text
        );
    }
}
