//! Plain-text and CSV table rendering for the experiment harness.

use std::fmt::Write as _;

use crate::summary::FigureSummary;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns: numbers right-aligned, text
    /// left-aligned, every line trimmed of trailing whitespace. A column
    /// is as wide as its longest cell in bytes, and cells are padded by
    /// `char` count, as `format!` pads.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let total = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let mut out = String::with_capacity((total + 1) * (self.rows.len() + 2));
        push_aligned(&mut out, &self.header, &widths);
        out.extend(std::iter::repeat_n('-', total));
        out.push('\n');
        for r in &self.rows {
            push_aligned(&mut out, r, &widths);
        }
        out
    }

    /// Render as CSV (no quoting needed for our content, but commas in
    /// cells are escaped by quoting anyway).
    pub fn to_csv(&self) -> String {
        let lines = std::iter::once(&self.header).chain(&self.rows);
        let len = lines.clone().flatten().map(|c| c.len() + 1).sum();
        let mut out = String::with_capacity(len);
        for r in lines {
            for (i, c) in r.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_csv_cell(&mut out, c);
            }
            out.push('\n');
        }
        out
    }

    /// Build a table from a [`FigureSummary`]: app column plus one column
    /// per series of the first row, one decimal place, `-` where a row
    /// lacks the series. Rows usually list their series in the first
    /// row's order, so each value is read by position and the label
    /// search runs only where the order breaks.
    pub fn from_figure(fig: &FigureSummary) -> Self {
        let series: &[_] = fig.rows.first().map_or(&[], |r| &r.values);
        let mut header = Vec::with_capacity(1 + series.len());
        header.push("App".to_string());
        header.extend(series.iter().map(|(s, _)| s.to_string()));
        // With a repeated label, a later column takes the first value of
        // that label, never the one at its own position.
        let distinct = series
            .iter()
            .enumerate()
            .all(|(i, (s, _))| series[..i].iter().all(|(t, _)| t != s));
        let rows = fig
            .rows
            .iter()
            .map(|row| {
                let mut cells = Vec::with_capacity(header.len());
                cells.push(row.app.clone());
                let mut in_order = distinct;
                for (i, (s, _)) in series.iter().enumerate() {
                    in_order &= row.values.get(i).is_some_and(|(t, _)| t == s);
                    let value = if in_order {
                        Some(row.values[i].1)
                    } else {
                        row.get(s)
                    };
                    cells.push(value.map_or_else(|| "-".to_string(), one_decimal));
                }
                cells
            })
            .collect();
        Self { header, rows }
    }
}

/// `v` to one decimal place, as `format!("{v:.1}")` writes it, in one
/// allocation for any value of up to 16 characters.
fn one_decimal(v: f64) -> String {
    let mut cell = String::with_capacity(16);
    write!(cell, "{v:.1}").expect("writing to a String cannot fail");
    cell
}

/// Append one aligned line of [`Table::render`] and its newline.
fn push_aligned(out: &mut String, cells: &[String], widths: &[usize]) {
    let start = out.len();
    for (i, (cell, &width)) in cells.iter().zip(widths).enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        let pad = std::iter::repeat_n(' ', width.saturating_sub(cell.chars().count()));
        if cell.parse::<f64>().is_ok() {
            out.extend(pad);
            out.push_str(cell);
        } else {
            out.push_str(cell);
            out.extend(pad);
        }
    }
    out.truncate(start + out[start..].trim_end().len());
    out.push('\n');
}

/// Append one CSV cell, quoted (with quotes doubled) when it holds a comma
/// or a quote.
fn push_csv_cell(out: &mut String, cell: &str) {
    if !cell.contains([',', '"']) {
        out.push_str(cell);
        return;
    }
    out.push('"');
    for ch in cell.chars() {
        if ch == '"' {
            out.push('"');
        }
        out.push(ch);
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::ExperimentRow;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["App", "Latest"]);
        t.row(vec!["Radiosity".into(), "4.0".into()]);
        t.row(vec!["CG".into(), "68.0".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("App"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("Radiosity"));
        assert!(lines[3].contains("68.0"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "1".into()]);
        assert_eq!(t.to_csv(), "a,b\n\"x,y\",1\n");
    }

    #[test]
    fn from_figure_builds_all_columns() {
        let fig = FigureSummary {
            id: "f".into(),
            title: "f".into(),
            rows: vec![ExperimentRow {
                app: "CG".into(),
                values: vec![("Latest".into(), 68.0), ("Window".into(), 53.0)],
            }],
        };
        let t = Table::from_figure(&fig);
        assert_eq!(t.rows.len(), 1);
        let csv = t.to_csv();
        assert!(csv.contains("App,Latest,Window"));
        assert!(csv.contains("CG,68.0,53.0"));
    }

    /// The renderer before it wrote into one buffer, kept as the oracle
    /// for [`Table::render`].
    fn render_oracle(t: &Table) -> String {
        let ncols = t.header.len();
        let mut widths: Vec<usize> = t.header.iter().map(|h| h.len()).collect();
        for r in &t.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                if cell.parse::<f64>().is_ok() {
                    line.push_str(&format!("{:>width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&t.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &t.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// The CSV writer before it wrote into one buffer, kept as the oracle
    /// for [`Table::to_csv`].
    fn csv_oracle(t: &Table) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &t.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for r in &t.rows {
            out.push_str(&r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Cells are runs of these fragments: they join into numbers
        /// (`-2.5`, `1e3`, `NaN`), empty cells, text with commas, quotes
        /// and trailing (also non-ASCII) whitespace, and multi-byte text.
        const FRAGMENTS: &[&str] = &[
            "", "1", "2.5", "-", "e3", "NaN", "inf", "x", "a b", ",", "\"", " ", "é", "日本",
            "\u{3000}", "\t",
        ];

        fn cell() -> impl Strategy<Value = String> {
            prop::collection::vec(0..FRAGMENTS.len(), 0..4)
                .prop_map(|ix| ix.into_iter().map(|i| FRAGMENTS[i]).collect())
        }

        /// A table of 1–5 columns and 0–6 rows; with `text_last`, every
        /// last-column cell ends in a letter, so that column is left-aligned
        /// and its padding is trimmed.
        fn table() -> impl Strategy<Value = Table> {
            (1usize..6, 0usize..7, any::<bool>()).prop_flat_map(|(ncols, nrows, text_last)| {
                prop::collection::vec(prop::collection::vec(cell(), ncols), nrows + 1).prop_map(
                    move |mut lines| {
                        if text_last {
                            for line in &mut lines {
                                line[ncols - 1].push('z');
                            }
                        }
                        let header: Vec<&str> = lines[0].iter().map(String::as_str).collect();
                        let mut t = Table::new(&header);
                        for row in &lines[1..] {
                            t.row(row.clone());
                        }
                        t
                    },
                )
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            /// The one-buffer renderers write exactly what the oracles do.
            #[test]
            fn render_and_csv_match_their_oracles(t in table()) {
                prop_assert_eq!(t.render(), render_oracle(&t), "{:?}", t);
                prop_assert_eq!(t.to_csv(), csv_oracle(&t), "{:?}", t);
            }
        }
    }

    /// [`Table::from_figure`] before it read values by position, kept as
    /// the oracle: every value is looked up by its series label.
    fn from_figure_oracle(fig: &FigureSummary) -> Table {
        let series = fig.series();
        let mut header = vec!["App"];
        header.extend(series.iter().map(String::as_str));
        let mut t = Table::new(&header);
        for row in &fig.rows {
            let mut cells = vec![row.app.clone()];
            for s in &series {
                cells.push(row.get(s).map_or_else(|| "-".into(), |v| format!("{v:.1}")));
            }
            t.row(cells);
        }
        t
    }

    mod figure_props {
        use super::*;
        use crate::summary::ExperimentRow;
        use proptest::prelude::*;

        /// Series labels drawn from a few names, so rows repeat, reorder,
        /// drop and add series.
        const LABELS: &[&str] = &["Latest", "Window", "Linux", "RRGang"];

        /// Values in the ranges figures print, ties at hundredths, and
        /// arbitrary bit patterns (infinities, NaNs, subnormals, huge).
        fn value() -> impl Strategy<Value = f64> {
            (0u8..4, -1000.0f64..1000.0, -400i64..400, any::<u64>()).prop_map(
                |(kind, x, k, bits)| match kind {
                    0 => x,
                    1 => k as f64 / 20.0,
                    2 => k as f64 * 0.05,
                    _ => f64::from_bits(bits),
                },
            )
        }

        fn figure() -> impl Strategy<Value = FigureSummary> {
            let row = (
                0usize..3,
                prop::collection::vec((0..LABELS.len(), value()), 0..5),
            )
                .prop_map(|(app, values)| ExperimentRow {
                    app: ["CG", "MG", "trial 0"][app].to_string(),
                    values: values
                        .into_iter()
                        .map(|(l, v)| (LABELS[l].into(), v))
                        .collect(),
                });
            let in_order = prop::collection::vec(value(), 0..5).prop_map(|vs| ExperimentRow {
                app: "SP".into(),
                values: LABELS.iter().zip(vs).map(|(&l, v)| (l.into(), v)).collect(),
            });
            (
                prop::collection::vec(row, 0..4),
                prop::collection::vec(in_order, 0..4),
                any::<bool>(),
            )
                .prop_map(|(mut rows, aligned, first)| {
                    if first {
                        rows.splice(0..0, aligned);
                    } else {
                        rows.extend(aligned);
                    }
                    FigureSummary {
                        id: "f".into(),
                        title: "f".into(),
                        rows,
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3000))]

            /// Reading values by position builds the table the label
            /// search builds, whatever order, gaps or repeats rows have.
            #[test]
            fn from_figure_matches_its_oracle(fig in figure()) {
                let (got, want) = (Table::from_figure(&fig), from_figure_oracle(&fig));
                prop_assert_eq!(&got.header, &want.header);
                prop_assert_eq!(&got.rows, &want.rows, "{:?}", fig);
            }
        }
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        Table::new(&["a"]).row(vec!["1".into(), "2".into()]);
    }
}
