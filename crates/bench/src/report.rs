//! Plain-text reporting: aligned tables, ASCII charts, CSV series, and
//! the [`Report`] every experiment returns. Nothing here touches the file
//! system; `parspeed experiment` decides where a report's CSV goes.

use std::fmt::Write as _;

/// An experiment's output: its report text and its CSV series, each under
/// the file name it is written to.
#[derive(Debug, Default)]
pub struct Report {
    /// The plain-text report.
    pub text: String,
    /// `(file name, CSV text)` of each series, in the order produced.
    pub csv: Vec<(String, String)>,
}

impl Report {
    /// Renders `table` into the text and keeps it as the CSV series `file`.
    pub fn table(&mut self, file: impl Into<String>, table: &Table) {
        self.text.push_str(&table.render());
        self.csv.push((file.into(), table.to_csv()));
    }

    /// Appends `other`'s text and series.
    pub fn append(&mut self, other: Report) {
        self.text.push_str(&other.text);
        self.csv.extend(other.csv);
    }
}

/// An aligned plain-text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "── {} ──", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::from("  ");
            for i in 0..cols {
                let _ = write!(s, "{:<w$}", cells[i], w = widths[i] + 2);
            }
            let _ = writeln!(out, "{}", s.trim_end());
        };
        line(&mut out, &self.headers);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&mut out, &rule);
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// The table as CSV: the header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let _ =
            writeln!(s, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(s, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        s
    }
}

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Plot marker.
    pub marker: char,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

/// Renders series on a shared-axis ASCII scatter chart.
pub fn ascii_chart(title: &str, series: &[Series], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 4);
    let all: Vec<(f64, f64)> = series.iter().flat_map(|s| s.points.iter().cloned()).collect();
    if all.is_empty() {
        return format!("── {title} ── (no data)\n");
    }
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &all {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if (x1 - x0).abs() < 1e-300 {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < 1e-300 {
        y1 = y0 + 1.0;
    }
    let mut canvas = vec![vec![' '; width]; height];
    for s in series {
        for &(x, y) in &s.points {
            let cx = (((x - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
            canvas[height - 1 - cy][cx] = s.marker;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "── {title} ──");
    let _ = writeln!(out, "  y ∈ [{y0:.3}, {y1:.3}]");
    for row in &canvas {
        let _ = writeln!(out, "  |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "  +{}", "-".repeat(width));
    let _ = writeln!(out, "  x ∈ [{x0:.3}, {x1:.3}]");
    for s in series {
        let _ = writeln!(out, "   {} {}", s.marker, s.label);
    }
    out
}

/// Compact scientific formatting for seconds.
pub fn secs(t: f64) -> String {
    if t == 0.0 {
        "0".into()
    } else if t >= 1.0 {
        format!("{t:.3} s")
    } else if t >= 1e-3 {
        format!("{:.3} ms", t * 1e3)
    } else if t >= 1e-6 {
        format!("{:.3} µs", t * 1e6)
    } else {
        format!("{:.1} ns", t * 1e9)
    }
}

/// Two-significant-digit percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "beta"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "x".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("beta"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn chart_places_extremes() {
        let s = Series {
            label: "linear".into(),
            marker: '*',
            points: (0..10).map(|i| (i as f64, i as f64)).collect(),
        };
        let c = ascii_chart("line", &[s], 20, 8);
        assert!(c.contains('*'));
        assert!(c.contains("linear"));
        assert!(c.contains("x ∈ [0.000, 9.000]"));
    }

    #[test]
    fn chart_handles_empty_and_flat() {
        assert!(ascii_chart("none", &[], 20, 5).contains("no data"));
        let flat =
            Series { label: "flat".into(), marker: 'o', points: vec![(1.0, 2.0), (2.0, 2.0)] };
        let c = ascii_chart("flat", &[flat], 20, 5);
        assert!(c.contains('o'));
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("csv", &["x", "label"]);
        t.row(vec!["1".into(), "plain".into()]);
        t.row(vec!["2".into(), "with,comma".into()]);
        assert_eq!(t.to_csv(), "x,label\n1,plain\n2,\"with,comma\"\n");
    }

    #[test]
    fn a_report_renders_a_table_and_keeps_its_csv() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into()]);
        let mut r = Report { text: "intro\n".into(), ..Report::default() };
        r.table("demo.csv", &t);
        assert_eq!(r.text, format!("intro\n{}", t.render()));
        assert_eq!(r.csv, [("demo.csv".to_string(), t.to_csv())]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(0.0), "0");
        assert_eq!(secs(2.0), "2.000 s");
        assert_eq!(secs(2.5e-3), "2.500 ms");
        assert_eq!(secs(3.0e-6), "3.000 µs");
        assert_eq!(secs(5.0e-9), "5.0 ns");
        assert_eq!(pct(0.1234), "12.34%");
    }

    #[test]
    fn render_pads_each_column_to_its_widest_cell() {
        let mut t = Table::new("demo", &["a", "beta"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "x".into()]);
        assert_eq!(t.render(), "── demo ──\n  a    beta\n  ---  ----\n  1    2\n  100  x\n");
    }

    #[test]
    fn csv_doubles_the_quotes_inside_a_quoted_cell() {
        let mut t = Table::new("csv", &["name", "say \"hi\""]);
        t.row(vec!["a \"b\", c".into(), "plain".into()]);
        assert_eq!(t.to_csv(), "name,\"say \"\"hi\"\"\"\n\"a \"\"b\"\", c\",plain\n");
    }

    #[test]
    fn csv_of_a_table_without_rows_is_its_header_line() {
        let t = Table::new("empty", &["x", "y"]);
        assert!(t.is_empty());
        assert_eq!(t.to_csv(), "x,y\n");
    }

    #[test]
    fn append_keeps_texts_and_series_in_order() {
        let one = |file: &str, cell: &str| {
            let mut t = Table::new(file, &["v"]);
            t.row(vec![cell.into()]);
            let mut r = Report::default();
            r.table(file, &t);
            (r, t)
        };
        let (mut first, a) = one("a.csv", "1");
        let (second, b) = one("b.csv", "2");
        first.append(second);
        assert_eq!(first.text, format!("{}{}", a.render(), b.render()));
        let names: Vec<&str> = first.csv.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["a.csv", "b.csv"]);
        assert_eq!(first.csv[1].1, "v\n2\n");
    }
}
