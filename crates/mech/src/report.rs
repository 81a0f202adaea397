//! Report emitters shared by the experiments: CSV tables and
//! fixed-width ASCII line plots (the repository's stand-in for the paper's
//! gnuplot figures).

use dispersal_core::{Error, Result};
use std::fmt::Write as _;

/// Render rows as CSV with the given header.
pub fn to_csv(header: &[&str], rows: &[Vec<f64>]) -> String {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v:.10}")).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

/// A labeled series for ASCII plotting.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Plot glyph.
    pub glyph: char,
    /// y values (same x grid as the plot).
    pub values: Vec<f64>,
}

/// Render an ASCII line plot of several series over a shared x grid.
///
/// The plot is `height ≥ 2` rows tall and one column per x sample; later
/// series overwrite earlier ones where they overlap. An empty x grid or a
/// series of the wrong length is an [`Error::InvalidArgument`].
pub fn ascii_plot(title: &str, xs: &[f64], series: &[Series], height: usize) -> Result<String> {
    if height < 2 || xs.is_empty() {
        return Err(Error::InvalidArgument(format!(
            "plot needs 2+ rows and x samples, got {height} rows and {} x samples",
            xs.len()
        )));
    }
    for s in series {
        if s.values.len() != xs.len() {
            return Err(Error::InvalidArgument(format!(
                "series {} has {} values for {} x samples",
                s.label,
                s.values.len(),
                xs.len()
            )));
        }
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for s in series {
        for &v in &s.values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !(lo.is_finite() && hi.is_finite()) {
        lo = 0.0;
        hi = 1.0;
    }
    if hi - lo < 1e-12 {
        hi = lo + 1.0;
    }
    let width = xs.len();
    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        for (col, &v) in s.values.iter().enumerate() {
            let frac = (v - lo) / (hi - lo);
            let row = ((1.0 - frac) * (height as f64 - 1.0)).round() as usize;
            grid[row.min(height - 1)][col] = s.glyph;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ =
        writeln!(out, "# y in [{lo:.4}, {hi:.4}], x in [{:.4}, {:.4}]", xs[0], xs[xs.len() - 1]);
    for row in &grid {
        let _ = writeln!(out, "|{}|", row.iter().collect::<String>());
    }
    let legend: Vec<String> = series.iter().map(|s| format!("{} = {}", s.glyph, s.label)).collect();
    let _ = writeln!(out, "# legend: {}", legend.join(", "));
    Ok(out)
}

/// Format a Markdown table from header and stringified rows.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(out, "|{}|", header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_shape() {
        let csv = to_csv(&["a", "b"], &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "a,b");
        assert!(lines[1].starts_with("1.0000000000,2.0000000000"));
    }

    #[test]
    fn ascii_plot_contains_glyphs_and_legend() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let s = Series { label: "line".into(), glyph: '*', values: xs.clone() };
        let plot = ascii_plot("test", &xs, &[s], 8).unwrap();
        assert!(plot.contains('*'));
        assert!(plot.contains("legend: * = line"));
        assert!(plot.contains("# test"));
    }

    #[test]
    fn ascii_plot_flat_series_does_not_panic() {
        let xs = vec![0.0, 1.0];
        let s = Series { label: "flat".into(), glyph: 'o', values: vec![2.0, 2.0] };
        let plot = ascii_plot("flat", &xs, &[s], 4).unwrap();
        assert!(plot.contains('o'));
    }

    #[test]
    #[should_panic(expected = "series bad has 1 values for 2 x samples")]
    fn ascii_plot_rejects_mismatched_series() {
        let xs = vec![0.0, 1.0];
        assert!(ascii_plot("short", &xs, &[], 1).is_err());
        assert!(ascii_plot("empty", &[], &[], 4).is_err());
        let s = Series { label: "bad".into(), glyph: 'x', values: vec![1.0] };
        ascii_plot("bad", &xs, &[s], 4).unwrap();
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| x | y |"));
        assert!(t.contains("|---|---|"));
        assert!(t.contains("| 1 | 2 |"));
    }
}
