//! Result rows and plain-text table rendering for the experiment harness.

/// One measurement row of an experiment (one method at one x-axis
/// setting).
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment id, e.g. `"fig8"`.
    pub exp: String,
    /// X-axis label, e.g. `"k=3"` or `"mss=4"`.
    pub x: String,
    /// Method name, e.g. `"BF"`.
    pub method: String,
    /// Mean running time in seconds.
    pub time_secs: Option<f64>,
    /// Mean pruning ratio in `[0, 1]`.
    pub pruning: Option<f64>,
    /// Mean Kendall τ.
    pub tau: Option<f64>,
    /// Mean recall.
    pub recall: Option<f64>,
    /// Free-form annotation (e.g. `"dp-fallback"`).
    pub note: String,
}

impl Row {
    /// A row with only the identifying fields set.
    pub fn new(exp: impl Into<String>, x: impl Into<String>, method: impl Into<String>) -> Self {
        Row {
            exp: exp.into(),
            x: x.into(),
            method: method.into(),
            time_secs: None,
            pruning: None,
            tau: None,
            recall: None,
            note: String::new(),
        }
    }
}

fn fmt_opt(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(v) => format!("{v:.digits$}"),
        None => "-".into(),
    }
}

/// Renders rows as an aligned text table.
pub fn render_table(rows: &[Row]) -> String {
    let headers = [
        "exp", "x", "method", "time(s)", "pruning", "tau", "recall", "note",
    ];
    let mut cells: Vec<[String; 8]> = Vec::with_capacity(rows.len());
    for r in rows {
        cells.push([
            r.exp.clone(),
            r.x.clone(),
            r.method.clone(),
            fmt_opt(r.time_secs, 4),
            fmt_opt(r.pruning.map(|p| p * 100.0), 1),
            fmt_opt(r.tau, 3),
            fmt_opt(r.recall, 3),
            r.note.clone(),
        ]);
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cols: &[String]| -> String {
        cols.iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cols: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cols));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in &cells {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Renders rows as tab-separated values (for downstream plotting).
pub fn render_tsv(rows: &[Row]) -> String {
    let mut out = String::from("exp\tx\tmethod\ttime_secs\tpruning\ttau\trecall\tnote\n");
    for r in rows {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.exp,
            r.x,
            r.method,
            fmt_opt(r.time_secs, 6),
            fmt_opt(r.pruning, 4),
            fmt_opt(r.tau, 4),
            fmt_opt(r.recall, 4),
            r.note
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<Row> {
        let mut a = Row::new("fig8", "k=1", "BF");
        a.time_secs = Some(1.234);
        a.pruning = Some(0.594);
        let mut b = Row::new("fig8", "k=1", "NL");
        b.time_secs = Some(2.0);
        b.tau = Some(0.859);
        b.recall = Some(0.933);
        vec![a, b]
    }

    #[test]
    fn table_contains_all_cells() {
        let t = render_table(&sample_rows());
        assert!(t.contains("BF"));
        assert!(t.contains("1.2340"));
        assert!(t.contains("59.4")); // pruning rendered as percent
        assert!(t.contains("0.859"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn tsv_has_header_and_rows() {
        let t = render_tsv(&sample_rows());
        assert_eq!(t.lines().count(), 3);
        assert!(t.starts_with("exp\t"));
    }

    #[test]
    fn missing_values_render_as_dash() {
        let t = render_table(&sample_rows());
        assert!(t.contains('-'));
    }
}
