//! Table printing and JSON result recording.

use std::io::Write;
use std::path::Path;

/// One measured data point, written to `results/<experiment>.json` so the
/// result tables in `README.md` can cite exact numbers.
#[derive(Debug, Clone)]
pub struct Record {
    /// Table/figure id, e.g. `"table5"`, `"fig7-gpu"`.
    pub experiment: String,
    /// Dataset name.
    pub dataset: String,
    /// Variation or configuration label.
    pub config: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `"bytes"`, `"GB/s"`, `"%"`.
    pub unit: String,
    /// The paper's reference value, when one exists.
    pub paper: Option<f64>,
}

/// Collects records and flushes them to disk at the end of a run.
#[derive(Default)]
pub struct Reporter {
    records: Vec<Record>,
}

impl Reporter {
    /// Empty reporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one record.
    pub fn push(
        &mut self,
        experiment: &str,
        dataset: &str,
        config: &str,
        value: f64,
        unit: &str,
        paper: Option<f64>,
    ) {
        self.records.push(Record {
            experiment: experiment.into(),
            dataset: dataset.into(),
            config: config.into(),
            value,
            unit: unit.into(),
            paper,
        });
    }

    /// Writes all records as JSON to `results/<name>.json`.
    pub fn flush(&self, name: &str) {
        let dir = Path::new("results");
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("{name}.json"));
        match std::fs::File::create(&path) {
            Ok(mut f) => {
                let json = records_to_json(&self.records);
                let _ = f.write_all(json.as_bytes());
                eprintln!("[results written to {}]", path.display());
            }
            Err(e) => eprintln!("[could not write {}: {e}]", path.display()),
        }
    }
}

/// Serializes records as pretty-printed JSON. The record fields are flat
/// strings/numbers, so hand-rolled emission (with string escaping) keeps the
/// harness free of registry dependencies.
fn records_to_json(records: &[Record]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  {\n");
        out.push_str(&format!(
            "    \"experiment\": \"{}\",\n",
            esc(&r.experiment)
        ));
        out.push_str(&format!("    \"dataset\": \"{}\",\n", esc(&r.dataset)));
        out.push_str(&format!("    \"config\": \"{}\",\n", esc(&r.config)));
        out.push_str(&format!("    \"value\": {},\n", num(r.value)));
        out.push_str(&format!("    \"unit\": \"{}\",\n", esc(&r.unit)));
        match r.paper {
            Some(p) => out.push_str(&format!("    \"paper\": {}\n", num(p))),
            None => out.push_str("    \"paper\": null\n"),
        }
        out.push_str(if i + 1 == records.len() {
            "  }\n"
        } else {
            "  },\n"
        });
    }
    out.push(']');
    out
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i.min(widths.len() - 1)]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        line(row);
    }
}

/// Formats a byte delta the way the paper's Tables 5/6 do:
/// `"+163.67 KB (+2.09%)"`.
pub fn fmt_delta(delta_bytes: i64, baseline: u64) -> String {
    format!(
        "{:+.2} KB {:+.2}%",
        delta_bytes as f64 / 1000.0,
        100.0 * delta_bytes as f64 / baseline as f64
    )
}
